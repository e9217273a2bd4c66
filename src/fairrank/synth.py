"""Synthetic datasets and randomized property-test instances.

Two desk-scale benchmark generators (a two-group binary-relevance stream and
a continuous-relevance variant with disparate group uncertainty), a
constructed polarity-flip scenario in which a ranking looks perfectly fair
until query polarity is accounted for, and a generic random-instance
factory for property harnesses. Each returns its ``Dataset`` and a
``core.Stream`` built directly from arrays (queries ``q0001``, ``q0002``, ...
at t = 1, 2, ...; columns in id order). All generation is a pure function
of its spec/seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import AttentionModel, Dataset, Stream
from .errors import SpecError

POLARITY_LAWS = ("unit", "signed", "continuous")


@dataclass(frozen=True)
class SynthSpec:
    n: int = 200
    T: int = 16
    seed: int = 0
    variant: str = "binary"

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise SpecError(f"n must be even and >= 2 (two equal groups), got {self.n}")
        if self.T < 2 or self.T % 2:
            raise SpecError(f"T must be even and >= 2 (balanced polarities), got {self.T}")
        if self.variant not in ("binary", "continuous"):
            raise SpecError(f"variant must be 'binary' or 'continuous', got {self.variant!r}")


def _two_group_dataset(n: int) -> Dataset:
    width = len(str(n // 2))
    males = tuple(f"m{i:0{width}d}" for i in range(1, n // 2 + 1))
    females = tuple(f"f{i:0{width}d}" for i in range(1, n // 2 + 1))
    group_of = {ind: "male" for ind in males} | {ind: "female" for ind in females}
    return Dataset(males + females, group_of)


def _alternating_polarity(T: int) -> np.ndarray:
    return np.array([[1.0 if t % 2 else -1.0] for t in range(1, T + 1)])


def _stream(dataset: Dataset, relevance: np.ndarray, polarity) -> Stream:
    """Queries ``q0001``, ``q0002``, ... at t = 1, 2, ... with (T, n)
    ``relevance`` in dataset order, its columns put in id order."""
    order = dataset.id_order
    T = len(relevance)
    return Stream(
        [f"q{t:04d}" for t in range(1, T + 1)],
        np.arange(1, T + 1),
        polarity,
        tuple(map(dataset.individuals.__getitem__, order.tolist())),
        relevance[:, order],
    )


def _normalized(raw: np.ndarray) -> np.ndarray:
    """Each row of non-negative ``raw`` divided by its ``math.fsum``."""
    return raw / np.array([math.fsum(row) for row in raw.tolist()])[:, None]


def gen_synth_binary(spec: SynthSpec) -> tuple[Dataset, Stream]:
    """Two equal groups; raw relevance 1.01 vs 0.99 flipping with polarity.

    On positive-polarity queries the ``male`` group scores 1.01 and the
    ``female`` group 0.99; negative-polarity queries mirror the scores.
    Polarity alternates +1, -1 across the stream.
    """
    if spec.variant != "binary":
        raise SpecError(f"binary generator got variant {spec.variant!r}")
    dataset = _two_group_dataset(spec.n)
    polarity = _alternating_polarity(spec.T)
    male = np.array([dataset.group_of[ind] == "male" for ind in dataset.individuals])
    raw = np.where(male == (polarity > 0), 1.01, 0.99)
    return dataset, _stream(dataset, _normalized(raw), polarity)


def gen_synth_cont(
    spec: SynthSpec, std_a: float = 0.2, std_b: float = 0.1
) -> tuple[Dataset, Stream]:
    """Two equal groups with normal raw relevance of disparate spread.

    Group ``male`` draws from Normal(1, std_a), group ``female`` from
    Normal(1, std_b), truncated below at 1e-6, then normalized per query.
    """
    if spec.variant != "continuous":
        raise SpecError(f"continuous generator got variant {spec.variant!r}")
    dataset = _two_group_dataset(spec.n)
    rng = np.random.default_rng(spec.seed)
    half = spec.n // 2
    raw = np.empty((spec.T, spec.n))
    for row in raw:
        draws_a = rng.normal(1.0, std_a, half) if std_a > 0 else np.ones(half)
        draws_b = rng.normal(1.0, std_b, half) if std_b > 0 else np.ones(half)
        row[:] = np.maximum(np.concatenate([draws_a, draws_b]), 1e-6)
    return dataset, _stream(dataset, _normalized(raw), _alternating_polarity(spec.T))


def gen_synth(spec: SynthSpec) -> tuple[Dataset, Stream]:
    if spec.variant == "binary":
        return gen_synth_binary(spec)
    return gen_synth_cont(spec)


def gen_random_instance(
    n: int,
    G: int,
    T: int,
    polarity_law: str = "signed",
    seed: int = 0,
    components: int = 1,
) -> tuple[Dataset, Stream]:
    """Random grouped dataset and stream for property harnesses.

    Relevance is Dirichlet(1) per query; polarities follow ``polarity_law``
    (``unit``: all 1, ``signed``: uniform over {-1, +1}, ``continuous``:
    uniform over [-1, 1]). Every group is non-empty.
    """
    if not (n >= G >= 1) or T < 1 or components < 1:
        raise SpecError(f"need n >= G >= 1, T >= 1, components >= 1; got {(n, G, T, components)}")
    if polarity_law not in POLARITY_LAWS:
        raise SpecError(f"polarity_law must be one of {POLARITY_LAWS}, got {polarity_law!r}")
    rng = np.random.default_rng(seed)
    width = len(str(n))
    individuals = tuple(f"i{i:0{width}d}" for i in range(n))
    labels = np.concatenate([np.arange(G), rng.integers(0, G, n - G)])
    group_of = {ind: f"g{labels[i]}" for i, ind in enumerate(individuals)}
    dataset = Dataset(individuals, group_of)

    relevance = np.empty((T, n))
    polarity = np.empty((T, components))
    for rel, pol in zip(relevance, polarity):
        rel[:] = rng.dirichlet(np.ones(n))
        if polarity_law == "unit":
            pol[:] = 1.0
        elif polarity_law == "signed":
            pol[:] = rng.choice([-1.0, 1.0], components)
        else:
            pol[:] = rng.uniform(-1.0, 1.0, components)
    return dataset, _stream(dataset, relevance, polarity)


def fairwashing_scenario():
    """Two individuals, two opposite-polarity queries, all-or-nothing attention.

    Individual ``a`` is ranked first on the positive query and ``b`` first
    on the negative one. Ignoring polarity the cumulative attention of both
    individuals exactly matches their cumulative relevance; accounting for
    polarity, each is off by exactly 1.

    Returns (dataset, stream, orderings, attention_model): row ``s`` of the
    (2, 2) ``orderings`` lists query ``s``'s ranking as dataset rows; feed
    them through a ledger to reproduce the measurement.
    """
    dataset = Dataset(("a", "b"), {"a": "g1", "b": "g2"})
    stream = Stream(("q_pos", "q_neg"), [1, 2], [[1.0], [-1.0]], ("a", "b"), [[0.5, 0.5]] * 2)
    return dataset, stream, np.array([[0, 1], [1, 0]]), AttentionModel(cutoff=1)
