"""Domain model: datasets, query streams, position-bias attention, rankings,
and the running ledger of cumulative attention and relevance.

Conventions used throughout the package:

* positions are 1-based; position ``j`` receives attention ``1/log2(j+1)``
  up to a cutoff depth and exactly zero beyond it, normalized so the weights
  of one ranking sum to 1;
* per-query relevance scores are a probability distribution over the
  individuals being ranked (non-negative, sum to 1);
* each query carries a polarity vector of ``P >= 1`` real components that
  scales the real-world value of attention; scalar polarity is ``P = 1``;
* the ledger stores each query's attention, relevance and polarity once and
  derives both readings from them: polarity-aware (values weighted by the
  query polarity) and polarity-agnostic (polarity replaced by 1).
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    AllZeroError,
    CoverageError,
    LengthMismatchError,
    NegativeScoreError,
    ValidationError,
)

DEFAULT_ATTENTION_CUTOFF = 10
RELEVANCE_SUM_TOL = 1e-9

CHANNELS = ("attention", "relevance")
MODES = ("aware", "agnostic")


def normalize_relevance(raw_scores: dict[str, float]) -> dict[str, float]:
    """Scale non-negative raw scores to a probability distribution.

    Raises NegativeScoreError if any score is negative and AllZeroError if
    every score is zero.
    """
    for ind, score in raw_scores.items():
        if score < 0:
            raise NegativeScoreError(f"negative relevance score {score} for {ind!r}")
    total = math.fsum(raw_scores.values())
    if total == 0.0:
        raise AllZeroError("all relevance scores are zero")
    return {ind: score / total for ind, score in raw_scores.items()}


@lru_cache(maxsize=128)
def _attention_weights_cached(n: int, cutoff: int) -> np.ndarray:
    m = min(cutoff, n)
    j = np.arange(1, m + 1, dtype=np.float64)
    raw = 1.0 / np.log2(j + 1.0)
    w = np.zeros(n, dtype=np.float64)
    w[:m] = raw / raw.sum()
    w.setflags(write=False)
    return w


def attention_weights(n: int, cutoff: int = DEFAULT_ATTENTION_CUTOFF) -> np.ndarray:
    """Log-decay position weights for a ranking of ``n`` individuals.

    weights[j-1] = (1/log2(j+1)) / Z for j <= min(cutoff, n), 0 beyond,
    with Z normalizing over the non-zero prefix.
    """
    if n < 1:
        raise ValidationError(f"need at least one position, got n={n}")
    if cutoff < 1:
        raise ValidationError(f"attention cutoff must be >= 1, got {cutoff}")
    return _attention_weights_cached(n, cutoff).copy()


def dcg_at_k(ordering, relevance: dict[str, float], k: int) -> float:
    """Position-discounted relevance sum over the top ``k`` of ``ordering``."""
    depth = min(k, len(ordering))
    return float(
        sum(relevance[ordering[j - 1]] / math.log2(j + 1) for j in range(1, depth + 1))
    )


def ndcg_at_k(ordering, ideal_ordering, relevance: dict[str, float], k: int) -> float:
    """DCG@k of ``ordering`` normalized by the ideal ordering's DCG@k.

    A query whose ideal DCG is zero is vacuously perfect and scores 1.
    """
    ideal = dcg_at_k(ideal_ordering, relevance, k)
    if ideal == 0.0:
        return 1.0
    return dcg_at_k(ordering, relevance, k) / ideal


@dataclass(frozen=True)
class Dataset:
    """The individuals being ranked and their (single) group memberships."""

    individuals: tuple[str, ...]
    group_of: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "individuals", tuple(self.individuals))
        if len(set(self.individuals)) != len(self.individuals):
            raise ValidationError("duplicate individual identifiers")
        if not self.individuals:
            raise ValidationError("dataset has no individuals")
        missing = set(self.individuals) - set(self.group_of)
        extra = set(self.group_of) - set(self.individuals)
        if missing or extra:
            raise ValidationError(
                f"group map must cover exactly the individuals "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )

    @classmethod
    def single_group(cls, individuals, group: str = "all") -> "Dataset":
        individuals = tuple(individuals)
        return cls(individuals, {ind: group for ind in individuals})

    @property
    def n(self) -> int:
        return len(self.individuals)

    @cached_property
    def index(self) -> dict[str, int]:
        return {ind: i for i, ind in enumerate(self.individuals)}

    @cached_property
    def id_order(self) -> np.ndarray:
        """Dataset positions sorted by ascending identifier, read-only."""
        return _id_order(self.individuals)

    @cached_property
    def groups(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for ind in self.individuals:
            out.setdefault(self.group_of[ind], []).append(ind)
        return {g: tuple(members) for g, members in sorted(out.items())}


@dataclass(frozen=True)
class QueryEvent:
    """One timestep's query: polarity vector and normalized relevance."""

    query_id: str
    t: int
    polarity: tuple[float, ...]
    relevance: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "polarity", tuple(float(p) for p in self.polarity))
        if self.t < 1:
            raise ValidationError(f"timestep must be >= 1, got {self.t}")
        if len(self.polarity) < 1:
            raise ValidationError("polarity vector must have at least one component")
        if not all(math.isfinite(p) for p in self.polarity):
            raise ValidationError(
                f"query {self.query_id!r}: non-finite polarity {self.polarity}"
            )
        # one pass in C; the loop only names the offender (a NaN first in
        # the dict makes min NaN, so the loop runs then as well)
        if not min(self.relevance.values(), default=0.0) >= 0:
            for ind, r in self.relevance.items():
                if r < 0:
                    raise ValidationError(
                        f"query {self.query_id!r}: negative relevance {r} for {ind!r}"
                    )
        total = math.fsum(self.relevance.values())
        # written so a NaN total (any NaN relevance) fails too
        if not abs(total - 1.0) <= RELEVANCE_SUM_TOL:
            raise ValidationError(
                f"query {self.query_id!r}: relevance sums to {total!r}, not 1"
            )

    @property
    def components(self) -> int:
        return len(self.polarity)

    def validate_coverage(self, individuals) -> None:
        """Check the relevance map ranks exactly the dataset's individuals."""
        expected = set(individuals)
        got = set(self.relevance)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise CoverageError(
                f"query {self.query_id!r} covers a different individual set "
                f"(missing={missing[:5]}, extra={extra[:5]})"
            )

    def relevance_vector(self, dataset: Dataset) -> np.ndarray:
        return np.fromiter(
            map(self.relevance.__getitem__, dataset.individuals),
            dtype=np.float64,
            count=dataset.n,
        )


def _id_order(ids) -> np.ndarray:
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    order.setflags(write=False)
    return order


def ideal_order(id_order: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Positions of ``rel`` in relevance-descending order, ties broken by
    ascending identifier; ``id_order`` lists the positions by ascending
    identifier (``Dataset.id_order``).

    A stable sort of the negated values taken in identifier order keeps equal
    values (0.0 and -0.0 included) in that order.
    """
    return id_order[np.argsort(-rel[id_order], kind="stable")]


def ideal_ranking(query: QueryEvent) -> tuple[str, ...]:
    """Relevance-descending ordering; ties broken by ascending identifier."""
    ids = tuple(query.relevance)
    rel = np.fromiter(query.relevance.values(), dtype=np.float64, count=len(ids))
    return tuple(map(ids.__getitem__, ideal_order(_id_order(ids), rel).tolist()))


@dataclass(frozen=True)
class AttentionModel:
    """Position-to-attention weights with log decay up to ``cutoff``."""

    cutoff: int = DEFAULT_ATTENTION_CUTOFF

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValidationError(f"attention cutoff must be >= 1, got {self.cutoff}")

    def weights(self, n: int) -> np.ndarray:
        return _attention_weights_cached(n, self.cutoff)

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """Attention per dataset position when the individual at position
        ``rows[j]`` takes rank ``j+1``; ``rows`` is a permutation."""
        n = len(rows)
        attn = np.empty(n)
        attn[rows] = self.weights(n)
        return attn


@dataclass(frozen=True)
class Assignment:
    """A full ranking: position ``j`` (1-based) holds ``ordering[j-1]``."""

    ordering: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "ordering", tuple(self.ordering))
        if len(set(self.ordering)) != len(self.ordering):
            raise ValidationError("assignment ranks an individual more than once")

    @cached_property
    def position_of(self) -> dict[str, int]:
        return {ind: j + 1 for j, ind in enumerate(self.ordering)}


class Ledger:
    """Per-individual cumulative attention/relevance state over a stream.

    One columnar store: per processed query, the attention and relevance
    each individual received, two (t, n) arrays in arrival order, and the
    query's polarity vector, (t, P). Both polarity modes are read from it
    (``aware`` weights query values by eta, ``agnostic`` by 1), as are the
    per-query values eta * x and the cumulative moments: the mean sums
    eta * x, and the variance sums eta^2 * x * (1 - x), the
    Poisson-binomial variance of the cumulative total.

    Single-writer: only ``update`` (and the engines' unchecked ``_record``)
    and ``replace_attention`` mutate; all accessors are read-only and safe to
    call concurrently between writes. Values derived from one state can be
    kept in ``memo``, which each write clears, except for the full moment
    matrices: a new query advances them by its own terms, and
    ``replace_attention`` keeps the relevance ones (relevance and eta are
    left as they were).
    """

    def __init__(self, dataset: Dataset, components: int = 1):
        if components < 1:
            raise ValidationError("ledger needs at least one polarity component")
        self.dataset = dataset
        self.components = components
        self.t = 0
        # rows past ``t`` are spare capacity, doubled whenever it runs out
        self._attention = np.empty((0, dataset.n))
        self._relevance = np.empty((0, dataset.n))
        self._eta = np.empty((0, components))
        self._memo: dict = {}

    def _ordering_rows(self, assignment: Assignment) -> np.ndarray:
        """Dataset positions of ``assignment``'s ordering; raises
        ValidationError unless it ranks exactly the dataset's individuals."""
        n = self.dataset.n
        index = self.dataset.index
        # an Assignment holds no repeats, so n known ids make a permutation
        ordering = assignment.ordering
        not_a_permutation = "assignment must rank exactly the dataset individuals"
        if len(ordering) != n:
            raise ValidationError(not_a_permutation)
        try:
            return np.fromiter(map(index.__getitem__, ordering), dtype=np.intp, count=n)
        except KeyError:
            raise ValidationError(not_a_permutation) from None

    def attention_values(
        self, assignment: Assignment, attention: AttentionModel
    ) -> np.ndarray:
        """Attention each individual receives from ``assignment``, in
        dataset order; raises ValidationError unless it ranks exactly the
        dataset's individuals."""
        return attention.scatter(self._ordering_rows(assignment))

    def update(
        self, query: QueryEvent, assignment: Assignment, attention: AttentionModel
    ) -> None:
        if query.components != self.components:
            raise LengthMismatchError(
                f"query {query.query_id!r} has {query.components} polarity "
                f"component(s), ledger tracks {self.components}"
            )
        if query.relevance.keys() != self.dataset.index.keys():
            query.validate_coverage(self.dataset.individuals)
        self._record(
            self._ordering_rows(assignment),
            attention,
            query.relevance_vector(self.dataset),
            query.polarity,
        )

    def _record(self, rows, attention: AttentionModel, rel, polarity) -> None:
        """Append one query unchecked: the individual at dataset position
        ``rows[j]`` took rank ``j+1``, ``rel`` is the relevance in dataset
        order and ``polarity`` has ``components`` entries.

        Memoised moment matrices advance by the query's terms, written as
        the ``cumsum`` build adds them, so they stay bit-identical to a
        rebuild; every other memo entry is dropped.
        """
        attn = attention.scatter(rows)
        if self.t == len(self._eta):
            spare = max(self.t, 8)
            self._attention, self._relevance, self._eta = (
                np.concatenate([store, np.empty((spare, store.shape[1]))])
                for store in (self._attention, self._relevance, self._eta)
            )
        self._attention[self.t] = attn
        self._relevance[self.t] = rel
        self._eta[self.t] = polarity
        self._memo = {key: value for key, value in self._memo.items() if key[0] == "moments"}
        for (_, channel, mode), (mean, var) in self._memo.items():
            x = (attn if channel == "attention" else self._relevance[self.t])[:, None]
            eta = self._eta[self.t] if mode == "aware" else np.ones(self.components)
            mean += eta * x
            var += eta * eta * x * (1.0 - x)
        self.t += 1

    def replace_attention(self, step0: int, values: np.ndarray) -> np.ndarray:
        """Store ``values`` as the attention of the 0-based step ``step0``,
        as if that query had been ranked differently; returns the row it
        replaces."""
        if not 0 <= step0 < self.t:
            raise ValidationError(f"step {step0} outside 0..{self.t - 1}")
        previous = self._attention[step0].copy()
        self._attention[step0] = values
        self._memo = {
            key: value
            for key, value in self._memo.items()
            if key[:2] == ("moments", "relevance")
        }
        return previous

    # -- read-only accessors -------------------------------------------------

    def memo(self, key, build):
        """``build()`` computed once per ledger state under ``key``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def stored(self, channel: str) -> np.ndarray:
        """The stored per-query attention or relevance, (t, n), read-only."""
        if channel == "attention":
            view = self._attention[: self.t]
        elif channel == "relevance":
            view = self._relevance[: self.t]
        else:
            raise ValidationError(f"unknown channel {channel!r}")
        view.flags.writeable = False
        return view

    def _polarity(self, mode: str) -> np.ndarray:
        if mode == "aware":
            return self._eta[: self.t]
        if mode == "agnostic":
            return np.ones((self.t, self.components))
        raise ValidationError(f"unknown polarity mode {mode!r}")

    def values_at(self, rows, channel: str, mode: str = "agnostic") -> np.ndarray:
        """Per-query values eta * x of the individuals at dataset positions
        ``rows``, shape (t, k, P), in arrival order."""
        x = self.stored(channel)[:, rows, None]
        return self._polarity(mode)[:, None, :] * x

    def moments_at(self, rows, channel: str, mode: str = "agnostic"):
        """Cumulative (mean, variance) arrays, (k, P), of the individuals at
        dataset positions ``rows`` (a sequence of ints)."""
        mean, var = self._moment_matrices(channel, mode)
        return mean.take(rows, axis=0), var.take(rows, axis=0)

    def _moment_matrices(self, channel: str, mode: str):
        """The memoised (n, P) moment matrices, built by ``cumsum`` and then
        advanced by ``_record``."""

        def build():
            x = self.stored(channel)[:, :, None]
            eta = self._polarity(mode)[:, None, :]
            return _accrued(eta * x), _accrued(eta * eta * x * (1.0 - x))

        return self.memo(("moments", channel, mode), build)

    def moments(self, individual: str, channel: str, mode: str = "agnostic"):
        """(mean, variance) arrays of shape (P,) for one individual."""
        mean, var = self.moments_at([self.dataset.index[individual]], channel, mode)
        return mean[0], var[0]

    def sequence(self, individual: str, channel: str, mode: str = "agnostic") -> np.ndarray:
        """Per-query value sequence, shape (t, P), in arrival order."""
        return self.values_at([self.dataset.index[individual]], channel, mode)[:, 0]

    def mean_matrix(self, channel: str, mode: str = "agnostic") -> np.ndarray:
        return self._moment_matrices(channel, mode)[0].copy()

    def var_matrix(self, channel: str, mode: str = "agnostic") -> np.ndarray:
        return self._moment_matrices(channel, mode)[1].copy()

    def sequences(self, channel: str, mode: str = "agnostic") -> np.ndarray:
        """All per-query values, shape (t, n, P)."""
        return self.values_at(slice(None), channel, mode)


def _accrued(steps: np.ndarray) -> np.ndarray:
    """Sum over arrival order (axis 0) as a running total from 0.0 gives it.

    ``cumsum`` adds step by step whatever the shape (``sum`` may add in
    pairs), and ``+ 0.0`` turns the -0.0 of an all-(-0.0) column into the
    0.0 a running total ends on.
    """
    if not len(steps):
        return np.zeros(steps.shape[1:])
    return steps.cumsum(axis=0)[-1] + 0.0
