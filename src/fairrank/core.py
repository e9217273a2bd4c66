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
* the ledger keeps two parallel tracks: polarity-aware (values weighted by
  the query polarity) and polarity-agnostic (polarity replaced by 1).
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


def ideal_ranking(query: QueryEvent) -> tuple[str, ...]:
    """Relevance-descending ordering; ties broken by ascending identifier.

    Sorts the identifiers, then stably by relevance (``reverse=True`` keeps
    equal keys in their ascending-identifier order).
    """
    rel = query.relevance
    return tuple(sorted(sorted(rel), key=rel.__getitem__, reverse=True))


@dataclass(frozen=True)
class AttentionModel:
    """Position-to-attention weights with log decay up to ``cutoff``."""

    cutoff: int = DEFAULT_ATTENTION_CUTOFF

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValidationError(f"attention cutoff must be >= 1, got {self.cutoff}")

    def weights(self, n: int) -> np.ndarray:
        return _attention_weights_cached(n, self.cutoff)


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


class _Track:
    """Running moments plus append-only per-query value sequences.

    Arrays are (n, P); sequences are a list of (n, P) arrays, one per query.
    Variance accrues the exact Bernoulli-sum form eta^2 * p * (1 - p) per
    query, i.e. the Poisson-binomial variance of the cumulative total.
    """

    __slots__ = ("mean_attn", "var_attn", "mean_rel", "var_rel", "seq_attn", "seq_rel")

    def __init__(self, n: int, components: int):
        shape = (n, components)
        self.mean_attn = np.zeros(shape)
        self.var_attn = np.zeros(shape)
        self.mean_rel = np.zeros(shape)
        self.var_rel = np.zeros(shape)
        self.seq_attn: list[np.ndarray] = []
        self.seq_rel: list[np.ndarray] = []

    def update(self, eta: np.ndarray, attn: np.ndarray, rel: np.ndarray) -> None:
        a = attn[:, None]
        r = rel[:, None]
        e = eta[None, :]
        e2 = e * e
        self.mean_attn += e * a
        self.var_attn += e2 * a * (1.0 - a)
        self.mean_rel += e * r
        self.var_rel += e2 * r * (1.0 - r)
        self.seq_attn.append(e * a)
        self.seq_rel.append(e * r)


class Ledger:
    """Per-individual cumulative attention/relevance state over a stream.

    Single-writer: only ``update`` mutates; all accessors are read-only and
    safe to call concurrently between updates. Values derived from one state
    can be kept in ``memo``, which each update clears.
    """

    def __init__(self, dataset: Dataset, components: int = 1):
        if components < 1:
            raise ValidationError("ledger needs at least one polarity component")
        self.dataset = dataset
        self.components = components
        self.t = 0
        self._aware = _Track(dataset.n, components)
        self._agnostic = _Track(dataset.n, components)
        self._ones = np.ones(components)
        self._memo: dict = {}

    def _track(self, mode: str) -> _Track:
        if mode == "aware":
            return self._aware
        if mode == "agnostic":
            return self._agnostic
        raise ValidationError(f"unknown polarity mode {mode!r}")

    def update(
        self, query: QueryEvent, assignment: Assignment, attention: AttentionModel
    ) -> None:
        if query.components != self.components:
            raise LengthMismatchError(
                f"query {query.query_id!r} has {query.components} polarity "
                f"component(s), ledger tracks {self.components}"
            )
        n = self.dataset.n
        index = self.dataset.index
        if query.relevance.keys() != index.keys():
            query.validate_coverage(self.dataset.individuals)
        # an Assignment holds no repeats, so n known ids make a permutation
        ordering = assignment.ordering
        not_a_permutation = "assignment must rank exactly the dataset individuals"
        if len(ordering) != n:
            raise ValidationError(not_a_permutation)
        try:
            rows = np.fromiter(map(index.__getitem__, ordering), dtype=np.intp, count=n)
        except KeyError:
            raise ValidationError(not_a_permutation) from None
        attn = np.empty(n)
        attn[rows] = attention.weights(n)
        rel = query.relevance_vector(self.dataset)
        eta = np.asarray(query.polarity, dtype=np.float64)
        self._memo.clear()
        self._aware.update(eta, attn, rel)
        self._agnostic.update(self._ones, attn, rel)
        self.t += 1

    # -- read-only accessors -------------------------------------------------

    def memo(self, key, build):
        """``build()`` computed once per ledger state under ``key``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _channel_arrays(self, track: _Track, channel: str):
        if channel == "attention":
            return track.mean_attn, track.var_attn, track.seq_attn
        if channel == "relevance":
            return track.mean_rel, track.var_rel, track.seq_rel
        raise ValidationError(f"unknown channel {channel!r}")

    def moments(self, individual: str, channel: str, mode: str = "agnostic"):
        """(mean, variance) arrays of shape (P,) for one individual."""
        mean, var, _ = self._channel_arrays(self._track(mode), channel)
        row = self.dataset.index[individual]
        return mean[row].copy(), var[row].copy()

    def sequence(self, individual: str, channel: str, mode: str = "agnostic") -> np.ndarray:
        """Per-query value sequence, shape (t, P), in arrival order."""
        _, _, seq = self._channel_arrays(self._track(mode), channel)
        row = self.dataset.index[individual]
        if not seq:
            return np.zeros((0, self.components))
        return np.stack([s[row] for s in seq])

    def sequence_std(self, individual: str, channel: str, mode: str = "agnostic") -> np.ndarray:
        """Population standard deviation of the per-query value sequence.

        This is the alternate reading of the spread statistic: dispersion of
        the per-query expected values rather than the Poisson-binomial
        deviation of the cumulative sum kept in ``moments``.
        """
        return self.sequence(individual, channel, mode).std(axis=0, ddof=0)

    def mean_matrix(self, channel: str, mode: str = "agnostic") -> np.ndarray:
        mean, _, _ = self._channel_arrays(self._track(mode), channel)
        return mean.copy()

    def var_matrix(self, channel: str, mode: str = "agnostic") -> np.ndarray:
        _, var, _ = self._channel_arrays(self._track(mode), channel)
        return var.copy()

    def sequences(self, channel: str, mode: str = "agnostic") -> np.ndarray:
        """All per-query values, shape (t, n, P)."""
        _, _, seq = self._channel_arrays(self._track(mode), channel)
        if not seq:
            return np.zeros((0, self.dataset.n, self.components))
        return np.stack(seq)


def ledger_update(
    ledger: Ledger,
    query: QueryEvent,
    assignment: Assignment,
    attention: AttentionModel,
) -> Ledger:
    """Accrue one query into the ledger (both tracks); returns the ledger."""
    ledger.update(query, assignment, attention)
    return ledger
