"""Domain model: datasets, query streams (``Stream`` holds a whole stream in
columns and is the package's only in-memory stream), position-bias
attention, DCG, rankings as dataset rows, and the ledger of cumulative
attention and relevance bound to its stream.

Conventions used throughout the package:

* positions are 1-based; position ``j`` receives attention ``1/log2(j+1)``
  up to a cutoff depth and exactly zero beyond it, normalized so the weights
  of one ranking sum to 1;
* per-query relevance scores are a probability distribution over the
  individuals being ranked (non-negative, sum to 1);
* each query carries a polarity vector of ``P >= 1`` real components that
  scales the real-world value of attention; scalar polarity is ``P = 1``;
* a ranking is a permutation of dataset rows, best first;
* the ledger reads relevance and polarity from its stream, stores each
  query's attention once and derives both readings from them:
  polarity-aware (values weighted by the query polarity) and
  polarity-agnostic (polarity replaced by 1).
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CoverageError, LengthMismatchError, StreamOrderError, ValidationError

DEFAULT_ATTENTION_CUTOFF = 10
RELEVANCE_SUM_TOL = 1e-9

CHANNELS = ("attention", "relevance")
MODES = ("aware", "agnostic")


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


def _dcg(values) -> float:
    """Position-discounted sum of ``values`` (Python floats, rank order),
    added one at a time."""
    return float(sum(v / math.log2(j + 2) for j, v in enumerate(values)))


def _ndcg(values, ideal_dcg: float) -> float:
    """nDCG of a ranking whose top relevance values are ``values``, given the
    ideal DCG; a query whose ideal DCG is zero is vacuously perfect and
    scores 1 (``values`` is not read then)."""
    return 1.0 if ideal_dcg == 0.0 else _dcg(values) / ideal_dcg


def _ndcg_rows(values: np.ndarray, ideal_values: np.ndarray) -> np.ndarray:
    """``_ndcg`` of each row of the (T, k) ``values`` against the same row
    of ``ideal_values``, bit for bit: each DCG adds its k discounted columns
    one at a time from 0.0, as ``_dcg`` adds its terms, and a row whose
    ideal DCG is zero scores 1."""
    dcg, ideal = np.zeros(len(values)), np.zeros(len(values))
    for j in range(values.shape[1]):
        discount = math.log2(j + 2)
        dcg += values[:, j] / discount
        ideal += ideal_values[:, j] / discount
    out = np.ones(len(values))
    np.divide(dcg, ideal, out=out, where=ideal != 0.0)
    return out


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
        # distinct individuals all in a map of as many keys cover it exactly
        group_of = self.group_of
        if len(group_of) != len(self.individuals) or not all(
            map(group_of.__contains__, self.individuals)
        ):
            missing = set(self.individuals) - set(group_of)
            extra = set(group_of) - set(self.individuals)
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
        ids = self.individuals
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        order.setflags(write=False)
        return order

    @cached_property
    def groups(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for ind in self.individuals:
            out.setdefault(self.group_of[ind], []).append(ind)
        return {g: tuple(members) for g, members in sorted(out.items())}

    @cached_property
    def group_codes(self) -> np.ndarray:
        """Each dataset position's group, as its place in ``groups`` order,
        read-only."""
        codes = np.empty(self.n, dtype=np.intp)
        for code, rows in enumerate(self.group_rows.values()):
            codes[rows] = code
        codes.setflags(write=False)
        return codes

    @cached_property
    def group_rows(self) -> dict[str, np.ndarray]:
        """Each group's dataset positions, in dataset order, read-only; the
        groups in ``groups`` order."""
        rows: dict[str, list[int]] = {}
        group_of = self.group_of
        for row, ind in enumerate(self.individuals):
            rows.setdefault(group_of[ind], []).append(row)
        out = {}
        for group in sorted(rows):
            out[group] = np.array(rows[group], dtype=np.intp)
            out[group].setflags(write=False)
        return out


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _fsum(values) -> float:
    """``math.fsum``, with a total past the float range read as infinity."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _int64_misfit(given, t: np.ndarray) -> tuple[int, int] | None:
    """The index and value of the first of the timesteps ``given`` (read by
    numpy as ``t``) that is an integer outside int64, or None. numpy holds
    integers past int64 as uint64, float64 or object."""
    if t.dtype.kind == "u":
        over = t > np.iinfo(np.int64).max
        return (i := int(np.argmax(over)), int(t[i])) if over.any() else None
    if t.dtype.kind not in "fO" or t.ndim != 1:
        return None
    values = t.tolist() if isinstance(given, np.ndarray) else list(given)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        return None
    return next(((i, int(v)) for i, v in enumerate(values) if not -(2**63) <= v < 2**63), None)


@dataclass(frozen=True, eq=False)
class Stream:
    """A query stream held in columns, in arrival order: the only in-memory
    stream of the package.

    ``query_ids`` and ``t`` hold one entry per query, ``polarity`` is
    (T, P), ``individuals`` lists the ranked ids in ascending order and
    ``relevance`` is the (T, n) float64 matrix with columns in that order.
    It is checked once, when built: timesteps are integers, at least 1 and
    strictly increasing; polarity is finite; relevance is non-negative and
    each row sums to 1 within ``RELEVANCE_SUM_TOL`` (by ``math.fsum``).
    Query ids may repeat (bootstrap resamples do). The arrays are read-only
    views.

    ``len`` counts the queries and a slice is a Stream (so it must keep at
    least one query); a query's values are read from the columns.
    """

    query_ids: tuple[str, ...]
    t: np.ndarray
    polarity: np.ndarray
    individuals: tuple[str, ...]
    relevance: np.ndarray

    def __post_init__(self):
        query_ids = tuple(self.query_ids)
        individuals = tuple(self.individuals)
        given_t = self.t
        t = _read_only(np.asarray(given_t))
        polarity = _read_only(np.asarray(self.polarity, dtype=np.float64))
        relevance = _read_only(np.asarray(self.relevance, dtype=np.float64))
        for name, value in (
            ("query_ids", query_ids),
            ("individuals", individuals),
            ("t", t),
            ("polarity", polarity),
            ("relevance", relevance),
        ):
            object.__setattr__(self, name, value)
        T = len(query_ids)
        if not T:
            raise ValidationError("empty query stream")
        if not individuals:
            raise ValidationError("stream ranks no individuals")
        if not all(map(operator.lt, individuals, individuals[1:])):
            raise ValidationError("stream individuals must be distinct and in ascending order")
        if (
            t.shape != (T,)
            or polarity.ndim != 2
            or len(polarity) != T
            or relevance.shape != (T, len(individuals))
        ):
            raise LengthMismatchError(
                f"stream columns disagree: {T} query ids, timesteps {t.shape}, "
                f"polarity {polarity.shape}, relevance {relevance.shape} "
                f"for {len(individuals)} individuals"
            )
        misfit = _int64_misfit(given_t, t)
        if misfit is not None:
            raise ValidationError(
                f"query {query_ids[misfit[0]]!r}: timestep {misfit[1]} does not fit in int64"
            )
        # numpy reads a bool among integers as 0 or 1
        if not isinstance(given_t, np.ndarray) and {bool, np.bool_} & set(map(type, given_t)):
            raise ValidationError("timesteps must be integers, got bool")
        if t.dtype.kind not in "iu":
            raise ValidationError(f"timesteps must be integers, got {t.dtype}")
        if polarity.shape[1] < 1:
            raise ValidationError("polarity vector must have at least one component")
        self._check_rows()

    def _check_rows(self) -> None:
        """Per-query checks (timestep, polarity, negative relevance, row
        sum), first failing query first; then the timestep order.

        On a non-negative row the numpy sum is off the exact one by less
        than n * 2**-53 times the sum, whatever order it adds in, so
        ``math.fsum`` runs only on rows whose numpy sum lies within twice
        that of the tolerance edge.
        """
        relevance = self.relevance
        slack = relevance.shape[1] * 2.0**-52
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            totals = relevance.sum(axis=1)
        rows = zip(
            self.query_ids,
            self.t.tolist(),
            self.polarity.tolist(),
            # fmin passes over NaN, so a negative value is named before the
            # NaN sum fails
            np.fmin.reduce(relevance, axis=1).tolist(),
            totals.tolist(),
        )
        for i, (query_id, t, eta, lowest, total) in enumerate(rows):
            if t < 1:
                raise ValidationError(f"query {query_id!r}: timestep must be >= 1, got {t}")
            if not all(map(math.isfinite, eta)):
                raise ValidationError(f"query {query_id!r}: non-finite polarity {tuple(eta)}")
            if lowest < 0:
                j = int(np.argmax(relevance[i] < 0))
                raise ValidationError(
                    f"query {query_id!r}: negative relevance {float(relevance[i, j])!r} "
                    f"for {self.individuals[j]!r}"
                )
            gap = abs(total - 1.0)
            if gap <= RELEVANCE_SUM_TOL - slack * total:
                continue
            # NaN relevance makes the sum NaN, so such rows are summed exactly too
            if not gap > RELEVANCE_SUM_TOL + slack * total:
                total = _fsum(relevance[i].tolist())
                if abs(total - 1.0) <= RELEVANCE_SUM_TOL:
                    continue
            raise ValidationError(f"query {query_id!r}: relevance sums to {total!r}, not 1")
        t = self.t.tolist()
        for i in range(1, len(t)):
            if t[i] <= t[i - 1]:
                raise StreamOrderError(
                    f"query {self.query_ids[i]!r}: timestep {t[i]} not greater than {t[i - 1]}"
                )

    def __len__(self) -> int:
        return len(self.query_ids)

    def __getitem__(self, key: slice) -> "Stream":
        if not isinstance(key, slice):
            raise TypeError("a Stream is indexed by slices; read one query from its columns")
        return Stream(
            self.query_ids[key],
            self.t[key],
            self.polarity[key],
            self.individuals,
            self.relevance[key],
        )

    @property
    def components(self) -> int:
        return self.polarity.shape[1]

    def columns(self, dataset: Dataset) -> np.ndarray:
        """The relevance column of each of ``dataset``'s individuals, in
        dataset order; raises CoverageError unless the stream ranks exactly
        the dataset's individuals."""
        ids, id_order = dataset.individuals, dataset.id_order
        if tuple(map(ids.__getitem__, id_order.tolist())) != self.individuals:
            missing = sorted(set(ids) - set(self.individuals))
            extra = sorted(set(self.individuals) - set(ids))
            raise CoverageError(
                f"query {self.query_ids[0]!r} covers a different individual set "
                f"(missing={missing[:5]}, extra={extra[:5]})"
            )
        columns = np.empty(len(ids), dtype=np.intp)
        columns[id_order] = np.arange(len(ids))
        return columns

    def relevance_in(self, dataset: Dataset) -> np.ndarray:
        """The relevance matrix with its columns in ``dataset`` order,
        read-only (the stored matrix itself when the dataset lists its ids
        sorted); raises CoverageError as ``columns`` does."""
        if dataset.individuals == self.individuals:
            return self.relevance
        return _read_only(self.relevance[:, self.columns(dataset)])


def ideal_order(id_order: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Positions of ``rel`` in relevance-descending order, ties broken by
    ascending identifier; ``id_order`` lists the positions by ascending
    identifier (``Dataset.id_order``). ``rel`` is finite, as ``Stream``
    checks.

    The negated values are taken in identifier order and sorted once by
    value (numpy's default, unstable kind). When no two adjacent sorted
    values compare equal, the row has exactly one sorted order, so the
    default-kind argsort returns it bit for bit. Otherwise a stable argsort
    keeps equal values in identifier order; ``0.0 == -0.0``, so a signed-zero
    pair counts as a tie and is ordered by identifier too.
    """
    neg = -rel[id_order]
    ranked = np.sort(neg)
    if (ranked[1:] == ranked[:-1]).any():
        return id_order[neg.argsort(kind="stable")]
    return id_order[neg.argsort()]


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


class Ledger:
    """Per-individual cumulative attention/relevance state over one stream.

    A ledger is bound to its ``Stream``: ``relevance`` is the stream's (T, n)
    relevance in dataset order and ``polarity`` its (T, P) polarity, both
    read-only and taken once. The ledger stores the attention each
    individual received, one (n,) row per processed query, and ``t``
    counts the processed queries; every reading covers the first ``t``
    queries. Both polarity modes are read from it (``aware`` weights query
    values by eta, ``agnostic`` by 1), as are the per-query values eta * x
    and the cumulative moments: the mean sums eta * x, and the variance
    sums eta^2 * x * (1 - x), the Poisson-binomial variance of the
    cumulative total.

    Single-writer: ``update`` appends the next query's attention. The
    package's unchecked writes are replay's bulk ``_fill`` and descent's
    ``_replace_attention``. All accessors are read-only and safe to call
    concurrently between writes. Two fields hold what is derived from the
    stored state, each built on its first read: ``_moments``, the (n, P)
    moment matrices per (channel, mode), and ``_cells``, the attention's
    head cells. ``update`` advances the built moments by the new query's
    terms and drops ``_cells``; ``_replace_attention`` keeps the relevance
    moments and drops the rest; ``_fill`` drops both.
    """

    def __init__(self, dataset: Dataset, stream: Stream):
        self.dataset = dataset
        self.relevance = stream.relevance_in(dataset)
        self.polarity = stream.polarity
        self.components = stream.components
        self.t = 0
        self._attention = np.empty(self.relevance.shape)
        self._moments: dict = {}
        self._cells = None

    def update(self, rows, attention: AttentionModel) -> None:
        """Record the next query's ranking: the individual at dataset
        position ``rows[j]`` took rank ``j+1``.

        Raises ValidationError, leaving ``t`` unchanged, unless ``rows`` is a
        permutation of the dataset positions and a query is left to record.
        Built moment matrices advance by the query's terms, written as the
        ``cumsum`` build adds them, so they stay bit-identical to a rebuild.
        """
        n = self.dataset.n
        if self.t == len(self._attention):
            raise ValidationError(f"ledger already holds all {self.t} queries of its stream")
        rows = np.asarray(rows)
        # n entries cover 0..n-1 unless one repeats or lies past n - 1
        if (
            rows.shape != (n,)
            or rows.dtype.kind not in "iu"
            or rows.min() < 0
            or not np.bincount(rows, minlength=n)[:n].all()
        ):
            raise ValidationError(
                f"query {self.t + 1}: ranking must list each of the {n} dataset positions once"
            )
        attn = attention.scatter(rows)
        self._attention[self.t] = attn
        self._cells = None
        for (channel, mode), (mean, var) in self._moments.items():
            x = (attn if channel == "attention" else self.relevance[self.t])[:, None]
            eta = self.polarity[self.t] if mode == "aware" else np.ones(self.components)
            mean += eta * x
            var += eta * eta * x * (1.0 - x)
        self.t += 1

    def _fill(self, orderings, attention: AttentionModel) -> None:
        """Store the attention of every query of the stream in one write,
        unchecked: row ``s`` of the (T, n) ``orderings`` lists step ``s``'s
        dataset positions by rank.

        The ledger must be empty. Its attention starts from zeros and only
        the head cells, the ranks with nonzero attention, are written. No
        moment is kept, so each comes from the ``cumsum`` build, as it would
        after the same queries were recorded one by one.
        """
        T, n = orderings.shape
        k = min(attention.cutoff, n)
        self._attention = np.zeros(self.relevance.shape)
        self._attention[np.arange(T)[:, None], orderings[:, :k]] = attention.weights(n)[:k]
        self.t = T
        self._moments = {}
        self._cells = None

    def _replace_attention(self, step0: int, values: np.ndarray) -> np.ndarray:
        """Store ``values`` as the attention of the 0-based step ``step0``,
        as if that query had been ranked differently; returns the row it
        replaces."""
        if not 0 <= step0 < self.t:
            raise ValidationError(f"step {step0} outside 0..{self.t - 1}")
        previous = self._attention[step0].copy()
        self._attention[step0] = values
        self._moments = {key: v for key, v in self._moments.items() if key[0] == "relevance"}
        self._cells = None
        return previous

    # -- read-only accessors -------------------------------------------------

    def stored(self, channel: str) -> np.ndarray:
        """The stored per-query attention or relevance, (t, n), read-only."""
        if channel == "attention":
            view = self._attention[: self.t]
        elif channel == "relevance":
            view = self.relevance[: self.t]
        else:
            raise ValidationError(f"unknown channel {channel!r}")
        view.flags.writeable = False
        return view

    def _polarity(self, mode: str) -> np.ndarray:
        if mode == "aware":
            return self.polarity[: self.t]
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

    def _head_cells(self):
        """The stored attention's nonzero (head) cells in arrival order, as
        the 0-based steps, the dataset rows and the values, (c,) each.

        Only ``k_att`` cells per query hold attention, so every whole-ledger
        reading of that channel works on these, kept in ``_cells``.
        """
        if self._cells is None:
            x = self.stored("attention")
            flat = np.flatnonzero(x != 0)
            self._cells = (*divmod(flat, x.shape[1]), x.reshape(-1)[flat])
        return self._cells

    def _moment_matrices(self, channel: str, mode: str):
        """The (n, P) moment matrices kept in ``_moments``, built as running
        totals over arrival order and then advanced by ``update``.

        Attention is summed over its head cells: ``bincount`` adds each
        bin's terms from 0.0 in arrival order, which is the running total
        of the whole column less its exact zeros, so bit for bit the same.
        """
        key = (channel, mode)
        if key not in self._moments:
            self._moments[key] = self._build_moments(channel, mode)
        return self._moments[key]

    def _build_moments(self, channel: str, mode: str):
        if channel == "attention":
            steps, rows, x = self._head_cells()
            n, P = self.dataset.n, self.components
            eta, x = self._polarity(mode)[steps], x[:, None]
            if not len(x):  # bincount of nothing counts in integers
                return np.zeros((n, P)), np.zeros((n, P))
            bins = ((rows * P)[:, None] + np.arange(P)).ravel()
            q = eta * eta * x * (1.0 - x)
            return tuple(
                np.bincount(bins, terms.ravel(), minlength=n * P).reshape(n, P)
                for terms in (eta * x, q)
            )
        x = self.stored(channel)[:, :, None]
        eta = self._polarity(mode)[:, None, :]
        q = np.multiply(eta * eta, x)
        q *= 1.0 - x
        return _accrued(eta * x), _accrued(q)


def _accrued(steps: np.ndarray) -> np.ndarray:
    """Sum over arrival order (axis 0) as a running total from 0.0 gives it.

    Over the rows of a C-ordered array of more than one column
    ``np.add.reduce`` adds row by row, as a running total does, without the
    (T, ...) ``cumsum`` array; over a single column, or with T innermost in
    memory, it adds in pairs, so a single column keeps ``cumsum``. ``+ 0.0``
    turns the -0.0 of an all-(-0.0) column into the 0.0 a running total
    ends on.
    """
    if not len(steps):
        return np.zeros(steps.shape[1:])
    if steps[0].size == 1:
        return steps.cumsum(axis=0)[-1] + 0.0
    return np.add.reduce(np.ascontiguousarray(steps), axis=0) + 0.0
