"""Shared oracles for tests: enumeration references for the engines and
per-cell (one individual, one position) references for the ledger, the
divergence kernel and the assignment solvers."""

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairrank.assign import (
    FEASIBILITY_TOL,
    MatchResult,
    _bottleneck_search,
    _solve_lsa,
    _sorted_desc,
    matching_values,
    position_discounts,
)
from fairrank.core import AttentionModel, Dataset, Ledger, Stream, _accrued, _fsum
from fairrank.divergence import DivergenceKind, _component_values, _query_eta, d_multi
from fairrank.errors import (
    CoverageError,
    EmptyScopeError,
    LengthMismatchError,
    ParseError,
    StreamOrderError,
    ValidationError,
)
from fairrank.io import EXACT_SUM_TOL, STREAM_SUM_TOL, _check_raw, _number_types, _parse_line
from fairrank.metrics import iaa, individual_unfairness


class Track:
    """Running moments plus append-only per-query value sequences: the
    running-sum reference for ``fairrank.core.Ledger``'s columnar store.

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


def stream_of(relevance, polarity=None, t=None, query_ids=None) -> Stream:
    """A ``Stream`` of per-query relevance dicts over one individual set.

    Polarity defaults to ``(1.0,)`` per query, timesteps to 1, 2, ... and
    query ids to ``q1``, ``q2``, ...; a dict missing an id of the first
    raises KeyError.
    """
    T = len(relevance)
    ids = tuple(sorted(relevance[0]))
    return Stream(
        [f"q{s}" for s in range(1, T + 1)] if query_ids is None else query_ids,
        list(range(1, T + 1)) if t is None else t,
        [(1.0,)] * T if polarity is None else polarity,
        ids,
        [[rel[i] for i in ids] for rel in relevance],
    )


def rows_of(dataset, ordering) -> list[int]:
    """The dataset rows of an ordering of ids."""
    return [dataset.index[i] for i in ordering]


def relevance_dicts(stream: Stream) -> list[dict[str, float]]:
    """Each query's relevance as a dict keyed by id."""
    return [dict(zip(stream.individuals, row)) for row in stream.relevance.tolist()]


def dcg_oracle(ordering, relevance: dict[str, float], k: int) -> float:
    """Position-discounted relevance sum over the top ``k`` ids of ``ordering``."""
    return float(sum(relevance[i] / math.log2(j + 2) for j, i in enumerate(ordering[:k])))


def query_columns(ledger: Ledger, candidates):
    """``divergence_matrix``'s rows, relevance and polarity arguments for
    candidate ids of the ledger's next query."""
    rows = [ledger.dataset.index[c] for c in candidates]
    return rows, ledger.relevance[ledger.t, rows], ledger.polarity[ledger.t]


def ideal_ranking_oracle(relevance: dict[str, float]) -> tuple[str, ...]:
    """Relevance-descending ordering of a relevance dict's ids; ties broken
    by ascending identifier.

    Sorts the identifiers, then stably by relevance (``reverse=True`` keeps
    equal keys in their ascending-identifier order).
    """
    return tuple(sorted(sorted(relevance), key=relevance.__getitem__, reverse=True))


def ideal_order_oracle(id_order: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """``core.ideal_order`` as one stable argsort of every row: the negated
    values taken in identifier order keep equal values (0.0 and -0.0
    included) in that order."""
    return id_order[np.argsort(-rel[id_order], kind="stable")]


def running_total(steps: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by ``cumsum``, a running total from 0.0 (so an
    all-(-0.0) column ends on 0.0): the reference for
    ``fairrank.core._accrued``."""
    if not len(steps):
        return np.zeros(steps.shape[1:])
    return steps.cumsum(axis=0)[-1] + 0.0


def moments_at_oracle(ledger: Ledger, rows, channel: str, mode: str = "agnostic"):
    """Cumulative (mean, variance), (k, P), of the individuals at dataset
    positions ``rows``, summed afresh from the ledger's store by ``cumsum``."""
    x = ledger.stored(channel)[:, rows, None]
    eta = ledger._polarity(mode)[:, None, :]
    return running_total(eta * x), running_total(eta * eta * x * (1.0 - x))


def dense_moment_matrices(ledger: Ledger, channel: str, mode: str):
    """The (n, P) moment matrices summed over every stored cell, zeros
    included: the dense reference for ``Ledger._moment_matrices``, whose
    attention build reads the head cells only."""
    x = ledger.stored(channel)[:, :, None]
    eta = ledger._polarity(mode)[:, None, :]
    return _accrued(eta * x), _accrued(eta * eta * x * (1.0 - x))


def dense_read(ledger: Ledger, channel: str, mode: str, dataset: Dataset):
    """The dense pass over a (channel, mode): the reference for
    ``fairrank.metrics._read``, whose attention pass reads the head cells.

    Returns the moment matrices, the C-ordered (n, T, P) values eta * x
    sorted along T, and each group's (size, mean, variance, (T, P)
    per-query average).
    """
    mean, var = dense_moment_matrices(ledger, channel, mode)
    x = ledger.stored(channel)
    eta = ledger._polarity(mode)
    if mode == "aware":
        values = np.multiply(x.T[:, :, None], eta[None, :, :], order="C")
    else:
        # the agnostic eta is all ones: the copy is the product, exactly
        values = np.empty((x.shape[1], x.shape[0], eta.shape[1]))
        values[...] = x.T[:, :, None]
    groups = {}
    for group, rows in dataset.group_rows.items():
        m = len(rows)
        groups[group] = (
            m,
            mean[rows].sum(axis=0) / m,
            var[rows].sum(axis=0) / (m * m),
            values[rows].sum(axis=0) / m,
        )
    values.sort(axis=1)
    return mean, var, values, groups


def dense_w1(attention_ordered: np.ndarray, relevance_ordered: np.ndarray) -> np.ndarray:
    """Component-summed W1 of every individual from the two dense sorted
    (n, T, P) value arrays of ``dense_read``."""
    gaps = attention_ordered - relevance_ordered
    np.abs(gaps, out=gaps)
    # with no query the (n, 0, P) gaps sum to W1 = 0
    comps = np.mean(gaps, axis=1) if gaps.shape[1] else gaps.sum(axis=1)
    return sum(comps.T)


def sequence_std(
    ledger: Ledger, individual: str, channel: str, mode: str = "agnostic"
) -> np.ndarray:
    """Population standard deviation of the per-query value sequence.

    This is the alternate reading of the spread statistic: dispersion of
    the per-query expected values rather than the Poisson-binomial
    deviation of the cumulative sum kept in ``moments``.
    """
    return ledger.sequence(individual, channel, mode).std(axis=0, ddof=0)


@dataclass(frozen=True)
class DistSummary:
    """Summary of one cumulative distribution: mean, std, sorted sequence."""

    mean: float
    std: float
    seq: np.ndarray

    def __post_init__(self):
        if self.std < 0:
            raise ValidationError(f"standard deviation must be >= 0, got {self.std}")
        object.__setattr__(self, "seq", np.sort(np.asarray(self.seq, dtype=np.float64)))

    @classmethod
    def from_ledger(
        cls,
        ledger: Ledger,
        individual: str,
        channel: str,
        mode: str = "agnostic",
        component: int = 0,
    ) -> "DistSummary":
        mean, var = ledger.moments(individual, channel, mode)
        seq = ledger.sequence(individual, channel, mode)[:, component]
        return cls(float(mean[component]), float(np.sqrt(var[component])), seq)


def d_l1(attn: DistSummary, rel: DistSummary) -> float:
    return abs(attn.mean - rel.mean)


def d_l2var(attn: DistSummary, rel: DistSummary) -> float:
    return (attn.mean - rel.mean) ** 2 + (attn.std - rel.std) ** 2


def d_w1(attn_seq, rel_seq) -> float:
    """Mean absolute difference of aligned order statistics.

    Equals the optimal-transport cost between the two equal-weight empirical
    measures (sequences are sorted before alignment).
    """
    a = np.sort(np.asarray(attn_seq, dtype=np.float64))
    r = np.sort(np.asarray(rel_seq, dtype=np.float64))
    if a.shape != r.shape:
        raise LengthMismatchError(
            f"sequence lengths differ: {a.shape[0]} vs {r.shape[0]}"
        )
    if a.size == 0:
        raise LengthMismatchError("W1 needs at least one observation per sequence")
    return float(np.mean(np.abs(a - r)))


def ledger_divergence(
    ledger: Ledger, individual: str, kind: DivergenceKind, mode: str = "agnostic"
) -> float:
    """Current-horizon divergence D(A_i, R_i), summed over polarity components."""
    mean_a, var_a = ledger.moments(individual, "attention", mode)
    mean_r, var_r = ledger.moments(individual, "relevance", mode)
    seq_a = seq_r = None
    if kind == DivergenceKind.W1:
        seq_a = ledger.sequence(individual, "attention", mode)
        seq_r = ledger.sequence(individual, "relevance", mode)
    return d_multi(_component_values(kind, mean_a, var_a, seq_a, mean_r, var_r, seq_r))


def prospective_divergence(
    ledger: Ledger,
    individual: str,
    position: int,
    attention: AttentionModel,
    kind: DivergenceKind,
    mode: str = "aware",
) -> float:
    """Divergence the individual would hold after taking ``position`` in
    the ledger's next query.

    Evaluates D(A_i, R_i) on a hypothetical ledger extended by that query,
    with the individual's attention taken from the given position and its
    (assignment-independent) relevance accrued as well. The ledger itself is
    not modified.
    """
    n = ledger.dataset.n
    if not 1 <= position <= n:
        raise ValidationError(f"position {position} outside 1..{n}")
    eta = _query_eta(ledger.polarity[ledger.t], ledger.components, mode)
    w = attention.weights(n)[position - 1]
    r = ledger.relevance[ledger.t, ledger.dataset.index[individual]]

    mean_a, var_a = ledger.moments(individual, "attention", mode)
    mean_r, var_r = ledger.moments(individual, "relevance", mode)
    mean_a = mean_a + eta * w
    var_a = var_a + eta * eta * w * (1.0 - w)
    mean_r = mean_r + eta * r
    var_r = var_r + eta * eta * r * (1.0 - r)

    seq_a = seq_r = None
    if kind == DivergenceKind.W1:
        seq_a = np.vstack([ledger.sequence(individual, "attention", mode), eta * w])
        seq_r = np.vstack([ledger.sequence(individual, "relevance", mode), eta * r])
    return d_multi(_component_values(kind, mean_a, var_a, seq_a, mean_r, var_r, seq_r))


def hungarian_min_cost(costs) -> MatchResult:
    """Minimum-total-cost perfect matching; ``inf`` entries are forbidden."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1] or costs.shape[0] < 1:
        raise ValidationError(f"cost matrix must be square and non-empty, got {costs.shape}")
    if np.isnan(costs).any():
        raise ValidationError("cost matrix contains NaN")
    cols = _solve_lsa(costs)
    if cols is None:
        return MatchResult.infeasible()
    return MatchResult(cols, float(matching_values(costs, cols).sum()), True)


def max_gain_matching(allowed: np.ndarray, gains: np.ndarray):
    """(assignment, total gain) of the max-gain perfect matching, or None."""
    costs = np.where(allowed, -gains, np.inf)
    cols = _solve_lsa(costs)
    if cols is None:
        return None
    return cols, float(matching_values(gains, cols).sum())


def max_dcg_matching(
    allowed, relevance, dcg_depth: int | None = None
) -> MatchResult:
    """Perfect matching over allowed edges maximizing the DCG gain."""
    allowed = np.asarray(allowed, dtype=bool)
    relevance = np.asarray(relevance, dtype=np.float64)
    k = allowed.shape[0]
    gains = relevance[:, None] * position_discounts(k, dcg_depth)[None, :]
    res = max_gain_matching(allowed, gains)
    if res is None:
        return MatchResult.infeasible()
    cols, gain = res
    return MatchResult(cols, gain, True)


def final_objective(ledger, config) -> float:
    if config.objective == "minsum":
        return iaa(ledger, config.polarity_mode)
    return individual_unfairness(ledger, config.kind, config.polarity_mode)


def joint_offline_oracle(dataset, stream, config) -> float:
    """Exact end-of-stream optimum by enumerating every per-step ordering.

    Walks the full cartesian product of quality-feasible head permutations
    (one set per query) and evaluates the final-horizon objective on a
    replayed ledger; independent of the production solvers.
    """
    attention = AttentionModel(config.k_att)
    per_step = []
    for relevance in relevance_dicts(stream):
        ideal = ideal_ranking_oracle(relevance)
        candidates, tail = ideal[: config.k_re], ideal[config.k_re :]
        theta_rho = config.theta * dcg_oracle(ideal, relevance, config.k_eval)
        options = [
            rows_of(dataset, perm + tail)
            for perm in itertools.permutations(candidates)
            if dcg_oracle(perm + tail, relevance, config.k_eval)
            >= theta_rho - FEASIBILITY_TOL
        ]
        per_step.append(options)
    best = math.inf
    for combo in itertools.product(*per_step):
        ledger = Ledger(dataset, stream)
        for rows in combo:
            ledger.update(rows, attention)
        best = min(best, final_objective(ledger, config))
    return best


def final_w1_matrix_oracle(ledger, step0, candidates, mode, attention):
    """Per-cell final-horizon W1: delete step ``step0``, insert, sort, compare.

    Entry [i, j] rebuilds candidate ``i``'s attention sequence with its
    ``step0`` entry replaced by the value of position ``j+1`` and takes the
    mean absolute gap of the sorted sequences, summed over components.
    """
    K = len(candidates)
    w_new = attention.weights(ledger.dataset.n)[:K]
    eta = _query_eta(ledger.polarity[step0], ledger.components, mode)
    rows = [ledger.dataset.index[c] for c in candidates]
    seq_a = ledger.sequences("attention", mode)[:, rows, :]
    seq_r = ledger.sequences("relevance", mode)[:, rows, :]
    d = np.zeros((K, K))
    for i in range(K):
        rel_sorted = np.sort(seq_r[:, i, :], axis=0)
        base = np.delete(seq_a[:, i, :], step0, axis=0)
        for j in range(K):
            seq = np.sort(np.vstack([base, eta * w_new[j]]), axis=0)
            d[i, j] = float(np.mean(np.abs(seq - rel_sorted), axis=0).sum())
    return d


def w1_insert_matrix_oracle(base, rel_sorted, values) -> np.ndarray:
    """The searchsorted reference for ``fairrank.divergence.w1_insert_matrix``:
    the same closed form with one ``np.searchsorted`` per candidate and
    component and every position computed, bit-identical to the kernel."""
    m, K, P = base.shape
    zeros = np.zeros((1, K, P))
    prefix = np.concatenate([zeros, np.cumsum(np.abs(base - rel_sorted[:-1]), axis=0)])
    after = np.abs(base - rel_sorted[1:])[::-1]
    suffix = np.concatenate([np.cumsum(after, axis=0)[::-1], zeros])
    # (K cand, P, K pos) insertion ranks; searchsorted keeps memory at O(K^2 P)
    s = np.empty((K, P, values.shape[0]), dtype=np.intp)
    for i in range(K):
        for p in range(P):
            s[i, p] = np.searchsorted(base[:, i, p], values[:, p], side="left")

    def at_rank(x):
        return np.take_along_axis(x.transpose(1, 2, 0), s, axis=2)

    gap = np.abs(values.T[None, :, :] - at_rank(rel_sorted))
    return ((at_rank(prefix) + gap + at_rank(suffix)) / (m + 1)).sum(axis=1)


def bottleneck_search_oracle(
    d: np.ndarray,
    gains: np.ndarray,
    theta_rho: float,
    cap: float = math.inf,
):
    """Minimal threshold z (<= cap) admitting a quality-feasible matching
    over edges d <= z. Returns (z, assignment, gain) or None.

    Binary search over every distinct edge value up to ``cap``: the
    reference for ``fairrank.assign._bottleneck_search``.
    """
    values = np.unique(d)
    values = values[values <= cap]
    if values.size == 0:
        return None

    def probe(z):
        res = max_gain_matching(d <= z, gains)
        if res is None:
            return None
        cols, gain = res
        if gain < theta_rho - FEASIBILITY_TOL:
            return None
        return cols, gain

    hi = values.size - 1
    best = probe(values[hi])
    if best is None:
        return None
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probed = probe(values[mid])
        if probed is None:
            lo = mid + 1
        else:
            hi = mid
            best = probed
    cols, gain = best
    z = float(matching_values(d, cols).max())
    return z, cols, gain


def lexicographic_refine_oracle(
    d, relevance, theta_rho: float, base: MatchResult, dcg_depth: int | None = None
) -> MatchResult:
    """Per-candidate lexicographic refinement, the reference for
    ``fairrank.assign.lexicographic_refine``.

    Scans all K² cells for the edges realizing each level's bottleneck value,
    runs a full bottleneck search for every one of them, and searches the
    chosen edge's reduced problem again as the next level. Falls back to
    ``base`` under the same conditions as the solver.
    """
    if not base.feasible:
        return base
    d = np.asarray(d, dtype=np.float64)
    k = d.shape[0]
    relevance = np.asarray(relevance, dtype=np.float64)
    disc = position_discounts(k, dcg_depth)

    rows = list(range(k))
    cols = list(range(k))
    fixed: dict[int, int] = {}
    fixed_gain = 0.0
    cap = math.inf

    def reduced(rs, cs, gain_so_far, level_cap):
        sub_d = d[np.ix_(rs, cs)]
        sub_gains = relevance[rs][:, None] * disc[cs][None, :]
        return bottleneck_search_oracle(
            sub_d, sub_gains, theta_rho - gain_so_far, level_cap
        )

    while rows:
        level = reduced(rows, cols, fixed_gain, cap)
        if level is None:
            return base
        z = level[0]
        # candidate edges realizing z, in row-major order
        cands = [
            (il, jl)
            for il in range(len(rows))
            for jl in range(len(cols))
            if d[rows[il], cols[jl]] == z
        ]
        best_edge = None
        best_next = math.inf
        for il, jl in cands:
            gain2 = fixed_gain + relevance[rows[il]] * disc[cols[jl]]
            rows2 = rows[:il] + rows[il + 1 :]
            cols2 = cols[:jl] + cols[jl + 1 :]
            if not rows2:
                if gain2 >= theta_rho - FEASIBILITY_TOL:
                    z_next = -math.inf
                else:
                    continue
            else:
                sub = reduced(rows2, cols2, gain2, z)
                if sub is None:
                    continue
                z_next = sub[0]
            if z_next < best_next:
                best_next = z_next
                best_edge = (il, jl)
        if best_edge is None:
            return base
        il, jl = best_edge
        fixed[rows[il]] = cols[jl]
        fixed_gain += relevance[rows[il]] * disc[cols[jl]]
        del rows[il], cols[jl]
        cap = z

    assignment = tuple(fixed[i] for i in range(k))
    refined_vec = _sorted_desc(matching_values(d, assignment))
    base_vec = _sorted_desc(matching_values(d, base.assignment))
    if refined_vec > base_vec:
        return base
    return MatchResult(assignment, float(refined_vec[0]), True)


def lexicographic_refine_dense(
    d, relevance, theta_rho: float, base: MatchResult, dcg_depth: int | None = None
) -> MatchResult:
    """Level-by-level lexicographic refinement on the dense sub-problem: the
    reference for ``fairrank.assign._refine``'s level loop.

    Every level scans its whole value matrix for the edges at the level
    value, tries the first of each run of columns equal over the live rows,
    and runs a full bottleneck search on every candidate's reduced problem,
    carried from level to level as the current value and gain matrices
    with one row and one column taken out. A zero-gain tail of columns equal
    in values closes by one stable sort of the rows, as in the solver.
    """
    if not base.feasible:
        return base
    d = np.asarray(d, dtype=np.float64)
    k = d.shape[0]
    relevance = np.asarray(relevance, dtype=np.float64)
    disc = position_discounts(k, dcg_depth)

    rows = list(range(k))
    cols = list(range(k))
    sub = np.stack([d, relevance[:, None] * disc[None, :]])
    level = _bottleneck_search(sub[0], sub[1], theta_rho)
    if level is None:
        return base
    z = level[0]
    fixed_gain = 0.0
    assignment = [0] * k
    while rows:
        m = len(rows)
        sub_d, sub_gains = sub
        if (
            not sub_gains.any()
            and (sub_d == sub_d[:, :1]).all()
            and not (m > 1 and 0.0 < (theta_rho - fixed_gain) - FEASIBILITY_TOL)
            and not (fixed_gain + 0.0 < theta_rho - FEASIBILITY_TOL)
        ):
            for il, col in zip(np.argsort(-sub_d[:, 0], kind="stable").tolist(), cols):
                assignment[rows[il]] = col
            break
        edge_rows, edge_cols = np.nonzero(sub_d == z)  # row-major
        edges = list(zip(edge_rows.tolist(), edge_cols.tolist()))
        if len(edges) > 1:
            twin = np.zeros(m, dtype=bool)
            twin[1:] = (sub[:, :, 1:] == sub[:, :, :-1]).all(axis=(0, 1))
            edges = [(il, jl) for il, jl in edges if not twin[jl]]
        best = None
        best_next = math.inf
        for il, jl in edges:
            gain2 = fixed_gain + sub_gains[il, jl]
            if m == 1:
                if gain2 < theta_rho - FEASIBILITY_TOL:
                    continue
                z_next, reduced = -math.inf, None
            else:
                reduced = np.delete(np.delete(sub, il, axis=1), jl, axis=2)
                found = _bottleneck_search(reduced[0], reduced[1], theta_rho - gain2, z)
                if found is None:
                    continue
                z_next = found[0]
            if z_next < best_next:
                best_next = z_next
                best = (il, jl, gain2, reduced)
        if best is None:
            return base
        il, jl, fixed_gain, sub = best
        assignment[rows[il]] = cols[jl]
        del rows[il], cols[jl]
        z = best_next

    assignment = tuple(assignment)
    refined_vec = _sorted_desc(matching_values(d, assignment))
    base_vec = _sorted_desc(matching_values(d, base.assignment))
    if refined_vec > base_vec:
        return base
    return MatchResult(assignment, float(refined_vec[0]), True)


def individual_divergences_oracle(
    ledger: Ledger,
    kind: DivergenceKind,
    mode: str = "agnostic",
    scope=None,
) -> dict[str, float]:
    """Per-individual divergences, one ``d_multi`` call each: the reference
    for ``fairrank.metrics.individual_divergences``."""
    individuals = ledger.dataset.individuals if scope is None else tuple(scope)
    if not individuals:
        raise EmptyScopeError("no individuals in scope")
    rows = [ledger.dataset.index[i] for i in individuals]
    mean_a = ledger.mean_matrix("attention", mode)[rows]
    var_a = ledger.var_matrix("attention", mode)[rows]
    mean_r = ledger.mean_matrix("relevance", mode)[rows]
    var_r = ledger.var_matrix("relevance", mode)[rows]
    if kind == DivergenceKind.W1:
        seq_a = ledger.sequences("attention", mode)[:, rows, :]
        seq_r = ledger.sequences("relevance", mode)[:, rows, :]
        values = {}
        for pos, ind in enumerate(individuals):
            comps = _component_values(
                kind,
                mean_a[pos],
                var_a[pos],
                seq_a[:, pos, :],
                mean_r[pos],
                var_r[pos],
                seq_r[:, pos, :],
            )
            values[ind] = d_multi(comps)
        return values
    values = {}
    for pos, ind in enumerate(individuals):
        comps = _component_values(
            kind, mean_a[pos], var_a[pos], None, mean_r[pos], var_r[pos], None
        )
        values[ind] = d_multi(comps)
    return values


def load_stream_oracle(path, raw: bool = False) -> tuple[tuple[str, ...], Stream]:
    """``fairrank.io.load_stream`` as it was with the stdlib parser alone,
    kept as the reference the orjson loader must match line for line.

    Parse and validate a stream file.

    Returns the inferred individual set (sorted) and the ``Stream``: every
    line's values are gathered into one list, in the first line's key order,
    and converted to the relevance matrix once. Raises ParseError (with line
    number, also for a query id that is not a string or repeats and, in raw
    mode, for a negative score or a sum that is zero or not finite),
    StreamOrderError, ValidationError, CoverageError when queries rank
    different individual sets, or LengthMismatchError when their polarity
    vectors differ in length.
    """
    path = Path(path)
    query_ids, ts, polarity = [], [], []
    values_flat: list = []  # every line's values, one row after another
    rescale: list[tuple[int, float]] = []  # (row, sum) of rows to renormalize
    order = keys = components = None
    seen_ids: set[str] = set()
    prev_t = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
            query_id, t, eta, values = _parse_line(record, lineno)
            if t < 1:
                raise ValidationError(f"line {lineno}: timestep must be >= 1, got {t}")
            if query_id in seen_ids:
                raise ParseError(f"duplicate query_id {query_id!r}", lineno)
            seen_ids.add(query_id)
            if t <= prev_t:
                raise StreamOrderError(f"line {lineno}: timestep {t} not greater than {prev_t}")
            prev_t = t
            # rows hold the first line's key order; the columns are sorted once
            # at the end, and a line listing its keys in that order is read as is
            line_order = tuple(values)
            if order is None:
                order, keys, components = line_order, values.keys(), len(eta)
            same_order = line_order == order
            if not same_order and values.keys() != keys:
                raise CoverageError(
                    f"line {lineno}: query {query_id!r} ranks a different "
                    "individual set than earlier queries"
                )
            if len(eta) != components:
                raise LengthMismatchError(
                    f"line {lineno}: query {query_id!r} has {len(eta)} polarity "
                    f"component(s), expected {components}"
                )
            _number_types(values.values(), "relevance", lineno)
            values_flat.extend(values.values() if same_order else map(values.__getitem__, order))
            total = _fsum(values.values())
            if raw:
                _check_raw(values, total, lineno)
            if abs(total - 1.0) > STREAM_SUM_TOL:
                if not raw:
                    raise ValidationError(
                        f"line {lineno}: relevance sums to {total!r}; "
                        "not normalized within 1e-6 (use raw mode to renormalize)"
                    )
                warnings.warn(
                    f"stream line {lineno}: renormalizing raw relevance (sum {total!r})",
                    stacklevel=2,
                )
                rescale.append((len(query_ids), total))
            elif abs(total - 1.0) > EXACT_SUM_TOL:
                # inside the file tolerance but outside the in-memory one
                rescale.append((len(query_ids), total))
            query_ids.append(query_id)
            ts.append(t)
            polarity.append(eta)
    if not query_ids:
        raise ValidationError(f"stream file {path} contains no queries")
    individuals = tuple(sorted(order))
    # a value past the float range has already failed its line's sum check
    relevance = np.array(values_flat, dtype=np.float64).reshape(len(query_ids), -1)
    for row, total in rescale:
        relevance[row] /= total
    if individuals != order:
        relevance = relevance[:, sorted(range(len(order)), key=order.__getitem__)]
    return individuals, Stream(query_ids, ts, polarity, individuals, relevance)
