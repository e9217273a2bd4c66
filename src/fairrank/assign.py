"""Exact solvers for one query's constrained re-ranking subproblem.

All solvers work on a square K x K instance: rows are candidates, columns
are ranking positions 1..K. Position j carries a gain of
``relevance[i] / log2(j+1)`` (zero beyond an optional evaluation depth), and
a matching is quality-feasible when its total gain reaches ``theta_rho``
within the shared feasibility tolerance.

* ``bottleneck_with_quality``— minimize the maximum edge value subject to
  the quality constraint with a max-gain feasibility probe per threshold:
  first at the largest row or column minimum (no threshold below it leaves
  every row and column an edge), then, if that probe finds no
  quality-feasible matching, by binary search on the distinct edge values
  above it; ties at the optimal bottleneck break toward maximal gain;
* ``lexicographic_refine``   — greedily shrink the next-largest edge values
  while preserving the bottleneck and the quality constraint, deleting one
  row and one column of the current sub-problem per level;
* ``constrained_min_sum``    — minimize total cost subject to the quality
  constraint via Lagrangian bisection on the constraint multiplier; when the
  dual gap stays open, the K x K binary assignment MILP (HiGHS) proves the
  optimum;
* ``brute_force``            — K! enumeration oracle (K <= 8).
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

from .errors import FairRankError, ValidationError

FEASIBILITY_TOL = 1e-9

OBJECTIVES = ("minmax", "minsum", "lexmax")


@dataclass(frozen=True)
class MatchResult:
    """A solved matching: row -> column map, objective value, feasibility."""

    assignment: tuple[int, ...]
    objective: float
    feasible: bool

    @classmethod
    def infeasible(cls) -> "MatchResult":
        return cls((), math.nan, False)


def position_discounts(k: int, dcg_depth: int | None = None) -> np.ndarray:
    """1/log2(j+1) for positions j=1..k, zero beyond ``dcg_depth``."""
    disc = 1.0 / np.log2(np.arange(1, k + 1, dtype=np.float64) + 1.0)
    if dcg_depth is not None:
        disc[dcg_depth:] = 0.0
    return disc


def matching_values(matrix: np.ndarray, assignment) -> np.ndarray:
    cols = np.asarray(assignment)
    return matrix[np.arange(len(cols)), cols]


def _solve_lsa(costs: np.ndarray):
    """linear_sum_assignment with infeasibility returned as None."""
    try:
        rows, cols = linear_sum_assignment(costs)
    except ValueError:
        return None
    if not np.isfinite(costs[rows, cols]).all():
        return None
    return tuple(cols.tolist())


def _max_gain_matching(allowed: np.ndarray, gains: np.ndarray):
    """(assignment, total gain) of the max-gain perfect matching, or None."""
    costs = np.where(allowed, -gains, np.inf)
    cols = _solve_lsa(costs)
    if cols is None:
        return None
    return cols, float(matching_values(gains, cols).sum())


def _bottleneck_search(
    d: np.ndarray,
    gains: np.ndarray,
    theta_rho: float,
    cap: float = math.inf,
):
    """Minimal threshold z (<= cap) admitting a quality-feasible matching
    over edges d <= z. Returns (z, assignment, gain) or None.

    Below the largest row or column minimum some row or column has no edge,
    so no threshold there is feasible: that bound is probed first, and only
    when it admits no quality-feasible matching is the threshold
    binary-searched over the distinct values in (bound, cap].
    """
    bound = max(d.min(axis=1).max(), d.min(axis=0).max())
    if bound > cap:
        return None

    def probe(z):
        res = _max_gain_matching(d <= z, gains)
        if res is None:
            return None
        cols, gain = res
        if gain < theta_rho - FEASIBILITY_TOL:
            return None
        return cols, gain

    best = probe(bound)
    if best is None:
        values = np.unique(d)
        values = values[(values > bound) & (values <= cap)]
        if values.size == 0:
            return None
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


def bottleneck_with_quality(
    d, relevance, theta_rho: float, dcg_depth: int | None = None
) -> MatchResult:
    """Min-max edge value subject to DCG >= theta_rho; DCG breaks ties.

    Infeasible when even the unrestricted max-DCG matching misses the
    quality threshold.
    """
    d = np.asarray(d, dtype=np.float64)
    if not np.isfinite(d).all():
        raise ValidationError("bottleneck matrix must be finite everywhere")
    k = d.shape[0]
    relevance = np.asarray(relevance, dtype=np.float64)
    gains = relevance[:, None] * position_discounts(k, dcg_depth)[None, :]
    found = _bottleneck_search(d, gains, theta_rho)
    if found is None:
        return MatchResult.infeasible()
    z, cols, _ = found
    return MatchResult(cols, z, True)


def _sorted_desc(values: np.ndarray) -> tuple[float, ...]:
    return tuple(np.sort(values)[::-1])


def lexicographic_refine(
    d, relevance, theta_rho: float, base: MatchResult, dcg_depth: int | None = None
) -> MatchResult:
    """Greedy refinement of a bottleneck-optimal matching.

    Repeatedly fixes an edge realizing the current level's bottleneck value
    (choosing the one whose remaining subproblem has the smallest next
    bottleneck, the first in row-major order among equals) and re-solves the
    reduced problem, re-checking the quality constraint on the full matching
    each step. The bottleneck value is preserved exactly; falls back to
    ``base`` whenever refinement cannot strictly (lexicographically) match
    it. Each distinct reduced problem is searched once: interchangeable
    columns (e.g. the zero-attention, zero-gain tail) are tried once per
    level, and the chosen edge's sub-search becomes the next level. The
    sub-problem is carried from level to level: the value and gain matrices
    are built once, and each candidate's reduced pair is the current pair
    with one row and one column taken out.
    """
    if not base.feasible:
        return base
    d = np.asarray(d, dtype=np.float64)
    k = d.shape[0]
    relevance = np.asarray(relevance, dtype=np.float64)
    disc = position_discounts(k, dcg_depth)

    # the current level: original row and column indices, and its value and
    # gain matrices stacked as (2, m, m)
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
        edge_rows, edge_cols = np.nonzero(sub_d == z)  # row-major
        edges = list(zip(edge_rows.tolist(), edge_cols.tolist()))
        if len(edges) > 1:
            # a column equal to its left neighbour (values and gains) leaves
            # the same reduced problem as that neighbour, whose edge comes
            # first in row-major order and so wins every tie: try only the
            # first of a run (a lone edge never sits in such a column)
            twin = np.zeros(m, dtype=bool)
            twin[1:] = (sub[:, :, 1:] == sub[:, :, :-1]).all(axis=(0, 1))
            edges = [(il, jl) for il, jl in edges if not twin[jl]]
        # without[i]: the indices 0..m-1 other than i
        idx = np.arange(m - 1)
        without = idx + (idx[None, :] >= np.arange(m)[:, None])
        best = None
        best_next = math.inf
        for il, jl in edges:
            gain2 = fixed_gain + sub_gains[il, jl]
            if m == 1:
                if gain2 < theta_rho - FEASIBILITY_TOL:
                    continue
                z_next, reduced = -math.inf, None
            else:
                reduced = sub.take(without[il], axis=1).take(without[jl], axis=2)
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
        # the winner's sub-search is the next level's search
        z = best_next

    assignment = tuple(assignment)
    refined_vec = _sorted_desc(matching_values(d, assignment))
    base_vec = _sorted_desc(matching_values(d, base.assignment))
    if refined_vec > base_vec:
        return base
    return MatchResult(assignment, float(refined_vec[0]), True)


def constrained_min_sum(
    costs,
    relevance,
    theta_rho: float,
    dcg_depth: int | None = None,
) -> MatchResult:
    """Minimum-total-cost matching subject to DCG >= theta_rho.

    Lagrangian bisection on the quality multiplier solves a sequence of
    plain assignment problems; if the dual bound does not certify the best
    feasible solution, the binary assignment MILP with the DCG row is solved
    to a proven optimum (``_min_sum_milp``). Every feasible answer is
    optimal; a solver that cannot prove it raises FairRankError.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if not np.isfinite(costs).all():
        raise ValidationError("cost matrix must be finite everywhere")
    k = costs.shape[0]
    relevance = np.asarray(relevance, dtype=np.float64)
    gains = relevance[:, None] * position_discounts(k, dcg_depth)[None, :]

    def gain_of(cols):
        return float(matching_values(gains, cols).sum())

    def cost_of(cols):
        return float(matching_values(costs, cols).sum())

    base = _solve_lsa(costs)
    if gain_of(base) >= theta_rho - FEASIBILITY_TOL:
        return MatchResult(base, cost_of(base), True)

    top = _solve_lsa(-gains)
    if gain_of(top) < theta_rho - FEASIBILITY_TOL:
        return MatchResult.infeasible()

    best_cols = top
    best_cost = cost_of(top)
    lower_bound = -math.inf

    def dual(lam):
        nonlocal best_cols, best_cost, lower_bound
        cols = _solve_lsa(costs - lam * gains)
        g = gain_of(cols)
        lower_bound = max(lower_bound, cost_of(cols) - lam * (g - theta_rho))
        feas = g >= theta_rho - FEASIBILITY_TOL
        if feas and cost_of(cols) < best_cost:
            best_cols, best_cost = cols, cost_of(cols)
        return feas

    lo, hi = 0.0, 1.0
    for _ in range(60):
        if dual(hi):
            break
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dual(mid):
            hi = mid
        else:
            lo = mid

    if best_cost <= lower_bound + FEASIBILITY_TOL:
        return MatchResult(best_cols, best_cost, True)
    cols = _min_sum_milp(costs, gains, theta_rho)
    if gain_of(cols) < theta_rho - FEASIBILITY_TOL:
        raise FairRankError("min-sum MILP returned a matching below the quality floor")
    return MatchResult(cols, cost_of(cols), True)


def _min_sum_milp(costs: np.ndarray, gains: np.ndarray, theta_rho: float):
    """Min-cost permutation with total gain >= theta_rho, proven by HiGHS.

    Binary x[i, j] (row-major) with one equality row per candidate and per
    position and the DCG row; costs are divided by their largest magnitude
    so HiGHS's absolute gap tolerance is relative to the instance. Raises
    FairRankError unless HiGHS reports a proven optimum.
    """
    k = costs.shape[0]
    ones, eye = np.ones((1, k)), sparse.identity(k)
    assign_rows = sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)])
    res = milp(
        costs.ravel() / (np.abs(costs).max() or 1.0),
        integrality=np.ones(k * k),
        bounds=Bounds(0.0, 1.0),
        constraints=[
            LinearConstraint(assign_rows, 1.0, 1.0),
            LinearConstraint(gains.reshape(1, -1), theta_rho - FEASIBILITY_TOL, np.inf),
        ],
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise FairRankError(f"min-sum MILP did not prove an optimum: {res.message}")
    return tuple(res.x.reshape(k, k).argmax(axis=1).tolist())


@lru_cache(maxsize=8)
def _all_permutations(k: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(k))), dtype=np.intp)


def brute_force(
    objective: str,
    d_or_costs,
    relevance,
    theta_rho: float,
    dcg_depth: int | None = None,
) -> MatchResult:
    """Exact optimum by enumerating all K! matchings (oracle; K <= 8)."""
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    matrix = np.asarray(d_or_costs, dtype=np.float64)
    k = matrix.shape[0]
    if k > 8:
        raise ValidationError(f"brute_force enumerates K! matchings; K={k} exceeds 8")
    relevance = np.asarray(relevance, dtype=np.float64)
    gains = relevance[:, None] * position_discounts(k, dcg_depth)[None, :]

    perms = _all_permutations(k)  # (M, K): row i -> column perms[m, i]
    rows = np.arange(k)[None, :]
    vals = matrix[rows, perms]  # (M, K)
    dcg = gains[rows, perms].sum(axis=1)
    feasible = (dcg >= theta_rho - FEASIBILITY_TOL) & np.isfinite(vals).all(axis=1)
    if not feasible.any():
        return MatchResult.infeasible()

    idx = np.flatnonzero(feasible)
    fvals = vals[idx]
    fdcg = dcg[idx]
    if objective == "minmax":
        keys = (-fdcg, fvals.max(axis=1))
        order = np.lexsort(keys)
        best = idx[order[0]]
        value = float(vals[best].max())
    elif objective == "minsum":
        keys = (-fdcg, fvals.sum(axis=1))
        order = np.lexsort(keys)
        best = idx[order[0]]
        value = float(vals[best].sum())
    else:  # lexmax: lexicographically smallest sorted-descending value vector
        sv = -np.sort(-fvals, axis=1)  # (F, K) descending
        keys = tuple([-fdcg] + [sv[:, c] for c in range(k - 1, -1, -1)])
        order = np.lexsort(keys)
        best = idx[order[0]]
        value = float(vals[best].max())
    return MatchResult(tuple(int(c) for c in perms[best]), value, True)
