"""Exact solvers for one query's constrained re-ranking subproblem.

All solvers work on a square K x K instance: rows are candidates, columns
are ranking positions 1..K. Position j carries a gain of
``relevance[i] / log2(j+1)`` (zero beyond an optional evaluation depth), and
a matching is quality-feasible when its total gain reaches ``theta_rho``
within the shared feasibility tolerance. Every solver checks its input
first: the matrix square and finite (the enumeration oracle reads +inf as a
forbidden edge), the relevance K finite, non-negative values; anything else
raises ValidationError.

* ``bottleneck_with_quality``— minimize the maximum edge value subject to
  the quality constraint with a max-gain feasibility probe (one assignment
  solve) per threshold: first at the largest row or column minimum (no
  threshold below it leaves every row and column an edge), then, if that
  probe finds no quality-feasible matching, by binary search on the
  distinct edge values above it; ties at the optimal bottleneck break
  toward maximal gain;
* ``lexicographic_refine``   — greedily shrink the next-largest edge values
  while preserving the bottleneck and the quality constraint, fixing one
  row and one column per level. A level whose value sits in one cell
  (counting interchangeable columns once) is settled from the matching the
  last search returned: with that cell taken out it is a matching of the
  reduced problem, and when its largest edge meets the reduced problem's
  row/column bound and its gain clears the floor beyond rounding error, that
  bound is the level's threshold with no assignment solve; otherwise its
  largest edge caps the search. Once per refinement, one solve first swaps
  that matching for a certified one nearer the lexicographic optimum (min
  sum of squared value ratios). A tail of interchangeable zero-gain
  columns closes with one sort;
* ``constrained_min_sum``    — minimize total cost subject to the quality
  constraint: the cost-optimal matching when it meets the floor, infeasible
  when the max-gain matching misses it, and otherwise one binary MILP
  (HiGHS) over rows x column classes that proves the optimum;
* ``brute_force``            — K! enumeration oracle (K <= 8).
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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


def _checked(matrix, relevance, allow_inf: bool = False):
    """The solvers' shared input check: ``matrix`` as a finite, non-empty
    K x K float array (with ``allow_inf``, +inf cells stay as forbidden
    edges) and ``relevance`` as K finite, non-negative floats."""
    try:
        matrix = np.asarray(matrix, dtype=np.float64)
        relevance = np.asarray(relevance, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"solver input is not numeric: {exc}") from None
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ValidationError(f"matrix must be square and non-empty, got shape {matrix.shape}")
    if allow_inf:
        if np.isnan(matrix).any() or matrix.min() == -np.inf:
            raise ValidationError("matrix must hold no NaN or -inf")
    elif not (-np.inf < matrix.min() and matrix.max() < np.inf):  # NaN fails too
        raise ValidationError("matrix must be finite everywhere")
    k = matrix.shape[0]
    if relevance.shape != (k,):
        raise ValidationError(f"relevance must have {k} entries, got shape {relevance.shape}")
    if not (0.0 <= relevance.min() and relevance.max() < np.inf):  # NaN fails too
        raise ValidationError("relevance must be finite and non-negative")
    return matrix, relevance


def _gains(relevance: np.ndarray, dcg_depth: int | None) -> np.ndarray:
    """Gain of candidate i at position j: relevance[i] / log2(j+1)."""
    return relevance[:, None] * position_discounts(len(relevance), dcg_depth)[None, :]


def _bottleneck_search(
    d: np.ndarray,
    gains: np.ndarray,
    theta_rho: float,
    cap: float = math.inf,
    proven=None,
):
    """Minimal threshold z (<= cap) admitting a quality-feasible matching
    over edges d <= z. Returns (z, assignment, gain) or None.

    Below the largest row or column minimum some row or column has no edge,
    so no threshold there is feasible: that bound is probed first, and only
    when it admits no quality-feasible matching is the threshold
    binary-searched over the distinct values in (bound, cap]. Each probe is
    one max-gain assignment solve over the edges d <= z. ``proven`` is a
    (t, assignment, gain) triple of a matching known to pass every probe at
    or above its largest edge t <= cap: the search then skips the probe at
    the largest value and binary-searches only the values in (bound, t),
    returning ``proven`` itself when none of them is feasible.
    """
    bound = max(d.min(axis=1).max(), d.min(axis=0).max())
    if bound > cap:
        return None
    neg_gains = -gains
    rows = np.arange(d.shape[0])

    def probe(z):
        costs = np.where(d <= z, neg_gains, np.inf)
        try:
            _, cols = linear_sum_assignment(costs)
        except ValueError:
            return None
        if not np.isfinite(costs[rows, cols]).all():
            return None
        gain = float(gains[rows, cols].sum())
        if gain < theta_rho - FEASIBILITY_TOL:
            return None
        return cols, gain

    best = probe(bound)
    if best is None:
        if proven is None:
            values = np.unique(d[(d > bound) & (d <= cap)])
            if values.size == 0:
                return None
            hi = values.size - 1
            best = probe(values[hi])
            if best is None:
                return None
        else:
            # index values.size stands for t, feasible by the certificate
            values = np.unique(d[(d > bound) & (d < proven[0])])
            hi = values.size
            best = np.asarray(proven[1]), proven[2]
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
    return float(d[rows, cols].max()), tuple(cols.tolist()), gain


def bottleneck_with_quality(
    d, relevance, theta_rho: float, dcg_depth: int | None = None
) -> MatchResult:
    """Min-max edge value subject to DCG >= theta_rho; DCG breaks ties.

    Infeasible when even the unrestricted max-DCG matching misses the
    quality threshold.
    """
    d, relevance = _checked(d, relevance)
    found = _bottleneck_search(d, _gains(relevance, dcg_depth), theta_rho)
    if found is None:
        return MatchResult.infeasible()
    z, cols, _ = found
    return MatchResult(cols, z, True)


def _sorted_desc(values: np.ndarray) -> tuple[float, ...]:
    return tuple(np.sort(values)[::-1])


def _closes_by_sort(sub_d, sub_gains, theta_rho: float, fixed_gain: float) -> bool:
    """Whether every remaining refinement level follows from one sort of the
    rows: all gains are 0, every column equals the first in values, and the
    quality tests the skipped levels would run all pass, written as the same
    float expressions (a sub-search's zero-gain probe while two or more rows
    remain, then the last level's own check). The search that produced this
    level has already passed the first of them."""
    return (
        not sub_gains.any()
        and (sub_d == sub_d[:, :1]).all()
        and not (len(sub_d) > 1 and 0.0 < (theta_rho - fixed_gain) - FEASIBILITY_TOL)
        and not (fixed_gain + 0.0 < theta_rho - FEASIBILITY_TOL)
    )


# a carried matching certifies a probe only if its gain clears the probe's
# floor by more than _SUM_ERROR * K times that gain: a float sum of K
# non-negative terms is within K * eps / 2 of its exact value (relative),
# which covers the carried sum and the probe's own, with a wide safety factor
_SUM_ERROR = 8.0 * np.finfo(np.float64).eps


def _lex_carry(sub_d, sub_gains, t: float, floor: float):
    """Columns of the matching over the edges d <= t (t: the carried one's
    largest edge) of least sum (max(d, 0)/t)^2 (sum d at t <= 0), near the
    lexicographic optimum (Burkard & Rendl 1991); None unless its gain
    clears ``floor`` by the carried matching's margin."""
    allowed = sub_d <= t
    costs = np.full(sub_d.shape, np.inf)
    edges = sub_d[allowed]
    costs[allowed] = (np.maximum(edges, 0.0) / t) ** 2 if t > 0 else edges
    rows, cols = linear_sum_assignment(costs)
    gain = sub_gains[rows, cols].sum()
    return cols if gain - (floor - FEASIBILITY_TOL) > _SUM_ERROR * len(cols) * gain else None


def lexicographic_refine(
    d, relevance, theta_rho: float, dcg_depth: int | None = None
) -> MatchResult:
    """Greedy refinement of the bottleneck-optimal matching.

    Runs the bottleneck search of ``bottleneck_with_quality`` (infeasible
    when that finds no matching), then repeatedly fixes an edge realizing
    the current level's bottleneck value (choosing the one whose remaining
    subproblem has the smallest next bottleneck, the first in row-major
    order among equals) and re-solves the reduced problem, re-checking the
    quality constraint on the full matching each step. The bottleneck value
    is preserved exactly; falls back to the search's own answer whenever
    refinement cannot strictly (lexicographically) match it.

    The full problem is searched once. A column class is a run of adjacent
    columns equal in values and gains over all rows; its first remaining
    column stands for all of it. A level whose value sits in one remaining
    (row, class) cell is forced and is found from a value index, without
    scanning the sub-problem. Its reduced problem is then settled from the
    matching of the search that produced the level: that matching's largest
    edge is the level value, so it puts the forced row in the forced cell's
    class, and without that pair it matches the reduced problem (columns of
    a class are interchangeable). If its largest edge t equals the reduced problem's row/column
    bound (kept from per-class row and column minima) and its gain clears
    the floor by more than the summation error, the search's first probe,
    at that bound, is feasible, so the bound is the search's answer: no
    sub-problem is built and no assignment solved. At the first level
    where t lies above the bound, ``_lex_carry`` swaps in a certified
    matching nearer the lexicographic optimum, whose t often meets it. If t
    still lies above the bound, t is a feasible threshold and the search
    probes only below it.
    Refinement reads only the threshold of each search, never its matching,
    so outputs are those of searching every level. A level with two or more
    candidate cells searches every candidate's reduced problem, trying a
    column equal to its left neighbour over the remaining rows once. Once
    every remaining column equals the first in values with zero gain (the
    zero-attention, zero-gain tail), each remaining level would fix the
    first row, in row order, of the largest remaining value in the first
    remaining column: those levels are one stable sort of the rows by
    value, largest first.
    """
    d, relevance = _checked(d, relevance)
    gains = _gains(relevance, dcg_depth)
    level = _bottleneck_search(d, gains, theta_rho)
    if level is None:
        return MatchResult.infeasible()
    return _refine(d, gains, theta_rho, MatchResult(level[1], level[0], True))


def _take(matrix, rows, cols):
    return matrix.take(rows, axis=0).take(cols, axis=1)


def _column_classes(d: np.ndarray, gains: np.ndarray):
    """The column classes of a K x K instance: runs of adjacent columns
    equal in values and gains over all rows, so interchangeable in any
    matching. Returns each class's first column and each column's class."""
    same = np.zeros(d.shape[1], dtype=bool)
    same[1:] = ((d[:, 1:] == d[:, :-1]) & (gains[:, 1:] == gains[:, :-1])).all(axis=0)
    return np.flatnonzero(~same), np.cumsum(~same) - 1


def _refine(d, gains, theta_rho, base: MatchResult) -> MatchResult:
    """The level loop of ``lexicographic_refine``, from ``base``, the full
    problem's search: its minimal threshold and the matching it found."""
    k = d.shape[0]
    z = base.objective
    # columns leave a class from the front, so the live columns of class c
    # are first[c]..ends[c]-1
    starts, classes = _column_classes(d, gains)
    col_class = classes.tolist()
    n_classes = starts.size
    first = starts.tolist()
    ends = starts[1:].tolist() + [k]
    # the value index: (row, class) cells by value, row-major among equals
    values = d[:, starts]
    by_value = np.argsort(values, axis=None, kind="stable")
    cell_values = values.ravel()[by_value].tolist()
    cell_rows, cell_classes = np.divmod(by_value, n_classes)
    cell_rows, cell_classes = cell_rows.tolist(), cell_classes.tolist()

    row_live = np.ones(k, dtype=bool)
    col_live = np.ones(k, dtype=bool)
    # row and column minima over the live cells (live_values: +inf
    # elsewhere), with the rows whose minimum sits in each class and the
    # classes whose minimum sits in each row; dead rows and classes read -inf
    live_values = values.copy()
    minima = np.concatenate([values.min(axis=1), values.min(axis=0)])
    row_min, col_min = minima[:k], minima[k:]  # views: the bound is minima.max()
    rows_at = [[] for _ in range(n_classes)]
    classes_at = [[] for _ in range(k)]
    for i, c in enumerate(values.argmin(axis=1).tolist()):
        rows_at[c].append(i)
    for c, i in enumerate(values.argmin(axis=0).tolist()):
        classes_at[i].append(c)
    # live rows and classes with a nonzero gain somewhere: while there are
    # both, the closing sort cannot apply (gain[i, j] is relevance[i] times
    # the discount of j)
    nonzero = gains != 0
    row_gains = nonzero.any(axis=1).tolist()
    class_gains = nonzero[:, starts].any(axis=0).tolist()
    gain_rows, gain_classes = sum(row_gains), sum(class_gains)

    # the carried matching, held as each live row's class (columns of a
    # class are interchangeable), edge value and gain (dead rows -inf and 0)
    match = np.zeros(k, dtype=np.intp)
    edge = np.empty(k)
    edge_gain = np.empty(k)

    def carry(rows, cols):
        match[rows] = classes[cols]
        edge[rows] = d[rows, cols]
        edge_gain[rows] = gains[rows, cols]

    def drop(r, j):
        nonlocal gain_rows, gain_classes
        row_live[r] = col_live[j] = False
        live_values[r] = np.inf
        row_min[r] = edge[r] = -np.inf
        edge_gain[r] = 0.0
        gain_rows -= row_gains[r]
        c = col_class[j]
        first[c] += 1
        if first[c] == ends[c]:
            live_values[:, c] = np.inf
            col_min[c] = -np.inf
            gain_classes -= class_gains[c]
            stale = [i for i in rows_at[c] if row_live[i]]
            if stale:
                block = live_values[stale]
                row_min[stale] = block.min(axis=1)
                for i, c2 in zip(stale, block.argmin(axis=1).tolist()):
                    rows_at[c2].append(i)
        stale = [c2 for c2 in classes_at[r] if first[c2] < ends[c2]]
        if stale:
            block = live_values[:, stale]
            col_min[stale] = block.min(axis=0)
            for c2, i in zip(stale, block.argmin(axis=0).tolist()):
                classes_at[i].append(c2)

    def forced_cell(z):
        """The one live (row, class) cell of value z, or None when there
        are several."""
        cell = None
        for p in range(bisect_left(cell_values, z), bisect_right(cell_values, z)):
            r, c = cell_rows[p], cell_classes[p]
            if row_live[r] and first[c] < ends[c]:
                if cell is not None:
                    return None
                cell = r, c
        return cell

    carry(np.arange(k), np.asarray(base.assignment))
    fixed_gain = 0.0
    assignment = [0] * k
    without = None
    lex_tried = False
    for m in range(k, 0, -1):
        if not (gain_rows and gain_classes):
            rows, cols = row_live.nonzero()[0], col_live.nonzero()[0]
            sub_d = _take(d, rows, cols)
            if _closes_by_sort(sub_d, _take(gains, rows, cols), theta_rho, fixed_gain):
                # each remaining level fixes the first row (in row order) of
                # the largest remaining value in the first remaining column
                order = np.argsort(-sub_d[:, 0], kind="stable")
                for row, col in zip(rows[order].tolist(), cols.tolist()):
                    assignment[row] = col
                break

        cell = forced_cell(z)
        if cell is not None:
            r, c = cell
            j = first[c]
            fixed_gain += gains[r, j]
            assignment[r] = j
            if m == 1:
                if fixed_gain < theta_rho - FEASIBILITY_TOL:
                    return base
                break
            # the carried matching's largest edge is z, so it holds row r in
            # class c: without that pair it matches the reduced problem
            drop(r, j)
            floor = theta_rho - fixed_gain
            bound, t = minima.max(), edge.max()
            # gains are >= 0, so below a negative floor no sum is needed
            gain = 0.0 if floor - FEASIBILITY_TOL < 0.0 else edge_gain.sum()
            certified = gain - (floor - FEASIBILITY_TOL) > _SUM_ERROR * k * gain
            if certified and t <= bound:
                z = float(bound)
                continue
            rows, cols = row_live.nonzero()[0], col_live.nonzero()[0]
            sub_d, sub_gains = _take(d, rows, cols), _take(gains, rows, cols)
            proven = None
            if certified and not lex_tried:  # once per refinement
                lex_tried = True
                if (lex := _lex_carry(sub_d, sub_gains, t, floor)) is not None:
                    carry(rows, cols[lex])
                    t = edge.max()
                    if t <= bound:
                        z = float(bound)
                        continue
            if certified:
                # the carried matching in the sub-problem's columns: these
                # run class by class, so the rows sorted by class take them
                # in turn
                carried = np.empty(m - 1, dtype=np.intp)
                carried[np.argsort(match[rows], kind="stable")] = np.arange(m - 1)
                proven = t, carried, edge_gain.sum()
            found = _bottleneck_search(sub_d, sub_gains, floor, z, proven)
            if found is None:
                return base
            z = found[0]
            carry(rows, cols[list(found[1])])
            continue

        # two or more candidate cells: search each candidate's reduced problem
        if without is None:
            # without[i, :m - 1]: the indices 0..m-1 other than i, for every m <= k
            idx = np.arange(k - 1)
            without = idx + (idx[None, :] >= np.arange(k)[:, None])
        rows, cols = row_live.nonzero()[0], col_live.nonzero()[0]
        sub = np.stack([_take(d, rows, cols), _take(gains, rows, cols)])
        sub_d, sub_gains = sub
        edge_rows, edge_cols = np.nonzero(sub_d == z)  # row-major
        edges = list(zip(edge_rows.tolist(), edge_cols.tolist()))
        if len(edges) > 1:
            # a column leaves the same reduced problem as its class's first
            # column, whose edge comes first in row-major order and so wins
            # every tie: try only first columns (a lone edge always sits in one)
            firsts = set(_column_classes(sub_d, sub_gains)[0].tolist())
            edges = [(il, jl) for il, jl in edges if jl in firsts]
        # (here m >= 2: with one row left, the level value is its one cell)
        best = None
        best_next = math.inf
        for il, jl in edges:
            gain2 = fixed_gain + sub_gains[il, jl]
            reduced = sub.take(without[il, : m - 1], axis=1).take(without[jl, : m - 1], axis=2)
            found = _bottleneck_search(reduced[0], reduced[1], theta_rho - gain2, z)
            if found is not None and found[0] < best_next:
                best_next = found[0]
                best = (il, jl, gain2, found)
        if best is None:
            return base
        il, jl, fixed_gain, found = best
        r, j = int(rows[il]), int(cols[jl])
        assignment[r] = j
        drop(r, j)
        # the winner's sub-search is the next level's search
        z = best_next
        carry(np.delete(rows, il), np.delete(cols, jl)[list(found[1])])

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

    The cost-optimal matching when it meets the floor; infeasible when even
    the max-gain matching misses it; otherwise the floor binds and the class
    MILP (``_min_sum_milp``) proves the optimum. A solve that cannot prove
    it, or whose matching misses the floor, raises FairRankError.
    """
    costs, relevance = _checked(costs, relevance)
    gains = _gains(relevance, dcg_depth)

    def gain_of(cols):
        return float(matching_values(gains, cols).sum())

    cols = _solve_lsa(costs)
    if gain_of(cols) < theta_rho - FEASIBILITY_TOL:
        if gain_of(_solve_lsa(-gains)) < theta_rho - FEASIBILITY_TOL:
            return MatchResult.infeasible()
        # the cost-optimal gain is >= 0, so here theta_rho > FEASIBILITY_TOL > 0
        cols = _min_sum_milp(costs, gains, theta_rho)
        if gain_of(cols) < theta_rho - FEASIBILITY_TOL:
            raise FairRankError("min-sum MILP returned a matching below the quality floor")
    return MatchResult(cols, float(matching_values(costs, cols).sum()), True)


def _min_sum_milp(costs: np.ndarray, gains: np.ndarray, theta_rho: float):
    """Min-cost permutation with total gain >= theta_rho > 0, proven by HiGHS.

    Binary x[i, c] (row-major) puts row i in column class c, with equality
    rows per candidate (sum 1) and per class (sum its size) and the DCG row.
    Costs are divided by their largest magnitude and gains by theta_rho, so
    HiGHS's absolute tolerances are relative to the instance. Rows take
    their class's columns in ascending order of both. Raises FairRankError
    unless HiGHS proves an optimum whose rounded x fills every class.
    """
    k = costs.shape[0]
    starts, _ = _column_classes(costs, gains)
    n_classes = starts.size
    sizes = np.diff(starts, append=k)
    totals = np.concatenate([np.ones(k), sizes])
    # row i sums x[i, :], row k + c sums x[:, c]
    assign_rows = np.vstack(
        [np.repeat(np.eye(k), n_classes, axis=1), np.tile(np.eye(n_classes), k)]
    )
    gain_row = gains[:, starts].reshape(1, -1) / theta_rho
    res = milp(
        costs[:, starts].ravel() / (np.abs(costs).max() or 1.0),
        integrality=np.ones(k * n_classes),
        bounds=Bounds(0.0, 1.0),
        constraints=[
            LinearConstraint(assign_rows, totals, totals),
            LinearConstraint(gain_row, 1.0 - FEASIBILITY_TOL / theta_rho, np.inf),
        ],
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise FairRankError(f"min-sum MILP did not prove an optimum: {res.message}")
    x = np.rint(res.x).reshape(k, n_classes)
    if not ((x.sum(axis=1) == 1.0).all() and (x.sum(axis=0) == sizes).all()):
        raise FairRankError("min-sum MILP returned an x that does not fill every class")
    cols = np.empty(k, dtype=np.intp)
    cols[np.argsort(x.argmax(axis=1), kind="stable")] = np.arange(k)
    return tuple(cols.tolist())


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
    """Exact optimum by enumerating all K! matchings (oracle; K <= 8).
    An infinite cell is a forbidden edge."""
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    matrix, relevance = _checked(d_or_costs, relevance, allow_inf=True)
    k = matrix.shape[0]
    if k > 8:
        raise ValidationError(f"brute_force enumerates K! matchings; K={k} exceeds 8")
    gains = _gains(relevance, dcg_depth)

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
