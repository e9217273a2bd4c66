"""Shared enumeration oracles for engine-level tests."""

import itertools
import math

import numpy as np

from fairrank.assign import (
    FEASIBILITY_TOL,
    MatchResult,
    _bottleneck_search,
    _sorted_desc,
    matching_values,
    position_discounts,
)
from fairrank.core import Assignment, AttentionModel, Ledger, dcg_at_k, ideal_ranking
from fairrank.divergence import DivergenceKind, _component_values, _query_eta, d_multi
from fairrank.errors import EmptyScopeError
from fairrank.metrics import iaa, individual_unfairness


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
    for query in stream:
        ideal = ideal_ranking(query)
        candidates, tail = ideal[: config.k_re], ideal[config.k_re :]
        theta_rho = config.theta * dcg_at_k(ideal, query.relevance, config.k_eval)
        options = [
            perm + tail
            for perm in itertools.permutations(candidates)
            if dcg_at_k(perm + tail, query.relevance, config.k_eval)
            >= theta_rho - FEASIBILITY_TOL
        ]
        per_step.append(options)
    best = math.inf
    for combo in itertools.product(*per_step):
        ledger = Ledger(dataset, stream[0].components)
        for query, ordering in zip(stream, combo):
            ledger.update(query, Assignment(ordering), attention)
        best = min(best, final_objective(ledger, config))
    return best


def final_w1_matrix_oracle(ledger, step0, step_query, candidates, mode, attention):
    """Per-cell final-horizon W1: delete step ``step0``, insert, sort, compare.

    Entry [i, j] rebuilds candidate ``i``'s attention sequence with its
    ``step0`` entry replaced by the value of position ``j+1`` and takes the
    mean absolute gap of the sorted sequences, summed over components.
    """
    K = len(candidates)
    w_new = attention.weights(ledger.dataset.n)[:K]
    eta = _query_eta(step_query, ledger.components, mode)
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
        return _bottleneck_search(sub_d, sub_gains, theta_rho - gain_so_far, level_cap)

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
