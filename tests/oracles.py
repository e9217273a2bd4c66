"""Shared enumeration oracles for engine-level tests."""

import itertools
import math

import numpy as np

from fairrank.assign import FEASIBILITY_TOL
from fairrank.core import Assignment, AttentionModel, Ledger, dcg_at_k, ideal_ranking
from fairrank.divergence import _query_eta
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
