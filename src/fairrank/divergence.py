"""Divergence measures between cumulative attention and relevance.

Three measures are supported, all over a per-individual pair of cumulative
distributions (attention vs. relevance):

* ``L1``    — absolute difference of means: ``|mu_A - mu_R|``;
* ``L2var`` — squared mean gap plus squared standard-deviation gap:
  ``(mu_A - mu_R)^2 + (sigma_A - sigma_R)^2``;
* ``W1``    — empirical 1-Wasserstein distance between the per-query value
  sequences: mean absolute difference of aligned order statistics.

Multi-component polarity sums the per-component values (unweighted).

Prospective W1 (one value ``v`` joins a sorted attention sequence
``a_0 <= ... <= a_{m-1}`` compared against a sorted relevance sequence
``r_0 <= ... <= r_m``) has a closed form. With ``s = #{a_k < v}`` the
insertion rank, the merged sequence pairs ``a_k`` with ``r_k`` below ``s``,
``v`` with ``r_s``, and ``a_k`` with ``r_{k+1}`` from ``s`` on, so

    W1 = (prefix[s] + |v - r_s| + suffix[s]) / (m + 1),
    prefix[s] = sum_{k<s} |a_k - r_k|,  suffix[s] = sum_{k>=s} |a_k - r_{k+1}|.

``w1_insert_matrix`` evaluates it for K candidates x K positions x P
components with no Python loop. Adjacent positions of equal value share one
column (V distinct values; beyond the attention cutoff every position is
worth 0), ``s`` is counted from one broadcast comparison, and both sums
come from one cumulative sum: O(T*K*P + T*K*V*P) work and T*K*P*V booleans
(about 70k at T=128, K=50, V=10, P=1) instead of K^2*P insert-and-sort
passes of O(T log T) each. This is the sort-based W1 <=> 1-D
optimal-transport identity (Villani 2009; Peyre & Cuturi 2019, sec. 2.6)
applied to a merge.
"""

from enum import Enum

import numpy as np

from .core import AttentionModel, Ledger
from .errors import ValidationError


class DivergenceKind(str, Enum):
    L1 = "L1"
    L2VAR = "L2var"
    W1 = "W1"


def d_multi(per_component) -> float:
    """Aggregate per-component divergences: unweighted sum."""
    values = list(per_component)
    if not values:
        raise ValidationError("need at least one component value")
    return float(sum(values))


def _component_values(
    kind: DivergenceKind,
    mean_a: np.ndarray,
    var_a: np.ndarray,
    seq_a: np.ndarray | None,
    mean_r: np.ndarray,
    var_r: np.ndarray,
    seq_r: np.ndarray | None,
) -> np.ndarray:
    """Per-component divergence values, broadcast over any leading shape.

    The moment arrays broadcast to one shape (..., P). W1 reads only the
    sequences, (T, ..., P), and compares them along axis 0; it is zero when
    T == 0.
    """
    if kind == DivergenceKind.L1:
        return np.abs(mean_a - mean_r)
    if kind == DivergenceKind.L2VAR:
        return (mean_a - mean_r) ** 2 + (np.sqrt(var_a) - np.sqrt(var_r)) ** 2
    if kind == DivergenceKind.W1:
        if seq_a.shape[0] == 0:
            return np.zeros(seq_a.shape[1:])
        return np.mean(np.abs(np.sort(seq_a, axis=0) - np.sort(seq_r, axis=0)), axis=0)
    raise ValidationError(f"unknown divergence kind {kind!r}")


def _query_eta(polarity, components: int, mode: str) -> np.ndarray:
    """The weights of one query's values: its polarity vector (aware) or ones."""
    if mode == "aware":
        return np.asarray(polarity, dtype=np.float64)
    if mode == "agnostic":
        return np.ones(components)
    raise ValidationError(f"unknown polarity mode {mode!r}")


def w1_insert_matrix(base, rel_sorted, values) -> np.ndarray:
    """W1 after inserting one value per position into each candidate's sequence.

    ``base`` is (m, K, P) and ``rel_sorted`` (m+1, K, P), both sorted along
    axis 0; ``values`` is (K positions, P). Entry [i, j] is the W1 between
    ``base[:, i]`` with ``values[j]`` inserted and ``rel_sorted[:, i]``,
    summed over the P components, by the closed form in the module
    docstring. Each run of equal adjacent position rows is computed once;
    O(m*K*P + m*K*V*P) for V distinct rows.
    """
    m, K, P = base.shape
    distinct = np.ones(values.shape[0], dtype=bool)
    distinct[1:] = (values[1:] != values[:-1]).any(axis=1)
    v = values[distinct].T[:, :, None]  # (P, V, 1)
    # (P, V, K) insertion ranks s = #{a_k < v}, side="left" of a sorted base;
    # the (P, V, m, K) comparison runs over contiguous m*K blocks
    s = (v[..., None] > np.ascontiguousarray(base.transpose(2, 0, 1))[:, None]).sum(axis=2)
    # prefix sums of |a_k - r_k| and, reversed, suffix sums of |a_k - r_{k+1}|
    steps = np.zeros((2, m + 1, K, P))
    np.abs(base - rel_sorted[:-1], out=steps[0, 1:])
    np.abs(base[::-1] - rel_sorted[:0:-1], out=steps[1, 1:])
    sums = steps.cumsum(axis=1).reshape(2, -1)
    cell = np.arange(K) * P + np.arange(P)[:, None, None]  # (P, 1, K) flat offsets
    at = s * (K * P) + cell
    prefix = sums[0].take(at)
    suffix = sums[1].take((m - s) * (K * P) + cell)
    gap = np.abs(v - rel_sorted.reshape(-1).take(at))
    cols = ((prefix + gap + suffix) / (m + 1)).transpose(2, 0, 1)  # (K, P, V)
    return cols.take(np.cumsum(distinct) - 1, axis=2).sum(axis=1)


def divergence_matrix(
    ledger: Ledger,
    rows,
    relevance,
    polarity,
    attention: AttentionModel,
    kind: DivergenceKind,
    mode: str = "aware",
) -> np.ndarray:
    """Prospective divergences for candidates x positions ``1..K``.

    The K candidates are the individuals at dataset positions ``rows``;
    ``relevance`` holds their relevance in the query being ranked and
    ``polarity`` is that query's polarity vector. Entry [i, j] is the
    divergence candidate ``i`` would hold after taking position ``j+1`` now
    (the query's relevance accrued as well), summed over components. L1 and
    L2var cost O(T*K*P) for the candidates' moments plus O(K^2*P) for the
    matrix. W1 sorts each candidate's T-long sequences once and inserts
    ``eta*w_j`` in closed form
    (``w1_insert_matrix``: prefix sum of ``|a_k - r_k|`` below the insertion
    rank, ``|v - r_s|`` at it, suffix sum of ``|a_k - r_{k+1}|`` above it),
    O(T*K*P + T*K*V*P) in all for V distinct position values (the positions
    past the attention cutoff share one).
    """
    K = len(rows)
    n = ledger.dataset.n
    if K > n:
        raise ValidationError("more candidates than individuals")
    eta = _query_eta(polarity, ledger.components, mode)
    w = attention.weights(n)[:K]
    r = np.asarray(relevance, dtype=np.float64)
    if kind == DivergenceKind.W1:
        base = np.sort(ledger.values_at(rows, "attention", mode), axis=0)
        seq_r = ledger.values_at(rows, "relevance", mode)
        rel_now = (eta[None, :] * r[:, None])[None]  # (1, K, P)
        rel_sorted = np.sort(np.concatenate([seq_r, rel_now]), axis=0)
        return w1_insert_matrix(base, rel_sorted, eta[None, :] * w[:, None])

    mean_a, var_a = ledger.moments_at(rows, "attention", mode)
    mean_r, var_r = ledger.moments_at(rows, "relevance", mode)
    mean_r = mean_r + eta[None, :] * r[:, None]
    var_r = var_r + (eta * eta)[None, :] * (r * (1.0 - r))[:, None]
    # (K cand, K pos, P) broadcasts
    attn_mean = mean_a[:, None, :] + eta[None, None, :] * w[None, :, None]
    attn_var = (
        var_a[:, None, :] + (eta * eta)[None, None, :] * (w * (1.0 - w))[None, :, None]
    )
    values = _component_values(
        kind, attn_mean, attn_var, None, mean_r[:, None, :], var_r[:, None, :], None
    )
    return values.sum(axis=2)
