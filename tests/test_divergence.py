"""Divergence measures and prospective (what-if) evaluation."""

import math

import numpy as np
import pytest

import fairrank.divergence
import fairrank.rerank
from fairrank.core import AttentionModel, Dataset, Ledger, Stream
from fairrank.divergence import (
    DivergenceKind,
    _component_values,
    d_multi,
    divergence_matrix,
    w1_insert_matrix,
)
from fairrank.errors import LengthMismatchError, ValidationError
from fairrank.rerank import RerankConfig, _final_w1_matrix
from fairrank.verify import w1_transport_oracle
from oracles import (
    DistSummary,
    d_l1,
    d_l2var,
    d_w1,
    final_w1_matrix_oracle,
    ledger_divergence,
    prospective_divergence,
    query_columns,
    rows_of,
    stream_of,
    w1_insert_matrix_oracle,
)

KINDS = (DivergenceKind.L1, DivergenceKind.L2VAR, DivergenceKind.W1)


def summary(mean, std, seq=()):
    return DistSummary(mean, std, np.asarray(seq, dtype=float))


class TestL1:
    def test_mean_gap(self):
        assert d_l1(summary(0.6, 0.0), summary(0.5, 0.0)) == pytest.approx(0.1)

    def test_equal_means(self):
        assert d_l1(summary(0.4, 0.2), summary(0.4, 0.9)) == 0.0

    def test_negative_polarity_mean(self):
        assert d_l1(summary(-0.3, 0.0), summary(0.2, 0.0)) == pytest.approx(0.5)


class TestL2Var:
    def test_mean_and_std_gaps(self):
        assert d_l2var(summary(0.6, 0.3), summary(0.5, 0.1)) == pytest.approx(0.05)

    def test_identical(self):
        assert d_l2var(summary(0.5, 0.2), summary(0.5, 0.2)) == 0.0

    def test_spread_gap_alone(self):
        # equal means are not enough: spread mismatch is unfairness
        assert d_l2var(summary(0.5, 0.2), summary(0.5, 0.0)) == pytest.approx(0.04)


class TestW1:
    def test_order_statistics(self):
        assert d_w1([0.1, 0.3], [0.2, 0.2]) == pytest.approx(0.1)

    def test_identical(self):
        assert d_w1([0.4, 0.1], [0.1, 0.4]) == 0.0

    def test_single_observation(self):
        assert d_w1([0.5], [0.0]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            d_w1([0.1, 0.2], [0.1])

    def test_matches_transport_oracle(self):
        """The metrics' full-sequence W1 (the kernel on (T, 1, P) sequences)
        equals min-cost matching between empirical measures."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            T = int(rng.integers(1, 9))
            P = int(rng.integers(1, 3))
            a = rng.normal(size=(T, 1, P))
            r = rng.normal(size=(T, 1, P))
            ours = _component_values(DivergenceKind.W1, None, None, a, None, None, r)
            for p in range(P):
                oracle = w1_transport_oracle(a[:, 0, p], r[:, 0, p])
                assert ours[0, p] == pytest.approx(oracle, abs=1e-9)


class TestMulti:
    def test_sum(self):
        assert d_multi([0.1, 0.2, 0.0]) == pytest.approx(0.3)

    def test_scalar_reduction(self):
        assert d_multi([0.4]) == pytest.approx(0.4)

    def test_zeros(self):
        assert d_multi([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            d_multi([])


class TestDivergenceAxioms:
    def test_non_negativity(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            a = summary(rng.normal(), abs(rng.normal()), rng.normal(size=4))
            r = summary(rng.normal(), abs(rng.normal()), rng.normal(size=4))
            assert d_l1(a, r) >= 0.0
            assert d_l2var(a, r) >= 0.0
            assert d_w1(a.seq, r.seq) >= 0.0

    def test_positivity_at_summary_level(self):
        a = summary(0.3, 0.1, [0.1, 0.2])
        assert d_l1(a, summary(0.3, 0.9)) == 0.0
        assert d_l1(a, summary(0.31, 0.1)) > 0.0
        assert d_l2var(a, summary(0.3, 0.1)) == 0.0
        assert d_l2var(a, summary(0.3, 0.11)) > 0.0
        assert d_w1(a.seq, [0.2, 0.1]) == 0.0
        assert d_w1(a.seq, [0.1, 0.21]) > 0.0

    def test_convexity_spot_check(self):
        """Mixing instance pairs never increases L1 or W1 divergence.

        For L1 the mix averages the means; for W1 it is the mixture of the
        two empirical measures (the concatenated sample). Note the pointwise
        average of two value sequences is a different operation and does NOT
        satisfy this inequality in general.
        """
        rng = np.random.default_rng(13)
        for _ in range(500):
            mu = rng.normal(size=4)  # muA1, muR1, muA2, muR2
            lhs = abs((mu[0] + mu[2]) / 2 - (mu[1] + mu[3]) / 2)
            rhs = (abs(mu[0] - mu[1]) + abs(mu[2] - mu[3])) / 2
            assert lhs <= rhs + 1e-12
            a1, r1, a2, r2 = rng.normal(size=(4, 5))
            lhs = d_w1(np.concatenate([a1, a2]), np.concatenate([r1, r2]))
            rhs = (d_w1(a1, r1) + d_w1(a2, r2)) / 2
            assert lhs <= rhs + 1e-12

    def test_l1_subadditive_under_convolution(self):
        # means add under convolution; the gap obeys the triangle inequality
        rng = np.random.default_rng(21)
        for _ in range(300):
            p1, r1, p2, r2 = rng.normal(size=4)
            joint = d_l1(summary(p1 + p2, 0.0), summary(r1 + r2, 0.0))
            parts = d_l1(summary(p1, 0.0), summary(r1, 0.0)) + d_l1(
                summary(p2, 0.0), summary(r2, 0.0)
            )
            assert joint <= parts + 1e-12

    def test_positive_homogeneity_degree_one(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            mu_a, mu_r = rng.normal(size=2)
            alpha = float(rng.uniform(0.1, 5.0))
            assert d_l1(
                summary(alpha * mu_a, 0.0), summary(alpha * mu_r, 0.0)
            ) == pytest.approx(alpha * d_l1(summary(mu_a, 0.0), summary(mu_r, 0.0)))
            a, r = rng.normal(size=(2, 6))
            assert d_w1(alpha * a, alpha * r) == pytest.approx(
                alpha * d_w1(a, r), rel=1e-12
            )

    def test_summary_std_must_be_non_negative(self):
        with pytest.raises(ValidationError):
            summary(0.0, -0.1)

    def test_summary_from_ledger(self):
        ids = ("a", "b", "c")
        dataset = Dataset.single_group(ids)
        stream = stream_of([{"a": rel_a, "b": 0.1, "c": 0.9 - rel_a} for rel_a in (0.6, 0.2)])
        ledger = Ledger(dataset, stream)
        attention = AttentionModel(1)
        for _ in range(2):
            ledger.update([0, 1, 2], attention)
        s = DistSummary.from_ledger(ledger, "a", "relevance")
        assert s.mean == pytest.approx(0.8)
        var = 0.6 * 0.4 + 0.2 * 0.8
        assert s.std == pytest.approx(math.sqrt(var), abs=1e-12)
        np.testing.assert_allclose(s.seq, [0.2, 0.6])


def _ledger_after(relevance, polarity, orders, cutoff=3):
    """The ledger of a stream over ids a, b, c after ranking its first
    ``len(orders)`` queries by ``orders`` (orderings of ids)."""
    dataset = Dataset.single_group(("a", "b", "c"))
    ledger = Ledger(dataset, stream_of(relevance, polarity))
    attention = AttentionModel(cutoff)
    for order in orders:
        ledger.update(rows_of(dataset, order), attention)
    return ledger, attention


W = AttentionModel(3).weights(3)


class TestProspective:
    def test_attention_exactly_matching_relevance(self):
        q = {"a": float(W[0]), "b": float(W[1]), "c": float(W[2])}
        ledger, attention = _ledger_after([q], [(1.0,)], [])
        d = prospective_divergence(ledger, "a", 1, attention, DivergenceKind.L1, "aware")
        assert d == pytest.approx(0.0, abs=1e-15)

    def test_position_beyond_cutoff_gets_nothing(self):
        ledger, _ = _ledger_after([{"a": 0.5, "b": 0.25, "c": 0.25}], [(1.0,)], [])
        attention = AttentionModel(1)
        d = prospective_divergence(ledger, "a", 3, attention, DivergenceKind.L1, "aware")
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_negative_polarity_zero_relevance(self):
        ledger, attention = _ledger_after([{"a": 0.0, "b": 0.5, "c": 0.5}], [(-1.0,)], [])
        d = prospective_divergence(ledger, "a", 1, attention, DivergenceKind.L1, "aware")
        assert d == pytest.approx(float(W[0]), abs=1e-12)

    def test_position_out_of_range(self):
        ledger, attention = _ledger_after([{"a": 0.5, "b": 0.25, "c": 0.25}], [(1.0,)], [])
        with pytest.raises(ValidationError):
            prospective_divergence(ledger, "a", 4, attention, DivergenceKind.L1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mode", ["aware", "agnostic"])
    def test_prospective_equals_fresh_evaluation_after_update(self, kind, mode):
        """What-if value == realized value once the placement happens."""
        rng = np.random.default_rng(17)
        ids = ("a", "b", "c")
        for trial in range(20):
            relevance, polarity, orders = [], [], []
            for t in range(1, int(rng.integers(1, 5)) + 1):
                rel = rng.dirichlet(np.ones(3))
                polarity.append((float(rng.choice([-1.0, 0.5, 1.0])),))
                relevance.append(dict(zip(ids, rel.tolist())))
                orders.append(tuple(np.array(ids)[rng.permutation(3)]))
            rel = rng.dirichlet(np.ones(3))
            polarity.append((float(rng.choice([-1.0, 1.0])),))
            relevance.append(dict(zip(ids, rel.tolist())))
            ledger, attention = _ledger_after(relevance, polarity, orders)
            ind = ids[int(rng.integers(0, 3))]
            pos = int(rng.integers(1, 4))
            before = prospective_divergence(ledger, ind, pos, attention, kind, mode)
            others = [i for i in ids if i != ind]
            order = list(others)
            order.insert(pos - 1, ind)
            ledger.update(rows_of(ledger.dataset, order), attention)
            after = ledger_divergence(ledger, ind, kind, mode)
            assert before == pytest.approx(after, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matrix_agrees_with_per_cell_calls(self, kind):
        rng = np.random.default_rng(23)
        ids = ("a", "b", "c")
        relevance, orders = [], []
        for t in range(1, 4):
            rel = rng.dirichlet(np.ones(3))
            relevance.append(dict(zip(ids, rel.tolist())))
            orders.append(tuple(np.array(ids)[rng.permutation(3)]))
        rel = rng.dirichlet(np.ones(3))
        relevance.append(dict(zip(ids, rel.tolist())))
        polarity = [(1.0, -0.5)] * 3 + [(0.7, -1.0)]
        ledger, attention = _ledger_after(relevance, polarity, orders)
        for mode in ("aware", "agnostic"):
            d = divergence_matrix(ledger, *query_columns(ledger, ids), attention, kind, mode)
            for i, ind in enumerate(ids):
                for j in range(3):
                    expected = prospective_divergence(
                        ledger, ind, j + 1, attention, kind, mode
                    )
                    assert d[i, j] == pytest.approx(expected, abs=1e-12)


def _w1_case(rng, T, P, binary):
    """Six individuals after T random placements; the stream holds one more
    query, the next one.

    Binary relevance (three of six at 1/3) makes values tie within and
    across sequences; P=2 carries a zero polarity component.
    """
    ids = ("a", "b", "c", "d", "e", "f")
    dataset = Dataset.single_group(ids)
    attention = AttentionModel(2)  # k_att < K

    def query():
        if binary:
            rel = np.zeros(6)
            rel[rng.choice(6, 3, replace=False)] = 1.0 / 3.0
        else:
            rel = rng.dirichlet(np.ones(6))
        eta = rng.choice([-1.0, 0.5, 1.0], size=P)
        if P == 2:
            eta[int(rng.integers(0, 2))] = 0.0
        return dict(zip(ids, rel.tolist())), eta.tolist()

    queries = [query() for _ in range(T)]
    orders = [rng.permutation(6) for _ in range(T)]
    relevance, polarity = zip(*queries, query())
    ledger = Ledger(dataset, stream_of(relevance, polarity))
    for rows in orders:
        ledger.update(rows, attention)
    return ledger, attention


class TestW1InsertKernel:
    """The closed-form W1 matrices against their per-cell definitions."""

    @pytest.mark.parametrize("P", [1, 2])
    @pytest.mark.parametrize("binary", [False, True])
    def test_prospective_matrix_matches_per_cell(self, P, binary):
        rng = np.random.default_rng(31 + P + 2 * binary)
        for T in range(10):  # T=0 is the empty ledger at the first query
            ledger, attention = _w1_case(rng, T, P, binary)
            candidates = ("c", "a", "f", "d")  # K=4 < n=6
            for mode in ("aware", "agnostic"):
                d = divergence_matrix(
                    ledger, *query_columns(ledger, candidates), attention,
                    DivergenceKind.W1, mode,
                )
                for i, ind in enumerate(candidates):
                    for j in range(len(candidates)):
                        expected = prospective_divergence(
                            ledger, ind, j + 1, attention, DivergenceKind.W1, mode
                        )
                        assert abs(d[i, j] - expected) <= 1e-12, (T, mode, i, j)

    @pytest.mark.parametrize("P", [1, 2])
    @pytest.mark.parametrize("binary", [False, True])
    def test_final_horizon_matrix_matches_per_cell(self, P, binary):
        rng = np.random.default_rng(41 + P + 2 * binary)
        for T in range(1, 10):
            ledger, attention = _w1_case(rng, T, P, binary)
            candidates = ("b", "e", "a", "c")
            for mode in ("aware", "agnostic"):
                config = RerankConfig(
                    kind="W1", k_re=4, k_att=2, k_eval=4, polarity_mode=mode
                )
                for step0 in range(T):
                    rows = [ledger.dataset.index[c] for c in candidates]
                    d = _final_w1_matrix(
                        ledger, step0, ledger.polarity[step0], rows, config, attention
                    )
                    expected = final_w1_matrix_oracle(
                        ledger, step0, candidates, mode, attention
                    )
                    np.testing.assert_allclose(d, expected, rtol=0, atol=1e-12)


def _signed_zero_draws(rng, shape, rounded):
    """Draws in [-1, 1]: a coarse grid with exact 0.0 and -0.0 (ties) or
    continuous values."""
    if rounded:
        return rng.integers(-2, 3, shape) / 2.0 * rng.choice([1.0, -1.0], shape)
    return rng.uniform(-1.0, 1.0, shape)


def _kernel_inputs(rng, m, K, P):
    """Sorted (m, K, P) base and (m+1, K, P) relevance, and (K, P) position
    values eta * w whose tail past a random attention cutoff (below or above
    K) is a run of equal zeros, -0.0 where eta < 0."""
    rounded = bool(rng.integers(0, 2))
    base = np.sort(_signed_zero_draws(rng, (m, K, P), rounded), axis=0)
    rel = np.sort(_signed_zero_draws(rng, (m + 1, K, P), rounded), axis=0)
    eta = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], P)
    w = AttentionModel(int(rng.integers(1, K + 6))).weights(K + 5)[:K]
    if rounded:
        w = np.round(w * 2.0) / 2.0  # equal adjacent positions inside the cutoff
    return base, rel, eta * w[:, None]


def _ranked_ledger(rng, m, K, P):
    """A ledger of n >= K individuals after m random rankings; its stream
    holds one query more. Relevance is on a coarse grid with zeros in half
    the draws, polarity mixes signs and, for P > 1, one zero component."""
    n = K + int(rng.integers(0, 4))
    dataset = Dataset.single_group(tuple(f"i{i:02d}" for i in range(n)))
    if rng.integers(0, 2):
        counts = rng.integers(0, 3, (m + 1, n)).astype(float)
        counts[:, 0] += 1.0  # every row has mass
        relevance = counts / counts.sum(axis=1, keepdims=True)
    else:
        relevance = rng.dirichlet(np.ones(n), m + 1)
    polarity = rng.choice([-1.0, 0.5, 1.0], (m + 1, P))
    if P > 1:
        polarity[:, int(rng.integers(0, P))] = 0.0
    stream = Stream(
        [f"q{s}" for s in range(m + 1)], np.arange(1, m + 2), polarity,
        dataset.individuals, relevance,
    )
    ledger = Ledger(dataset, stream)
    attention = AttentionModel(int(rng.integers(1, K + 6)))  # cutoff below or above K
    for _ in range(m):
        ledger.update(rng.permutation(n), attention)
    return ledger, attention


class TestW1InsertKernelDifferential:
    """The loop-free kernel against the searchsorted oracle, bit for bit."""

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_kernel_matches_oracle_bits(self, P):
        rng = np.random.default_rng(61 + P)
        for m in range(41):
            for _ in range(3):
                K = int(rng.integers(1, 61))
                base, rel, values = _kernel_inputs(rng, m, K, P)
                got = w1_insert_matrix(base, rel, values)
                want = w1_insert_matrix_oracle(base, rel, values)
                assert got.tobytes() == want.tobytes(), (m, K, P)

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_both_callers_match_oracle_bits(self, P, monkeypatch):
        rng = np.random.default_rng(71 + P)
        for case in range(40):
            m, K = int(rng.integers(0, 41)), int(rng.integers(1, 61))
            ledger, attention = _ranked_ledger(rng, m, K, P)
            rows = rng.permutation(ledger.dataset.n)[:K]
            mode = ("aware", "agnostic")[case % 2]
            config = RerankConfig(kind="W1", k_re=K, k_att=1, k_eval=1, polarity_mode=mode)
            step0 = int(rng.integers(0, m)) if m else None

            def matrices():
                online = divergence_matrix(
                    ledger, rows, ledger.relevance[m, rows], ledger.polarity[m],
                    attention, DivergenceKind.W1, mode,
                )
                if step0 is None:
                    return online, None
                final = _final_w1_matrix(
                    ledger, step0, ledger.polarity[step0], rows, config, attention
                )
                return online, final

            got = matrices()
            with monkeypatch.context() as patched:
                patched.setattr(fairrank.divergence, "w1_insert_matrix", w1_insert_matrix_oracle)
                patched.setattr(fairrank.rerank, "w1_insert_matrix", w1_insert_matrix_oracle)
                want = matrices()
            assert got[0].tobytes() == want[0].tobytes(), (case, m, K, mode)
            if step0 is not None:
                assert got[1].tobytes() == want[1].tobytes(), (case, m, K, mode, step0)
