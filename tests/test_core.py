"""Domain model: attention weights, DCG, the ideal order, the stream's
checks, and the ledger."""

import itertools
import math

import numpy as np
import pytest

from fairrank.core import (
    CHANNELS,
    Assignment,
    AttentionModel,
    Dataset,
    Ledger,
    Stream,
    _accrued,
    _dcg_rows,
    _ndcg_rows,
    attention_weights,
    ideal_order,
)
from fairrank.errors import CoverageError, ValidationError
from oracles import (
    Track,
    dcg_oracle,
    dense_moment_matrices,
    ideal_order_oracle,
    ideal_ranking_oracle,
    moments_at_oracle,
    rows_of,
    running_total,
    sequence_std,
    stream_of,
)


def same_bits(a, b) -> bool:
    """Equal shape and bytes: unlike ``==``, tells 0.0 from -0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def ranked_ids(relevance: dict, ids=None) -> tuple[str, ...]:
    """``ideal_order`` of one relevance dict, over a dataset listing
    ``ids`` (default: the dict's key order), as ids."""
    dataset = Dataset.single_group(tuple(relevance) if ids is None else ids)
    rel = np.array([relevance[i] for i in dataset.individuals])
    return tuple(dataset.individuals[i] for i in ideal_order(dataset.id_order, rel))


class TestAttentionWeights:
    def test_three_positions(self):
        # normalization constant evaluated directly
        z = 1.0 + 1.0 / math.log2(3) + 0.5
        expected = np.array([1.0, 1.0 / math.log2(3), 0.5]) / z
        np.testing.assert_allclose(attention_weights(3, 3), expected, atol=1e-15)
        np.testing.assert_allclose(
            attention_weights(3, 3), [0.46928, 0.29608, 0.23464], atol=1e-5
        )

    def test_single_position(self):
        np.testing.assert_array_equal(attention_weights(1, 10), [1.0])

    def test_zero_beyond_cutoff(self):
        w = attention_weights(12, 10)
        assert w[10] == 0.0 and w[11] == 0.0
        assert w[9] > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 47, 200, 1000])
    @pytest.mark.parametrize("cutoff", [1, 3, 10, 50])
    def test_simplex_and_monotone(self, n, cutoff):
        w = attention_weights(n, cutoff)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(w) <= 0)
        assert np.all(w >= 0)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            attention_weights(0, 10)
        with pytest.raises(ValidationError):
            attention_weights(5, 0)


class TestDcg:
    @staticmethod
    def dcg(values) -> float:
        return float(_dcg_rows(np.array([values]))[0])

    @staticmethod
    def ndcg(values, ideal) -> float:
        return float(_ndcg_rows(np.array([values]), _dcg_rows(np.array([ideal])))[0])

    def test_top_slot(self):
        assert self.dcg([1.0, 0.0]) == 1.0

    def test_second_slot(self):
        assert self.dcg([0.0, 1.0]) == pytest.approx(1.0 / math.log2(3), abs=1e-12)

    def test_all_zero_relevance(self):
        assert self.dcg([0.0, 0.0]) == 0.0

    def test_ndcg_identity(self):
        assert self.ndcg([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_ndcg_swap(self):
        assert self.ndcg([0.0, 1.0], [1.0, 0.0]) == pytest.approx(0.63093, abs=1e-5)

    def test_ndcg_zero_ideal_is_vacuously_perfect(self):
        assert self.ndcg([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_rows_match_the_per_query_ndcg_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 9, 12):
            ideal = -np.sort(-rng.random((30, k)), axis=1)
            values = rng.permuted(ideal, axis=1) * (rng.random((30, k)) < 0.8)
            ideal[3] = 0.0  # a row whose ideal DCG is zero scores 1
            want = []
            for v, i in zip(values.tolist(), ideal.tolist()):
                best = dcg_oracle(range(k), dict(enumerate(i)), k)
                dcg = dcg_oracle(range(k), dict(enumerate(v)), k)
                want.append(1.0 if best == 0.0 else dcg / best)
            got = _ndcg_rows(values, _dcg_rows(ideal))
            assert got.tolist() == want
            assert got[3] == 1.0

    def test_matches_the_dict_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            rel = dict(zip((f"i{j}" for j in range(n)), rng.random(n).tolist()))
            ordering = tuple(rng.permutation(list(rel)))
            k = int(rng.integers(1, n + 1))
            assert self.dcg([rel[i] for i in ordering[:k]]) == dcg_oracle(ordering, rel, k)

    def test_ideal_ordering_maximizes_dcg(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            ids = [f"i{j}" for j in range(n)]
            raw = rng.random(n)
            rel = dict(zip(ids, (raw / math.fsum(raw.tolist())).tolist()))
            ideal = ranked_ids(rel)
            k = int(rng.integers(1, n + 1))
            best = dcg_oracle(ideal, rel, k)
            for perm in itertools.permutations(ids):
                assert dcg_oracle(perm, rel, k) <= best + 1e-12


class TestIdealRanking:
    def test_descending(self):
        assert ranked_ids({"a": 0.7, "b": 0.3}) == ("a", "b")

    def test_tie_break_by_identifier(self):
        assert ranked_ids({"b": 0.5, "a": 0.5}) == ("a", "b")

    def test_three_way(self):
        assert ranked_ids({"a": 0.2, "b": 0.3, "c": 0.5}) == ("c", "b", "a")

    def test_matches_negated_relevance_then_identifier_key(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            ids = [f"i{k:02d}" for k in rng.permutation(n)]
            # a coarse grid makes ties; some individuals get zero, signed or not
            raw = rng.integers(0, 4, n).astype(float)
            raw[0] += 1.0
            values = (raw / raw.sum()).tolist()
            values = [-0.0 if v == 0.0 and rng.random() < 0.5 else v for v in values]
            rel = dict(zip(ids, values))
            assert ranked_ids(rel) == tuple(sorted(rel, key=lambda i: (-rel[i], i)))

    def test_zero_and_negative_zero_tie_by_identifier(self):
        rel = {"c": 0.0, "b": 1.0, "a": -0.0, "d": 0.0}
        assert ranked_ids(rel) == ("b", "a", "c", "d")


# ids whose code-point order differs from ASCII or byte-wise intuition
ID_POOL = (
    "a", "A", "b", "B", "Z", "ab", "a b", "a\u0301", "\u00e1", "\u00e4", "\u00df",
    "\u0130", "\u03a9", "\u03c9", "\u65e5", "\u65e5\u672c", "\U0001f600", "10", "9",
    "\ufb01", "\uff21",
)


class TestIdealOrderKernel:
    """``ideal_order`` against the two-sort reference ordering."""

    @staticmethod
    def _relevance(rng, ids):
        n = len(ids)
        # a coarse grid makes ties; zeros come signed or not, and subnormals
        # (some equal, some next to zero) sit between them and the rest
        raw = rng.integers(0, 4, n).astype(float)
        raw[rng.integers(n)] += 1.0
        values = (raw / raw.sum()).tolist()
        for j in range(n):
            if values[j] == 0.0:
                values[j] = [0.0, -0.0, 5e-324, 1e-310, 2.5e-320][rng.integers(5)]
        return dict(zip(ids, values))

    def test_matches_the_two_sort_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            n = int(rng.integers(1, len(ID_POOL) + 1))
            # dataset order is a random permutation, not sorted
            ids = tuple(ID_POOL[i] for i in rng.permutation(len(ID_POOL))[:n])
            rel = self._relevance(rng, ids)
            assert ranked_ids(rel, ids) == ideal_ranking_oracle(rel)

    def test_dataset_order_does_not_matter(self):
        rng = np.random.default_rng(29)
        rel = self._relevance(rng, ID_POOL)
        assert ranked_ids(rel, ID_POOL[::-1]) == ranked_ids(rel, ID_POOL) == ideal_ranking_oracle(rel)

    def test_single_individual(self):
        assert ranked_ids({"\u00e9": 1.0}) == ideal_ranking_oracle({"\u00e9": 1.0}) == ("\u00e9",)

    def test_zero_signs_and_subnormals(self):
        rel = {"d": 0.0, "c": 5e-324, "b": -0.0, "a": 5e-324, "e": 1.0 - 1e-300}
        assert ranked_ids(rel) == ("e", "a", "c", "b", "d") == ideal_ranking_oracle(rel)

    @staticmethod
    def _rows(rng, n):
        """Seeded rows of length ``n`` for the differential test, named by
        what they cover."""
        distinct = rng.permutation(np.linspace(1.0, 2.0, n)) / n
        yield "tie-free", distinct
        ranked = np.sort(distinct)[::-1]
        for p in sorted({0, n - 2, *rng.integers(0, n - 1, 3).tolist()}):
            # exactly one tied pair, at sorted positions p and p + 1
            tied = ranked.copy()
            tied[p + 1] = tied[p]
            yield f"one tie at {p}", rng.permutation(tied)
        # the kernel orders any finite values: negatives put the pair inside
        signed = rng.permutation(np.linspace(-1.0, 1.0, n + 1)[np.arange(n + 1) != n // 2])
        signed[rng.choice(n, 2, replace=False)] = (0.0, -0.0)
        yield "0.0/-0.0 pair", signed
        # k * 2**-1074 for k = 1..n, half of them scaled up to k * 2**-74
        subnormal = rng.permutation(np.arange(1, n + 1) * 5e-324)
        subnormal[rng.choice(n, n // 2, replace=False)] *= 2.0**1000
        yield "subnormals", subnormal
        tiny = np.flatnonzero(subnormal < 1e-300)
        subnormal[tiny[0]] = subnormal[tiny[-1]]
        yield "a tied subnormal pair", subnormal
        yield "all equal", np.full(n, 1.0 / n)

    @pytest.mark.parametrize("n", [2, 17, 200, 2000, 5000])
    def test_matches_the_stable_argsort_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            # dataset order is a random permutation, not sorted
            id_order = rng.permutation(n)
            for what, rel in self._rows(rng, n):
                assert np.array_equal(
                    ideal_order(id_order, rel), ideal_order_oracle(id_order, rel)
                ), what

    def test_id_order_is_sorted_and_read_only(self):
        dataset = Dataset.single_group(("b", "\u00e4", "a", "B"))
        assert [dataset.individuals[i] for i in dataset.id_order] == ["B", "a", "b", "\u00e4"]
        assert dataset.id_order is dataset.id_order
        with pytest.raises(ValueError):
            dataset.id_order[0] = 1


class TestValidation:
    def test_query_must_be_normalized(self):
        with pytest.raises(ValidationError):
            stream_of([{"a": 0.7, "b": 0.7}])

    def test_query_rejects_negative_relevance(self):
        with pytest.raises(ValidationError):
            stream_of([{"a": 1.2, "b": -0.2}])

    @pytest.mark.parametrize(
        "relevance",
        [
            {"a": 1.3, "b": -0.1, "c": -0.2},
            {"a": math.nan, "b": -0.1, "c": 1.1},
            {"a": 1.1, "b": -0.1, "c": math.nan},
        ],
    )
    def test_negative_relevance_names_the_first_offender(self, relevance):
        with pytest.raises(ValidationError, match=r"negative relevance -0.1 for 'b'"):
            stream_of([relevance])

    def test_stream_with_no_individuals_rejected(self):
        with pytest.raises(ValidationError, match="no individuals"):
            Stream(["q"], [1], [[1.0]], (), np.empty((1, 0)))

    @pytest.mark.parametrize(
        "relevance", [{"a": math.nan}, {"a": 1.0, "b": math.nan}, {"a": math.inf}]
    )
    def test_query_rejects_non_finite_relevance(self, relevance):
        with pytest.raises(ValidationError):
            stream_of([relevance])

    @pytest.mark.parametrize(
        "polarity", [(math.nan,), (math.inf,), (1.0, -math.inf), (0.0, math.nan)]
    )
    def test_query_rejects_non_finite_polarity(self, polarity):
        with pytest.raises(ValidationError):
            stream_of([{"a": 0.5, "b": 0.5}], [polarity])

    def test_query_coverage(self):
        stream = stream_of([{"a": 0.5, "b": 0.5}])
        with pytest.raises(CoverageError):
            stream.relevance_in(Dataset.single_group(("a", "b", "c")))

    def test_dataset_group_map_exact(self):
        with pytest.raises(ValidationError):
            Dataset(("a", "b"), {"a": "g"})
        with pytest.raises(ValidationError):
            Dataset(("a", "a"), {"a": "g"})

    def test_assignment_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Assignment(("a", "a"))


Q = {"a": 0.2, "b": 0.3, "c": 0.5}


def _simple_ledger(relevance=(Q,), polarity=None, cutoff=3):
    dataset = Dataset.single_group(("a", "b", "c"))
    return dataset, Ledger(dataset, stream_of(list(relevance), polarity)), AttentionModel(cutoff)


W1 = float(attention_weights(3, 3)[0])


class TestLedgerUpdate:
    def test_positive_polarity_top_slot(self):
        dataset, ledger, attention = _simple_ledger()
        ledger.update([0, 1, 2], attention)
        mean, var = ledger.moments_at([dataset.index["a"]], "attention", "aware")
        assert mean[0, 0] == pytest.approx(W1, abs=1e-12)
        assert mean[0, 0] == pytest.approx(0.46928, abs=1e-5)

    def test_negative_polarity_flips_mean_not_variance(self):
        dataset, ledger, attention = _simple_ledger(polarity=[(-1.0,)])
        ledger.update([0, 1, 2], attention)
        mean, var = ledger.moments_at([dataset.index["a"]], "attention", "aware")
        assert mean[0, 0] == pytest.approx(-W1, abs=1e-12)
        assert var[0, 0] == pytest.approx(W1 * (1.0 - W1), abs=1e-15)
        assert var[0, 0] == pytest.approx(0.24906, abs=1e-5)

    def test_zero_polarity_freezes_aware_track_only(self):
        dataset, ledger, attention = _simple_ledger(polarity=[(0.0,)])
        ledger.update([0, 1, 2], attention)
        a = [dataset.index["a"]]
        for channel in ("attention", "relevance"):
            mean, var = ledger.moments_at(a, channel, "aware")
            assert mean[0, 0] == 0.0 and var[0, 0] == 0.0
        mean, _ = ledger.moments_at(a, "attention", "agnostic")
        assert mean[0, 0] == pytest.approx(W1, abs=1e-12)

    def test_binds_the_stream_read_only(self):
        dataset = Dataset.single_group(("c", "a", "b"))
        stream = stream_of([Q, {"a": 0.5, "b": 0.5, "c": 0.0}], [(1.0, -1.0), (0.5, 0.0)])
        ledger = Ledger(dataset, stream)
        assert ledger.components == 2 and ledger.t == 0
        assert ledger.relevance.tolist() == [[0.5, 0.2, 0.3], [0.0, 0.5, 0.5]]
        assert ledger.polarity is stream.polarity
        for array in (ledger.relevance, ledger.polarity):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    @pytest.mark.parametrize(
        "relevance",
        [{"a": 0.5, "b": 0.5}, {"a": 0.2, "b": 0.3, "c": 0.4, "d": 0.1}],
        ids=["misses-one", "adds-one"],
    )
    def test_query_covering_other_individuals_rejected(self, relevance):
        with pytest.raises(CoverageError):
            _simple_ledger([relevance])

    @pytest.mark.parametrize(
        "rows",
        [[0, 1], [0, 1, 3], [0, 1, 2, 0], [0, 1, 1], [0, 1, -1], [0.0, 1.0, 2.0], [[0, 1, 2]]],
        ids=["short", "unknown-id", "long", "repeated-id", "negative", "float", "nested"],
    )
    def test_ordering_not_a_permutation_rejected(self, rows):
        dataset, ledger, attention = _simple_ledger()
        with pytest.raises(ValidationError, match="each of the 3 dataset positions once"):
            ledger.update(rows, attention)
        assert ledger.t == 0
        ledger.update(np.array([2, 0, 1], dtype=np.int32), attention)
        assert ledger.t == 1

    def test_update_past_the_end_of_the_stream_rejected(self):
        dataset, ledger, attention = _simple_ledger()
        ledger.update([0, 1, 2], attention)
        with pytest.raises(ValidationError, match="all 1 queries"):
            ledger.update([0, 1, 2], attention)
        assert ledger.t == 1


class TestLedgerAccounting:
    def test_mean_matches_independent_recomputation(self):
        """Cumulative means re-derived with plain Python bookkeeping."""
        rng = np.random.default_rng(7)
        ids = tuple(f"i{j}" for j in range(6))
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(3)
        relevance, polarity, orders = [], [], []
        for _ in range(8):
            relevance.append(dict(zip(ids, rng.dirichlet(np.ones(6)).tolist())))
            polarity.append((float(rng.choice([-1.0, 1.0])),))
            orders.append(tuple(ids[k] for k in rng.permutation(6)))
        ledger = Ledger(dataset, stream_of(relevance, polarity))
        weights = attention.weights(6)
        expect_attn = {i: 0.0 for i in ids}
        expect_rel = {i: 0.0 for i in ids}
        for (eta,), rel, order in zip(polarity, relevance, orders):
            ledger.update(rows_of(dataset, order), attention)
            for pos, ind in enumerate(order, start=1):
                expect_attn[ind] += eta * weights[pos - 1]
            for ind, r in rel.items():
                expect_rel[ind] += eta * r
        for ind in ids:
            mean_a, _ = ledger.moments_at([dataset.index[ind]], "attention", "aware")
            mean_r, _ = ledger.moments_at([dataset.index[ind]], "relevance", "aware")
            assert mean_a[0, 0] == pytest.approx(expect_attn[ind], abs=1e-12)
            assert mean_r[0, 0] == pytest.approx(expect_rel[ind], abs=1e-12)

    def test_agnostic_mean_is_sum_of_position_weights(self):
        rng = np.random.default_rng(8)
        ids = tuple(f"i{j}" for j in range(5))
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(2)
        relevance, polarity, orders = [], [], []
        for _ in range(6):
            rel = rng.dirichlet(np.ones(5))
            polarity.append((float(rng.uniform(-1, 1)),))
            relevance.append(dict(zip(ids, rel.tolist())))
            orders.append(tuple(ids[k] for k in rng.permutation(5)))
        ledger = Ledger(dataset, stream_of(relevance, polarity))
        weights = attention.weights(5)
        expect = {i: 0.0 for i in ids}
        for order in orders:
            ledger.update(rows_of(dataset, order), attention)
            for pos, ind in enumerate(order, start=1):
                expect[ind] += weights[pos - 1]
        for ind in ids:
            mean, _ = ledger.moments_at([dataset.index[ind]], "attention", "agnostic")
            assert mean[0, 0] == pytest.approx(expect[ind], abs=1e-12)

    def test_unit_polarity_tracks_are_bitwise_equal(self):
        rng = np.random.default_rng(11)
        ids = tuple(f"i{j}" for j in range(5))
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(2)
        relevance, orders = [], []
        for _ in range(5):
            relevance.append(dict(zip(ids, rng.dirichlet(np.ones(5)).tolist())))
            orders.append(rng.permutation(5))
        ledger = Ledger(dataset, stream_of(relevance, [(1.0, 1.0)] * 5))
        for rows in orders:
            ledger.update(rows, attention)
        everyone = list(range(5))
        for channel in ("attention", "relevance"):
            aware = ledger.moments_at(everyone, channel, "aware")
            agnostic = ledger.moments_at(everyone, channel, "agnostic")
            np.testing.assert_array_equal(aware[0], agnostic[0])
            np.testing.assert_array_equal(aware[1], agnostic[1])
            np.testing.assert_array_equal(
                ledger.values_at(everyone, channel, "aware"),
                ledger.values_at(everyone, channel, "agnostic"),
            )

    def test_sequence_lengths_track_processed_queries(self):
        dataset, ledger, attention = _simple_ledger([Q] * 3)
        for t in range(1, 4):
            ledger.update([0, 1, 2], attention)
            assert ledger.values_at([dataset.index["b"]], "attention").shape == (t, 1, 1)
            assert ledger.t == t

    def test_variance_non_negative(self):
        rng = np.random.default_rng(3)
        ids = tuple(f"i{j}" for j in range(4))
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(4)
        relevance, polarity = [], []
        for _ in range(6):
            relevance.append(dict(zip(ids, rng.dirichlet(np.ones(4)).tolist())))
            polarity.append((float(rng.uniform(-1, 1)),))
        ledger = Ledger(dataset, stream_of(relevance, polarity))
        for _ in range(6):
            ledger.update(range(4), attention)
        for channel in ("attention", "relevance"):
            assert np.all(ledger.moments_at(range(4), channel, "aware")[1] >= 0)

    def test_sequence_std_is_population_std_of_per_query_values(self):
        relevance = [{"a": rel_a, "b": 0.2, "c": 0.8 - rel_a} for rel_a in (0.5, 0.3)]
        dataset, ledger, attention = _simple_ledger(relevance, cutoff=1)
        for _ in range(2):
            ledger.update([0, 1, 2], attention)
        # a's attention values are [1, 1] -> std 0; relevance [0.5, 0.3] -> std 0.1
        assert sequence_std(ledger, "a", "attention")[0] == 0.0
        assert sequence_std(ledger, "a", "relevance")[0] == pytest.approx(0.1, abs=1e-12)


class TestColumnarStore:
    @pytest.mark.parametrize("P", [1, 2, 3])
    @pytest.mark.parametrize("T", [0, 1, 7, 40])
    def test_reads_equal_the_running_sum_reference(self, P, T):
        """Moments and sequences derived from the store equal running sums
        bit for bit, in both modes, with |eta| != 1 and a zero component."""
        rng = np.random.default_rng(10 * P + T)
        n = 9
        ids = tuple(f"i{k}" for k in range(n))
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(4)
        relevance, polarity, orders = [], [], []
        for t in range(1, T + 1):
            raw = rng.random(n) * (rng.random(n) < 0.8)
            raw[0] += 0.1
            eta = rng.normal(size=P)
            if P > 1:
                eta[t % P] = 0.0
            relevance.append(dict(zip(ids, raw / raw.sum())))
            polarity.append(tuple(eta))
            orders.append(rng.permutation(n))
        # the stream holds one query more than is recorded, so T=0 reads empty
        relevance.append(dict.fromkeys(ids, 1.0 / n))
        polarity.append((1.0,) * P)
        ledger = Ledger(dataset, stream_of(relevance, polarity))
        tracks = {"aware": Track(n, P), "agnostic": Track(n, P)}
        for step, rows in enumerate(orders):
            ledger.update(rows, attention)
            attn = np.empty(n)
            attn[rows] = attention.weights(n)
            rel = np.array([relevance[step][i] for i in ids])
            tracks["aware"].update(np.array(polarity[step]), attn, rel)
            tracks["agnostic"].update(np.ones(P), attn, rel)
        for mode, track in tracks.items():
            for channel, mean, var, seq in (
                ("attention", track.mean_attn, track.var_attn, track.seq_attn),
                ("relevance", track.mean_rel, track.var_rel, track.seq_rel),
            ):
                got_mean, got_var = ledger.moments_at(range(n), channel, mode)
                assert np.array_equal(got_mean, mean) and np.array_equal(got_var, var)
                want = np.stack(seq) if seq else np.zeros((0, n, P))
                assert np.array_equal(ledger.values_at(range(n), channel, mode), want)

    def test_replaced_attention_row_is_read_back_and_restorable(self):
        dataset, ledger, attention = _simple_ledger(polarity=[(-0.5,)])
        ledger.update([0, 1, 2], attention)
        rows = range(3)
        before, _ = ledger.moments_at(rows, "attention", "aware")
        swapped = attention.scatter(np.array([2, 1, 0]))
        kept = ledger._replace_attention(0, swapped)
        np.testing.assert_array_equal(ledger.stored("attention")[0], swapped)
        _, fresh, _ = _simple_ledger(polarity=[(-0.5,)])
        fresh.update([2, 1, 0], attention)
        assert np.array_equal(
            ledger.moments_at(rows, "attention", "aware")[1],
            fresh.moments_at(rows, "attention", "aware")[1],
        )
        ledger._replace_attention(0, kept)
        assert np.array_equal(ledger.moments_at(rows, "attention", "aware")[0], before)
        with pytest.raises(ValidationError):
            ledger._replace_attention(1, swapped)

    def test_replacing_attention_keeps_relevance_moments_and_updates_attention(self):
        rng = np.random.default_rng(5)
        ids = tuple(f"i{k}" for k in range(6))
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(3)
        relevance, polarity, orderings = [], [], []
        for _ in range(4):
            polarity.append(tuple(rng.normal(size=2)))
            relevance.append(dict(zip(ids, rng.dirichlet(np.ones(6)).tolist())))
            orderings.append(rows_of(dataset, rng.permutation(ids)))
        stream = stream_of(relevance, polarity)
        ledger = Ledger(dataset, stream)
        for rows in orderings:
            ledger.update(rows, attention)
        modes = ("aware", "agnostic")
        for channel, mode in itertools.product(CHANNELS, modes):
            ledger._moment_matrices(channel, mode)  # build every matrix
        orderings[1] = orderings[1][::-1]
        ledger._replace_attention(1, attention.scatter(np.array(orderings[1])))
        fresh = Ledger(dataset, stream)
        for rows in orderings:
            fresh.update(rows, attention)
        for channel, mode in itertools.product(CHANNELS, modes):
            got = ledger._moment_matrices(channel, mode)
            want = fresh._moment_matrices(channel, mode)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestAdvancedMoments:
    """Moment matrices advanced by each update equal a ``cumsum`` rebuild from
    the store, bit for bit, whenever and however they are read."""

    @staticmethod
    def _stream(rng, ids, P, T):
        """A stream drawn up front, before any ranking is drawn."""
        n = len(ids)
        relevance, polarity = [], []
        for _ in range(T):
            raw = rng.random(n) * (rng.random(n) < 0.7)
            raw[0] += 0.1
            values = [-0.0 if v == 0.0 and rng.random() < 0.5 else v
                      for v in (raw / raw.sum()).tolist()]
            polarity.append(rng.choice([1.0, -1.0, 0.5, 0.0, -0.0, -2.0], P).tolist())
            relevance.append(dict(zip(ids, values)))
        return stream_of(relevance, polarity)

    def _assert_matches_rebuild(self, ledger, rows):
        for channel, mode in itertools.product(CHANNELS, ("aware", "agnostic")):
            got = ledger.moments_at(rows, channel, mode)
            want = moments_at_oracle(ledger, rows, channel, mode)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            everyone = list(range(ledger.dataset.n))
            mean, var = moments_at_oracle(ledger, everyone, channel, mode)
            got_mean, got_var = ledger._moment_matrices(channel, mode)
            assert same_bits(got_mean, mean) and same_bits(got_var, var)

    @pytest.mark.parametrize("P", [1, 3])
    def test_reads_interleaved_with_updates(self, P):
        rng = np.random.default_rng(31 + P)
        ids = tuple(f"i{k}" for k in range(11))
        ledger = Ledger(Dataset.single_group(ids), self._stream(rng, ids, P, 30))
        attention = AttentionModel(4)
        for _ in range(30):
            # build a random subset of the four matrices before the update,
            # so entries are built at different steps and then advanced
            for channel, mode in itertools.product(CHANNELS, ("aware", "agnostic")):
                if rng.random() < 0.3:
                    ledger.moments_at([int(rng.integers(len(ids)))], channel, mode)
            ledger.update(rng.permutation(len(ids)), attention)
            if rng.random() < 0.5:
                self._assert_matches_rebuild(ledger, rng.permutation(len(ids))[:4].tolist())
        self._assert_matches_rebuild(ledger, list(range(len(ids))))

    @pytest.mark.parametrize("P", [1, 3])
    def test_updates_after_replace_attention(self, P):
        rng = np.random.default_rng(41 + P)
        ids = tuple(f"i{k}" for k in range(7))
        ledger = Ledger(Dataset.single_group(ids), self._stream(rng, ids, P, 12))
        attention = AttentionModel(3)
        for step in range(12):
            ledger.update(rng.permutation(len(ids)), attention)
            self._assert_matches_rebuild(ledger, [0, 3, 6])
            if step in (3, 4, 8):
                step0 = int(rng.integers(ledger.t))
                proposal = rng.permutation(len(ids))
                ledger._replace_attention(step0, attention.scatter(proposal))
                self._assert_matches_rebuild(ledger, [1, 2])

    def test_negative_zero_store_reads_back_positive_zero(self):
        """A column of -0.0 terms sums to 0.0, as a running total from 0.0 does."""
        dataset = Dataset.single_group(("a", "b"))
        ledger = Ledger(dataset, stream_of([{"a": 1.0, "b": 0.0}] * 2, [(-1.0,)] * 2))
        attention = AttentionModel(1)
        ledger.moments_at([0, 1], "relevance", "aware")
        for _ in range(2):
            ledger.update([0, 1], attention)
        mean, _ = ledger.moments_at([1], "relevance", "aware")
        assert same_bits(mean, np.zeros((1, 1)))
        assert same_bits(mean, moments_at_oracle(ledger, [1], "relevance", "aware")[0])


class TestHeadCells:
    """Attention is read from its nonzero (head) cells: the cells are the
    stored matrix's nonzero entries in arrival order, and the moment
    matrices summed over them equal the dense build bit for bit, however
    the ledger was written."""

    @staticmethod
    def _ledgers(P, T, k_att, n=9):
        rng = np.random.default_rng(100 * P + 10 * T + k_att)
        ids = tuple(f"i{k}" for k in range(n))
        stream = TestAdvancedMoments._stream(rng, ids, P, T)
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(k_att)
        orderings = np.array([rng.permutation(n) for _ in range(T)])
        updated = Ledger(dataset, stream)
        for step, rows in enumerate(orderings):
            if step == T // 2:
                for mode in ("aware", "agnostic"):
                    updated._moment_matrices("attention", mode)
            updated.update(rows, attention)
        filled = Ledger(dataset, stream)
        filled._fill(orderings, attention)
        replaced = Ledger(dataset, stream)
        replaced._fill(orderings, attention)
        for step0 in rng.choice(T, size=min(T, 2), replace=False).tolist():
            replaced._moment_matrices("attention", "agnostic")
            replaced._replace_attention(step0, attention.scatter(rng.permutation(n)))
        return updated, filled, replaced

    CASES = [(1, 1, 3), (1, 30, 4), (2, 1, 9), (2, 8, 2), (3, 12, 5), (3, 6, 20)]

    @pytest.mark.parametrize("P, T, k_att", CASES)
    def test_cells_are_the_nonzero_cells_in_arrival_order(self, P, T, k_att):
        for ledger in self._ledgers(P, T, k_att):
            steps, rows, values = ledger._head_cells()
            stored = ledger.stored("attention")
            want_steps, want_rows = np.nonzero(stored)
            assert np.array_equal(steps, want_steps) and np.array_equal(rows, want_rows)
            assert same_bits(values, stored[want_steps, want_rows])
            assert len(values) == T * min(k_att, ledger.dataset.n)

    @pytest.mark.parametrize("P, T, k_att", CASES)
    def test_moments_equal_the_dense_build(self, P, T, k_att):
        for ledger in self._ledgers(P, T, k_att):
            for mode in ("aware", "agnostic"):
                got = ledger._moment_matrices("attention", mode)
                want = dense_moment_matrices(ledger, "attention", mode)
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), mode

    def test_writes_drop_the_cells(self):
        updated, _, replaced = self._ledgers(2, 6, 3)
        for ledger in (updated, replaced):
            ledger._head_cells()
            assert ledger._cells is not None
        replaced._replace_attention(0, AttentionModel(1).scatter(np.arange(9)))
        assert replaced._cells is None
        steps, rows, _ = replaced._head_cells()
        assert steps.tolist()[:1] == [0] and rows.tolist()[:1] == [0]
        assert (steps == 0).sum() == 1

    def test_empty_ledger_moments_are_float_zeros(self):
        ledger = Ledger(Dataset.single_group(("a", "b")), stream_of([{"a": 0.5, "b": 0.5}]))
        for mode in ("aware", "agnostic"):
            mean, var = ledger._moment_matrices("attention", mode)
            assert same_bits(mean, np.zeros((2, 1))) and same_bits(var, np.zeros((2, 1)))
        ledger.update([1, 0], AttentionModel(1))
        mean, var = ledger._moment_matrices("attention", "aware")
        assert same_bits(mean, np.array([[0.0], [1.0]]))


class TestDerivedFields:
    """``_moments`` and ``_cells``, as the writes leave them, equal a fresh
    ledger's build bit for bit, over random interleavings of ``_fill``,
    ``update`` and ``_replace_attention`` with reads between the writes, so
    that pairs are built at different steps and then advanced or dropped."""

    PAIRS = list(itertools.product(CHANNELS, ("aware", "agnostic")))

    def _read_some(self, rng, ledger):
        for channel, mode in self.PAIRS:
            if rng.random() < 0.4:
                ledger._moment_matrices(channel, mode)
        if rng.random() < 0.4:
            ledger._head_cells()

    @staticmethod
    def _assert_matches_fresh(ledger, stream, orderings, attention):
        fresh = Ledger(ledger.dataset, stream)
        for rows in orderings:
            fresh.update(rows, attention)
        assert ledger.t == fresh.t
        for (channel, mode), got in ledger._moments.items():
            want = fresh._moment_matrices(channel, mode)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (channel, mode)
        if ledger._cells is not None:
            for got, want in zip(ledger._cells, fresh._head_cells()):
                assert same_bits(got, want)

    @pytest.mark.parametrize("P", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_interleavings_match_a_fresh_build(self, P, seed):
        rng = np.random.default_rng(1000 * P + seed)
        n, T = 8, 12
        ids = tuple(f"i{k}" for k in range(n))
        # signed polarity with zero components of both signs
        stream = TestAdvancedMoments._stream(rng, ids, P, T)
        attention = AttentionModel(int(rng.integers(1, n + 1)))
        ledger = Ledger(Dataset.single_group(ids), stream)
        orderings = []
        self._read_some(rng, ledger)
        if rng.random() < 0.5:  # replay's bulk write, into the empty ledger
            orderings = [rng.permutation(n) for _ in range(T)]
            ledger._fill(np.array(orderings), attention)
            self._assert_matches_fresh(ledger, stream, orderings, attention)
            self._read_some(rng, ledger)
        for _ in range(2 * T):
            if ledger.t < T and (not ledger.t or rng.random() < 0.6):
                orderings.append(rng.permutation(n))
                ledger.update(orderings[-1], attention)
            else:
                step0 = int(rng.integers(ledger.t))
                orderings[step0] = rng.permutation(n)
                ledger._replace_attention(step0, attention.scatter(orderings[step0]))
            self._assert_matches_fresh(ledger, stream, orderings, attention)
            self._read_some(rng, ledger)
        self._assert_matches_fresh(ledger, stream, orderings, attention)


class TestAccrued:
    """``_accrued`` equals the ``cumsum`` running total bit for bit."""

    @staticmethod
    def _steps(rng, T, n, P):
        """Moment terms eta * x with ties, exact zeros of both signs and
        all-(-0.0) columns."""
        x = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0 / 3.0], (T, n, 1))
        x[rng.random((T, n, 1)) < 0.5] = rng.random()
        eta = rng.choice([1.0, -1.0, 0.5, 0.0, -0.0, -2.0], (T, 1, P))
        return eta * x

    def test_matches_running_total(self):
        rng = np.random.default_rng(83)
        shapes = [(T, n, P) for T in (0, 1, 2, 9, 40) for n in (1, 2, 7) for P in (1, 2, 3)]
        shapes += [(200, 1, 1), (200, 2, 1), (200, 1, 2), (64, 300, 1)]
        for T, n, P in shapes:
            for _ in range(20):
                steps = self._steps(rng, T, n, P)
                assert same_bits(_accrued(steps), running_total(steps)), (T, n, P)
                # a fancy-index copy lays T innermost
                rows = rng.permutation(n)[: max(1, n - 1)].tolist()
                taken = steps[:, rows, :]
                assert same_bits(_accrued(taken), running_total(taken)), (T, n, P, rows)

    def test_all_negative_zero_column_sums_to_positive_zero(self):
        for shape in ((3, 1, 1), (3, 2, 1), (1, 1, 2)):
            assert same_bits(_accrued(np.full(shape, -0.0)), np.zeros(shape[1:]))
