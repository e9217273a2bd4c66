"""Unfairness metrics: worst-case, sum-based, group-level, and sentinels."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fairrank.core import AttentionModel, Dataset, Ledger, Stream
from fairrank.divergence import DivergenceKind
from fairrank.errors import EmptyScopeError, ValidationError
from fairrank.metrics import (
    build_report,
    dp,
    eur,
    fairwashing_delta,
    group_divergences,
    group_summaries,
    group_unfairness,
    iaa,
    individual_divergences,
    individual_unfairness,
    metrics_panel,
    relative_improvement,
    _divergence_values,
    _read,
)
from fairrank.rerank import RerankConfig, evaluate_run, rerank_online
from fairrank.synth import fairwashing_scenario, gen_random_instance
from fairrank.verify import random_ledger
from oracles import dense_read, dense_w1, individual_divergences_oracle, rows_of, stream_of

KINDS = (DivergenceKind.L1, DivergenceKind.L2VAR, DivergenceKind.W1)


def winner_takes_all_ledger(relevances, orders, groups=None):
    """Attention model [1, 0, ...]: position 1 gets everything."""
    ids = tuple(sorted(relevances[0]))
    if groups is None:
        dataset = Dataset.single_group(ids)
    else:
        dataset = Dataset(ids, groups)
    ledger = Ledger(dataset, stream_of(relevances))
    attention = AttentionModel(1)
    for order in orders:
        ledger.update(rows_of(dataset, order), attention)
    return ledger, dataset


class TestIndividualUnfairness:
    def test_max_of_divergences(self):
        # gaps: a |1 - .5| = .5, b .3, c .2
        ledger, _ = winner_takes_all_ledger(
            [{"a": 0.5, "b": 0.3, "c": 0.2}], [("a", "b", "c")]
        )
        values = individual_divergences(ledger, DivergenceKind.L1)
        assert values == pytest.approx({"a": 0.5, "b": 0.3, "c": 0.2})
        assert individual_unfairness(ledger, DivergenceKind.L1) == pytest.approx(0.5)
        assert iaa(ledger) == pytest.approx(1.0)

    def test_calibrated_stream_is_fair_under_every_kind(self):
        ids = ("a", "b", "c")
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(3)
        w = attention.weights(3)
        rel = dict(zip(ids, (float(w[0]), float(w[1]), float(w[2]))))
        ledger = Ledger(dataset, stream_of([rel] * 3))
        for _ in range(3):
            ledger.update([0, 1, 2], attention)
        for kind in KINDS:
            assert individual_unfairness(ledger, kind) == 0.0
            assert group_unfairness(ledger, kind) == 0.0
        assert iaa(ledger) == 0.0

    def test_scope_restricts_the_max(self):
        ledger, _ = winner_takes_all_ledger(
            [{"a": 0.5, "b": 0.3, "c": 0.2}], [("a", "b", "c")]
        )
        assert individual_unfairness(
            ledger, DivergenceKind.L1, scope=("b", "c")
        ) == pytest.approx(0.3)
        with pytest.raises(EmptyScopeError):
            individual_unfairness(ledger, DivergenceKind.L1, scope=())

    @pytest.mark.parametrize("P", [1, 2, 3])
    @pytest.mark.parametrize("T", [1, 2, 7, 40])
    def test_divergences_bit_identical_to_per_individual_oracle(self, P, T):
        # T=40 > 8 makes the per-individual mean a pairwise sum when P == 1
        rng = np.random.default_rng(100 * P + T)
        n = 9
        ids = tuple(f"i{k}" for k in range(n))
        dataset = Dataset.single_group(ids)
        attention = AttentionModel(6)
        relevance, polarities, orders = [], [], []
        for t in range(1, T + 1):
            raw = rng.random(n) * (rng.random(n) < 0.8)
            raw[0] += 0.1
            polarity = rng.normal(size=P)
            if P > 1:
                polarity[t % P] = 0.0  # a zero polarity component
            relevance.append(dict(zip(ids, raw / raw.sum())))
            polarities.append(tuple(polarity))
            orders.append(rng.permutation(n))
        ledger = Ledger(dataset, stream_of(relevance, polarities))
        for rows in orders:
            ledger.update(rows, attention)
        scope = ("i7", "i2", "i5", "i0")  # a subset in non-dataset order
        for kind in KINDS:
            for mode in ("aware", "agnostic"):
                for sc in (None, scope):
                    got = individual_divergences(ledger, kind, mode, sc)
                    want = individual_divergences_oracle(ledger, kind, mode, sc)
                    assert list(got) == list(want)
                    for ind in want:
                        assert got[ind] == want[ind], (kind, mode, ind)
                        assert type(got[ind]) is float

    def test_empty_ledger_rejected(self):
        dataset = Dataset.single_group(("a",))
        with pytest.raises(EmptyScopeError):
            individual_unfairness(Ledger(dataset, stream_of([{"a": 1.0}])), DivergenceKind.L1)

    def test_iaa_dominates_worst_case_l1(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            _, ledger = random_ledger(rng)
            for mode in ("aware", "agnostic"):
                assert iaa(ledger, mode) >= individual_unfairness(
                    ledger, DivergenceKind.L1, mode
                ) - 1e-12


class TestGroupUnfairness:
    def test_singleton_groups_reduce_to_individuals(self):
        groups = {"a": "ga", "b": "gb", "c": "gc"}
        ledger, dataset = winner_takes_all_ledger(
            [{"a": 0.5, "b": 0.3, "c": 0.2}], [("a", "b", "c")], groups
        )
        for kind in KINDS:
            assert group_unfairness(ledger, kind) == pytest.approx(
                individual_unfairness(ledger, kind), abs=1e-15
            )

    def test_group_sequence_averages_members(self):
        # one group holding a and b: per-query group attention (0.4+0.2)/2
        ids = ("a", "b")
        dataset = Dataset(ids, {"a": "g", "b": "g"})
        ledger = Ledger(dataset, stream_of([{"a": 0.5, "b": 0.5}]))
        attention = AttentionModel(2)
        w = attention.weights(2)  # [0.6131.., 0.3868..]
        ledger.update([0, 1], attention)
        summary = group_summaries(ledger)["g"]
        assert summary.seq_attn[0, 0] == pytest.approx((w[0] + w[1]) / 2, abs=1e-15)
        assert summary.mean_attn[0] == pytest.approx(0.5, abs=1e-15)
        # variance accrues at 1/|g|^2 of summed member variances
        expected_var = (w[0] * (1 - w[0]) + w[1] * (1 - w[1])) / 4
        assert summary.var_attn[0] == pytest.approx(expected_var, abs=1e-15)

    def test_group_never_exceeds_individual(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            dataset, ledger = random_ledger(rng)
            for kind in KINDS:
                for mode in ("aware", "agnostic"):
                    gu = group_unfairness(ledger, kind, mode, dataset)
                    iu = individual_unfairness(ledger, kind, mode)
                    assert gu <= iu + 1e-9


class TestBaselineMetrics:
    def test_eur_and_dp_two_groups(self):
        groups = {"a": "g1", "b": "g2"}
        ledger, dataset = winner_takes_all_ledger(
            [{"a": 0.5, "b": 0.5}], [("a", "b")], groups
        )
        # exposures: 1 and 0; relevances: 0.5 and 0.5 -> ratios 2 and 0
        assert eur(ledger, "agnostic", dataset) == pytest.approx(2.0)
        assert dp(ledger, "agnostic", dataset) == pytest.approx(1.0)

    def test_eur_zero_when_calibrated(self):
        groups = {"a": "g1", "b": "g2"}
        ids = ("a", "b")
        dataset = Dataset(ids, groups)
        attention = AttentionModel(2)
        w = attention.weights(2)
        ledger = Ledger(dataset, stream_of([{"a": float(w[0]), "b": float(w[1])}]))
        ledger.update([0, 1], attention)
        assert eur(ledger, "agnostic", dataset) == pytest.approx(0.0, abs=1e-12)
        assert dp(ledger, "agnostic", dataset) == pytest.approx(
            float(w[0] - w[1]), abs=1e-12
        )

    def test_eur_three_groups_max_pairwise(self):
        groups = {"a": "g1", "b": "g2", "c": "g3"}
        ledger, dataset = winner_takes_all_ledger(
            [{"a": 0.5, "b": 0.3, "c": 0.2}], [("a", "b", "c")], groups
        )
        # ratios: 1/.5=2, 0, 0 -> max pairwise 2
        assert eur(ledger, "agnostic", dataset) == pytest.approx(2.0)

    def test_eur_undefined_on_zero_group_relevance(self):
        groups = {"a": "g1", "b": "g2"}
        ledger, dataset = winner_takes_all_ledger(
            [{"a": 1.0, "b": 0.0}], [("a", "b")], groups
        )
        assert math.isnan(eur(ledger, "agnostic", dataset))

    @staticmethod
    def _alternating_runs(scale=None):
        """A fair and a pass-through run of two equal groups on a stream whose
        polarity alternates +1, -1 over an even number of queries: aware,
        each group's signed exposure and relevance are minus the other's, so
        the exact aware eur is 0. ``scale`` multiplies the last query's
        polarity (then the exact aware eur is not 0)."""
        rng = np.random.default_rng(5)
        ids = tuple(f"m{i:02d}" for i in range(10)) + tuple(f"f{i:02d}" for i in range(10))
        dataset = Dataset(ids, {i: i[0] for i in ids})
        relevance, polarities = [], []
        for t in range(6):
            raw = rng.random(len(ids)) + 0.5
            relevance.append(dict(zip(ids, (raw / raw.sum()).tolist())))
            polarity = 1.0 if t % 2 == 0 else -1.0
            if scale is not None and t == 5:
                polarity *= scale
            polarities.append((polarity,))
        stream = stream_of(relevance, polarities, query_ids=[f"q{t}" for t in range(6)])
        config = RerankConfig(kind="W1", objective="minmax", theta=0.95, k_re=8,
                              k_att=5, k_eval=5)
        fair = rerank_online(dataset, stream, config)
        baseline = rerank_online(dataset, stream, replace(config, objective="none"))
        return fair, baseline

    def test_exact_zero_eur_reads_zero_and_its_improvement_undefined(self):
        fair, baseline = self._alternating_runs()
        report = evaluate_run(fair, baseline=baseline)
        assert eur(fair.ledger, "aware") == 0.0
        assert eur(baseline.ledger, "aware") == 0.0
        assert report.panels["aware"].eur == 0.0
        assert math.isnan(report.improvement["aware"]["eur"])
        assert report.fairwashing["eur"] == -1.0
        # agnostic, the groups' ratios differ
        assert report.panels["agnostic"].eur > 1e-3

    def test_small_nonzero_eur_is_kept(self):
        # the last polarity moved by 1e-9: the aware eur is about 1e-7, far
        # above its summation-error bound, and stays as computed
        fair, _ = self._alternating_runs(scale=1.0 + 1e-9)
        assert 1e-8 < eur(fair.ledger, "aware") < 1e-6

    def test_dp_single_group_is_zero(self):
        ledger, dataset = winner_takes_all_ledger([{"a": 1.0}], [("a",)])
        assert dp(ledger, "agnostic", dataset) == 0.0


class TestSentinels:
    def test_fairwashing_positive(self):
        assert fairwashing_delta(1.0, 0.5) == pytest.approx(1.0)

    def test_fairwashing_negative(self):
        assert fairwashing_delta(0.5, 1.0) == pytest.approx(-0.5)

    def test_fairwashing_infinite(self):
        assert fairwashing_delta(1.0, 0.0) == math.inf

    def test_fairwashing_zero_over_zero(self):
        assert fairwashing_delta(0.0, 0.0) == 0.0

    def test_relative_improvement_table_value(self):
        assert relative_improvement(1.0, 0.175) == pytest.approx(0.825)

    def test_relative_improvement_no_change(self):
        assert relative_improvement(0.7, 0.7) == 0.0

    def test_relative_improvement_worsening_is_negative(self):
        assert relative_improvement(0.5, 0.6) < 0.0

    def test_relative_improvement_undefined_on_zero_pre(self):
        assert math.isnan(relative_improvement(0.0, 0.3))


class TestPolarityScenario:
    def test_flip_scenario_exact_values(self):
        dataset, stream, orderings, attention = fairwashing_scenario()
        ledger = Ledger(dataset, stream)
        for rows in orderings:
            ledger.update(rows, attention)
        assert individual_unfairness(ledger, DivergenceKind.L1, "agnostic") == 0.0
        assert individual_unfairness(ledger, DivergenceKind.L1, "aware") == 1.0
        assert iaa(ledger, "aware") == 2.0
        assert fairwashing_delta(
            individual_unfairness(ledger, DivergenceKind.L1, "aware"),
            individual_unfairness(ledger, DivergenceKind.L1, "agnostic"),
        ) == math.inf

    def test_unit_polarity_modes_agree_exactly(self):
        dataset, stream = gen_random_instance(8, 3, 5, "unit", seed=5)
        attention = AttentionModel(4)
        ledger = Ledger(dataset, stream)
        rng = np.random.default_rng(5)
        for _ in range(len(stream)):
            ledger.update(rng.permutation(8), attention)
        aware = metrics_panel(ledger, "aware", dataset)
        agnostic = metrics_panel(ledger, "agnostic", dataset)
        assert aware.to_dict() == agnostic.to_dict()


class TestReport:
    def test_report_structure_and_washing_panel(self):
        dataset, stream, orderings, attention = fairwashing_scenario()
        ledger = Ledger(dataset, stream)
        for rows in orderings:
            ledger.update(rows, attention)
        report = build_report(ledger, dataset)
        assert set(report.panels) == {"aware", "agnostic"}
        assert report.fairwashing["individual.L1"] == math.inf
        doc = report.to_dict()
        assert set(doc["metrics"]["aware"]["individual"]) == {"L1", "L2var", "W1"}

    def test_group_divergences_by_name(self):
        groups = {"a": "g1", "b": "g2"}
        ledger, dataset = winner_takes_all_ledger(
            [{"a": 0.5, "b": 0.5}], [("a", "b")], groups
        )
        values = group_divergences(ledger, DivergenceKind.L1, "agnostic", dataset)
        assert values == pytest.approx({"g1": 0.5, "g2": 0.5})

    def test_one_group_summary_build_per_panel(self, monkeypatch):
        import fairrank.metrics as metrics

        dataset, ledger = random_ledger(np.random.default_rng(5))
        built = []
        summary = metrics.GroupSummary

        def counting(**fields):
            built.append(fields["group"])
            return summary(**fields)

        monkeypatch.setattr(metrics, "GroupSummary", counting)
        build_report(ledger, dataset)
        assert len(built) == 2 * len(dataset.groups)  # one build per polarity mode
        other = Dataset(dataset.individuals, dict.fromkeys(dataset.individuals, "all"))
        metrics_panel(ledger, "aware", other)
        assert len(built) == 2 * len(dataset.groups) + 1  # a new dataset rebuilds

    def test_report_after_a_further_update_reflects_the_new_state(self):
        rng = np.random.default_rng(11)
        dataset, stream = gen_random_instance(9, 3, 6, "signed", seed=3)
        attention = AttentionModel(4)
        orders = [rng.permutation(9) for _ in range(len(stream))]
        ledger = Ledger(dataset, stream)
        reports = []
        for rows in orders:
            ledger.update(rows, attention)
            reports.append(build_report(ledger, dataset).to_dict())
            fresh = Ledger(dataset, stream)
            for o in orders[: ledger.t]:
                fresh.update(o, attention)
            assert repr(reports[-1]) == repr(build_report(fresh, dataset).to_dict())
        assert len({repr(r["metrics"]["aware"]["group"]) for r in reports}) == len(stream)


def _grouped_case(P, T, tied, zero_component, seed, n=11):
    """A signed stream over ``n`` individuals in two groups that interleave
    in dataset order, plus a singleton group."""
    dataset, stream = gen_random_instance(n, 2, T, "signed", seed=seed, components=P)
    ids = dataset.individuals
    dataset = Dataset(ids, {i: "solo" if k == 4 else f"g{k % 2}" for k, i in enumerate(ids)})
    polarity, relevance = np.array(stream.polarity), np.array(stream.relevance)
    if zero_component:
        polarity[:, -1] = 0.0
    if tied:
        relevance = np.round(relevance * 3) + 1.0
        relevance /= relevance.sum(axis=1, keepdims=True)
    return dataset, Stream(stream.query_ids, stream.t, polarity, stream.individuals, relevance)


def _array_sizes(value):
    if isinstance(value, np.ndarray):
        return [value.size]
    if isinstance(value, dict):
        value = list(value.values())
    elif hasattr(value, "__dataclass_fields__"):
        value = list(vars(value).values())
    if isinstance(value, (tuple, list)):
        return [size for item in value for size in _array_sizes(item)]
    return []


SHARED_CASES = [
    # (P, T, tied relevance, a zero polarity component)
    (1, 1, False, False),
    (1, 12, True, False),
    (2, 1, False, True),
    (2, 12, False, True),
    (3, 12, True, True),
    (3, 10, False, False),
]


class TestSharedRelevance:
    """A run and its baseline read each mode's relevance once, together."""

    @pytest.mark.parametrize("P, T, tied, zero_component", SHARED_CASES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_shared_relevance_report_equals_the_unshared_one(
        self, P, T, tied, zero_component, kind
    ):
        seed = 10 * P + T
        dataset, stream = _grouped_case(P, T, tied, zero_component, seed)
        mode = ("aware", "agnostic")[seed % 2]
        config = RerankConfig(kind=kind, k_re=6, k_att=3, k_eval=4, polarity_mode=mode)
        run = rerank_online(dataset, stream, config)
        baseline = rerank_online(dataset, stream, replace(config, objective="none"))
        shared = evaluate_run(run, baseline=baseline).to_dict()
        unshared = evaluate_run(run, baseline=evaluate_run(baseline)).to_dict()
        assert repr(shared) == repr(unshared)
        assert repr(shared["metrics"]) == repr(evaluate_run(run).to_dict()["metrics"])

    @pytest.mark.parametrize("P, T, tied, zero_component", SHARED_CASES[3:])
    def test_no_memo_value_holds_a_stream_sized_array(self, P, T, tied, zero_component):
        dataset, stream = _grouped_case(P, T, tied, zero_component, seed=P)
        config = RerankConfig(kind=DivergenceKind.W1, k_re=6, k_att=3, k_eval=4)
        run = rerank_online(dataset, stream, config)
        baseline = rerank_online(dataset, stream, replace(config, objective="none"))
        evaluate_run(run, baseline=baseline)
        T, n = stream.relevance.shape
        for ledger in (run.ledger, baseline.ledger):
            assert ledger._moments and ledger._cells is not None
            for key, value in [*ledger._moments.items(), ("cells", ledger._cells)]:
                assert sum(_array_sizes(value)) < T * n, key


HEAD_CASES = [
    # (P, T, k_att, zero polarity component, n)
    (1, 1, 3, False, 11),
    (1, 12, 3, False, 11),
    (1, 40, 4, False, 11),
    (2, 1, 2, True, 11),
    (2, 9, 4, True, 11),
    (3, 7, 3, False, 11),
    (3, 10, 5, True, 11),
    # k_att >= n: every cell holds attention
    (1, 6, 20, False, 11),
    (2, 1, 20, True, 11),
    (3, 5, 11, False, 11),
    # groups of 15 and 14: numpy sums a lone column of 8 or more pairwise
    (1, 1, 30, False, 30),
    (1, 2, 30, False, 30),
]


def _head_ledgers(P, T, k_att, zero_component, n, draw=0):
    """Ledgers over a signed stream of ``n`` individuals grouped as in
    ``_grouped_case``, written by ``update`` (with the moments memoised half
    way, so ``update`` advances them), by replay's ``_fill`` and by
    descent's ``_replace_attention``."""
    seed = 7 * P + T + k_att + n + 1000 * draw
    dataset, stream = _grouped_case(P, T, False, zero_component, seed, n)
    rng = np.random.default_rng(seed)
    attention = AttentionModel(k_att)
    orderings = np.array([rng.permutation(n) for _ in range(T)])
    updated = Ledger(dataset, stream)
    for step, rows in enumerate(orderings):
        if step == T // 2:
            for channel in ("attention", "relevance"):
                for mode in ("aware", "agnostic"):
                    updated._moment_matrices(channel, mode)
        updated.update(rows, attention)
    filled = Ledger(dataset, stream)
    filled._fill(orderings, attention)
    replaced = Ledger(dataset, stream)
    replaced._fill(orderings, attention)
    for step0 in rng.choice(T, size=min(T, 3), replace=False).tolist():
        replaced._moment_matrices("attention", "aware")
        replaced._replace_attention(step0, attention.scatter(rng.permutation(n)))
    return dataset, {"update": updated, "fill": filled, "replace": replaced}


class TestHeadCellReading:
    """The attention pass reads only its head cells. It equals the dense
    reading kept in ``oracles.dense_read``: moments and W1 bit for bit,
    group per-query sums by value (a query that gives a group no attention
    may read 0.0 where the dense sum read -0.0)."""

    @pytest.mark.parametrize("P, T, k_att, zero_component, n", HEAD_CASES)
    def test_equals_the_dense_reading(self, P, T, k_att, zero_component, n):
        cases = [_head_ledgers(P, T, k_att, zero_component, n, draw) for draw in range(3)]
        for dataset, ledgers in cases:
            self._assert_equal_to_dense(dataset, ledgers)

    @staticmethod
    def _assert_equal_to_dense(dataset, ledgers):
        for how, ledger in ledgers.items():
            for mode in ("aware", "agnostic"):
                got = _read(ledger, "attention", mode, dataset)
                mean, var, ordered, groups = dense_read(ledger, "attention", mode, dataset)
                assert got.mean.tobytes() == mean.tobytes(), (how, mode)
                assert got.var.tobytes() == var.tobytes(), (how, mode)
                relevance = _read(ledger, "relevance", mode, dataset)
                w1 = _divergence_values(DivergenceKind.W1, got, relevance)
                assert w1.tobytes() == dense_w1(ordered, relevance.ordered).tobytes(), (how, mode)
                assert list(got.groups) == list(groups)
                for group, (size, g_mean, g_var, seq) in groups.items():
                    got_size, got_mean, got_var, got_seq = got.groups[group]
                    assert got_size == size
                    assert got_mean.tobytes() == g_mean.tobytes()
                    assert got_var.tobytes() == g_var.tobytes()
                    assert got_seq.shape == seq.shape
                    assert np.array_equal(got_seq, seq), (how, mode, group)


class TestDatasetMustMatchLedger:
    """A dataset handed to the metrics must list the ledger's individuals in
    the ledger's order; it may regroup them."""

    CONFIG = RerankConfig(k_re=6, k_att=3, k_eval=4)

    def _run(self):
        dataset, stream = _grouped_case(2, 6, False, False, seed=4)
        return dataset, stream, rerank_online(dataset, stream, self.CONFIG)

    def test_reversed_dataset_is_rejected(self):
        dataset, _, run = self._run()
        reversed_ds = Dataset(tuple(reversed(dataset.individuals)), dataset.group_of)
        for read in (
            lambda: group_divergences(run.ledger, DivergenceKind.L1, "agnostic", reversed_ds),
            lambda: group_summaries(run.ledger, "aware", reversed_ds),
            lambda: eur(run.ledger, "aware", reversed_ds),
            lambda: metrics_panel(run.ledger, "aware", reversed_ds),
            lambda: build_report(run.ledger, reversed_ds),
            lambda: evaluate_run(run, dataset=reversed_ds),
        ):
            with pytest.raises(ValidationError, match="ledger's order"):
                read()

    def test_foreign_dataset_is_rejected(self):
        dataset, stream, run = self._run()
        foreign = Dataset.single_group(tuple(f"other{k}" for k in range(dataset.n)))
        with pytest.raises(ValidationError, match="ledger's individuals"):
            evaluate_run(run, dataset=foreign)
        baseline = rerank_online(dataset, stream, replace(self.CONFIG, objective="none"))
        with pytest.raises(ValidationError, match="ledger's individuals"):
            evaluate_run(run, dataset=foreign, baseline=baseline)

    def test_regrouping_dataset_is_read(self):
        dataset, _, run = self._run()
        ids = dataset.individuals
        regrouped = Dataset(ids, {i: ("low" if k < 5 else "high") for k, i in enumerate(ids)})
        values = group_divergences(run.ledger, DivergenceKind.L1, "agnostic", regrouped)
        assert list(values) == ["high", "low"]
        rows = {"low": list(range(5)), "high": list(range(5, len(ids)))}
        for group, value in values.items():
            mean_a, mean_r = (
                run.ledger.moments_at(rows[group], channel)[0].mean(axis=0)
                for channel in ("attention", "relevance")
            )
            assert value == pytest.approx(float(np.abs(mean_a - mean_r).sum()), abs=1e-15)
        report = evaluate_run(run, dataset=regrouped).to_dict()
        assert set(report["metrics"]["aware"]["group"]) == {"L1", "L2var", "W1"}
