"""Online and offline re-ranking engines."""

import math

import numpy as np
import pytest

from fairrank import io as fio
from fairrank import rerank as rr
from fairrank.assign import brute_force
from fairrank.core import AttentionModel, Dataset, Ledger, Stream
from fairrank.divergence import DivergenceKind, divergence_matrix
from fairrank.errors import CoverageError, StreamOrderError, ValidationError
from fairrank.metrics import individual_divergences, individual_unfairness
from fairrank.rerank import (
    RerankConfig,
    evaluate_run,
    rerank_offline,
    rerank_online,
)
from fairrank.synth import gen_random_instance

from oracles import (
    dcg_oracle,
    final_objective,
    ideal_ranking_oracle,
    joint_offline_oracle,
    query_columns,
    relevance_dicts,
    rows_of,
    stream_of,
)


def small_config(**kw):
    defaults = dict(kind="L1", objective="minmax", theta=0.8, k_re=4, k_att=2,
                    k_eval=3, polarity_mode="aware")
    defaults.update(kw)
    return RerankConfig(**defaults)


class TestConfig:
    def test_theta_domain(self):
        with pytest.raises(ValidationError):
            small_config(theta=0.0)
        with pytest.raises(ValidationError):
            small_config(theta=1.2)

    def test_depth_ordering(self):
        with pytest.raises(ValidationError):
            small_config(k_att=5, k_re=4)
        with pytest.raises(ValidationError):
            small_config(k_eval=9, k_re=4)

    @pytest.mark.parametrize("depth", ["k_re", "k_att", "k_eval"])
    @pytest.mark.parametrize("value", [10.0, 2.0, True, np.True_, "2"])
    def test_depths_must_be_integers(self, depth, value):
        with pytest.raises(ValidationError, match=f"{depth} must be an integer"):
            RerankConfig(**{"k_re": 10, "k_att": 2, "k_eval": 2, depth: value})

    @pytest.mark.parametrize("theta", ["0.8", None, True, complex(0.8)])
    def test_theta_must_be_real(self, theta):
        with pytest.raises(ValidationError, match="theta must be a real number"):
            small_config(theta=theta)

    @pytest.mark.parametrize(
        "numbers",
        [
            dict(k_re=np.int64(5), k_att=np.int32(2), k_eval=np.uint8(3)),
            dict(theta=np.float32(0.75)),
            dict(theta=np.float64(0.75), k_re=np.int16(5)),
        ],
        ids=["numpy-depths", "float32-theta", "float64-theta"],
    )
    def test_numpy_scalars_rank_save_and_replay(self, numbers, tmp_path):
        config = small_config(**{"k_re": 5, **numbers})
        for name, value in config.to_dict().items():
            assert type(value) in (str, int, float), name
        dataset, stream = gen_random_instance(6, 2, 3, "signed", seed=2)
        run = rerank_online(dataset, stream, config)
        fio.save_run(tmp_path / "run.json", run, stream)
        replayed = fio.replay_run(fio.load_run(tmp_path / "run.json"), dataset.group_of)
        assert replayed.config == config
        assert replayed.ndcg == run.ndcg

    def test_enumerations(self):
        with pytest.raises(ValidationError):
            small_config(objective="max")
        with pytest.raises(ValidationError):
            small_config(polarity_mode="both")
        with pytest.raises(ValidationError, match=r"kind must be one of \('L1', 'L2var', 'W1'\)"):
            small_config(kind="L3")


class TestStreamValidation:
    def test_timesteps_strictly_increase(self):
        _, stream = gen_random_instance(5, 2, 3, "signed", seed=0)
        swap = [0, 2, 1]
        with pytest.raises(StreamOrderError):
            Stream([stream.query_ids[i] for i in swap], stream.t[swap], stream.polarity[swap],
                   stream.individuals, stream.relevance[swap])

    @pytest.mark.parametrize("edit", ["drop", "add", "rename"])
    def test_every_query_covers_the_dataset(self, edit):
        dataset, stream = gen_random_instance(5, 2, 3, "signed", seed=0)
        relevance = relevance_dicts(stream)
        first = dataset.individuals[0]
        for rel in relevance:
            share = rel.pop(first)
            if edit == "add":
                rel[first], rel["extra"] = share, 0.0
            elif edit == "rename":
                rel["extra"] = share
            else:
                rel[dataset.individuals[1]] += share
        bad = stream_of(relevance, stream.polarity, stream.t, stream.query_ids)
        with pytest.raises(CoverageError, match=stream.query_ids[0]):
            rerank_online(dataset, bad, small_config())

    def test_empty_stream(self):
        with pytest.raises(ValidationError, match="empty"):
            Stream([], [], np.empty((0, 1)), ("a", "b"), np.empty((0, 2)))

    def test_prefilter_depth_cannot_exceed_population(self):
        dataset, stream = gen_random_instance(3, 2, 2, "signed", seed=0)
        with pytest.raises(ValidationError):
            rerank_online(dataset, stream, small_config(k_re=4, k_att=2, k_eval=2))


    # numpy warns as the variance terms overflow; the engines must still stop
    # with a ValidationError, neither a solver error nor a NaN ranking
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("engine", [rerank_online, rerank_offline])
    def test_overflowing_divergence_matrix_is_rejected(self, engine):
        dataset, stream = gen_random_instance(6, 2, 4, "signed", seed=2)
        polarity = np.where(stream.polarity < 0, -1e200, 1e200)
        huge = Stream(stream.query_ids, stream.t, polarity, stream.individuals, stream.relevance)
        config = small_config(kind="L2var", k_re=5, polarity_mode="aware")
        with pytest.raises(ValidationError, match="matrix must be finite everywhere"):
            engine(dataset, huge, config)


class TestPassThrough:
    def test_emits_ideal_rankings_at_perfect_quality(self):
        dataset, stream = gen_random_instance(6, 2, 4, "signed", seed=1)
        run = rerank_online(dataset, stream, small_config(objective="none"))
        for rel, assignment, ndcg in zip(relevance_dicts(stream), run.assignments, run.ndcg):
            assert assignment.ordering == ideal_ranking_oracle(rel)
            assert ndcg == 1.0
        assert run.fallback_count == 0
        assert all(math.isnan(v) for v in run.objective_trace)

    def test_binding_theta_with_unique_relevances(self):
        rng = np.random.default_rng(2)
        ids = tuple(f"i{k}" for k in range(5))
        stream = stream_of([
            dict(zip(ids, rng.permutation([0.4, 0.25, 0.2, 0.1, 0.05]).tolist())) for _ in range(4)
        ])
        dataset, _ = gen_random_instance(5, 2, 1, "unit", seed=0)
        dataset = type(dataset).single_group(ids)
        config = small_config(theta=1.0, k_re=5, k_att=3, k_eval=5)
        run = rerank_online(dataset, stream, config)
        passthrough = rerank_online(dataset, stream, small_config(objective="none", k_re=5, k_att=3, k_eval=5))
        for a, b in zip(run.assignments, passthrough.assignments):
            assert a.ordering == b.ordering


class TestQualityGuarantee:
    @pytest.mark.parametrize("objective", ["minmax", "minmax-lex", "minsum"])
    @pytest.mark.parametrize("kind", ["L1", "L2var", "W1"])
    def test_every_query_keeps_theta_fraction(self, objective, kind):
        dataset, stream = gen_random_instance(8, 3, 6, "signed", seed=11)
        config = small_config(kind=kind, objective=objective, theta=0.9,
                              k_re=6, k_att=3, k_eval=4)
        run = rerank_online(dataset, stream, config)
        for fell_back, ndcg in zip(run.fallback, run.ndcg):
            if not fell_back:
                assert ndcg >= config.theta - 1e-9


class TestPerStepOptimality:
    @pytest.mark.parametrize("objective,oracle", [("minmax", "minmax"), ("minsum", "minsum")])
    def test_trace_matches_enumeration(self, objective, oracle):
        """Each online step attains the exact optimum of its subproblem."""
        rng = np.random.default_rng(13)
        for seed in range(8):
            n = int(rng.integers(4, 8))
            dataset, stream = gen_random_instance(n, 2, 4, "signed",
                                                  seed=int(rng.integers(2**31)))
            k = int(rng.integers(2, min(n, 6) + 1))
            config = small_config(objective=objective, theta=0.7, k_re=k,
                                  k_att=int(rng.integers(1, k + 1)), k_eval=k)
            run = rerank_online(dataset, stream, config)
            mirror = Ledger(dataset, stream)
            attention = AttentionModel(config.k_att)
            for step, rel in enumerate(relevance_dicts(stream)):
                ideal = ideal_ranking_oracle(rel)
                candidates = ideal[: config.k_re]
                d = divergence_matrix(mirror, *query_columns(mirror, candidates),
                                      attention, DivergenceKind.L1, config.polarity_mode)
                rel_head = np.array([rel[c] for c in candidates])
                theta_rho = config.theta * dcg_oracle(ideal, rel, config.k_eval)
                expected = brute_force(oracle, d, rel_head, theta_rho, config.k_eval)
                assert run.objective_trace[step] == pytest.approx(
                    expected.objective, abs=1e-9
                )
                mirror.update(run.orderings[step], attention)


class TestThetaMonotonicity:
    def test_step_objective_never_rises_as_theta_drops(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            dataset, stream = gen_random_instance(6, 2, 3, "signed",
                                                  seed=int(rng.integers(2**31)))
            last = [math.inf] * len(stream)
            for theta in (1.0, 0.9, 0.75, 0.5, 0.25):
                run = rerank_online(dataset, stream,
                                    small_config(theta=theta, k_re=4, k_att=2, k_eval=4))
                for step, value in enumerate(run.objective_trace):
                    assert value <= last[step] + 1e-9
                # only the first step shares the ledger state across thetas
                last[0] = run.objective_trace[0]


class TestLedgerInvariants:
    def test_relevance_accrual_is_assignment_independent(self):
        dataset, stream = gen_random_instance(7, 2, 5, "signed", seed=19)
        a = rerank_online(dataset, stream, small_config(objective="none", k_re=5, k_att=2, k_eval=5))
        b = rerank_online(dataset, stream, small_config(objective="minmax", k_re=5, k_att=2, k_eval=5))
        rows = range(dataset.n)
        for mode in ("aware", "agnostic"):
            mean_a, var_a = a.ledger.moments_at(rows, "relevance", mode)
            mean_b, var_b = b.ledger.moments_at(rows, "relevance", mode)
            np.testing.assert_array_equal(mean_a, mean_b)
            np.testing.assert_array_equal(var_a, var_b)
            np.testing.assert_array_equal(
                a.ledger.values_at(rows, "relevance", mode),
                b.ledger.values_at(rows, "relevance", mode),
            )

    def test_bitwise_determinism(self):
        dataset, stream = gen_random_instance(8, 3, 5, "continuous", seed=23)
        config = small_config(kind="W1", objective="minmax-lex", k_re=5, k_att=3, k_eval=4)
        a = rerank_online(dataset, stream, config)
        b = rerank_online(dataset, stream, config)
        assert [x.ordering for x in a.assignments] == [x.ordering for x in b.assignments]
        assert a.ndcg == b.ndcg
        assert a.objective_trace == b.objective_trace
        np.testing.assert_array_equal(
            a.ledger.moments_at(range(dataset.n), "attention", "aware")[0],
            b.ledger.moments_at(range(dataset.n), "attention", "aware")[0],
        )


class TestPolarityFlipRerank:
    def test_aware_optimizer_untangles_the_flip(self):
        """Opposite-polarity twin queries: the system ranking accrues +1/-1
        attention against zero net relevance; the aware re-ranker keeps the
        books near zero instead."""
        stream = stream_of(
            [{"a": 0.501, "b": 0.499}, {"a": 0.499, "b": 0.501}], [(1.0,), (-1.0,)],
            query_ids=["q_pos", "q_neg"],
        )
        dataset = Dataset(("a", "b"), {"a": "g1", "b": "g2"})
        pass_cfg = RerankConfig(objective="none", k_re=2, k_att=1, k_eval=2)
        passthrough = rerank_online(dataset, stream, pass_cfg)
        pre = individual_unfairness(passthrough.ledger, DivergenceKind.L1, "aware")
        assert pre == pytest.approx(0.998, abs=1e-12)

        config = RerankConfig(kind="L1", objective="minmax", theta=0.5,
                              k_re=2, k_att=1, k_eval=2, polarity_mode="aware")
        run = rerank_online(dataset, stream, config)
        post = individual_unfairness(run.ledger, DivergenceKind.L1, "aware")
        assert post == pytest.approx(0.002, abs=1e-12)
        assert post < pre


class TestFallbackPlumbing:
    def test_infeasible_step_emits_ideal_with_flag(self, monkeypatch):
        from fairrank import rerank as rr
        from fairrank.assign import MatchResult

        monkeypatch.setattr(rr, "_solve_step", lambda *a, **k: MatchResult.infeasible())
        dataset, stream = gen_random_instance(5, 2, 3, "signed", seed=29)
        run = rerank_online(dataset, stream, small_config(k_re=4, k_att=2, k_eval=3))
        assert run.fallback == [True, True, True]
        assert run.fallback_count == 3
        for rel, assignment in zip(relevance_dicts(stream), run.assignments):
            assert assignment.ordering == ideal_ranking_oracle(rel)
        assert all(math.isnan(v) for v in run.objective_trace)


class TestOffline:
    def test_single_query_is_online(self):
        dataset, stream = gen_random_instance(5, 2, 1, "signed", seed=31)
        config = small_config(k_re=3, k_att=2, k_eval=3)
        on = rerank_online(dataset, stream, config)
        off = rerank_offline(dataset, stream, config)
        assert [a.ordering for a in off.assignments] == [a.ordering for a in on.assignments]

    def test_zero_sweeps_is_online(self):
        dataset, stream = gen_random_instance(5, 2, 3, "signed", seed=37)
        config = small_config(k_re=3, k_att=2, k_eval=3)
        on = rerank_online(dataset, stream, config)
        off = rerank_offline(dataset, stream, config, max_sweeps=0)
        assert [a.ordering for a in off.assignments] == [a.ordering for a in on.assignments]

    @pytest.mark.parametrize("objective", ["minmax", "minsum"])
    def test_never_worse_than_online_and_matches_joint_oracle(self, objective):
        rng = np.random.default_rng(41)
        for _ in range(6):
            n = int(rng.integers(3, 6))
            K = int(rng.integers(2, min(4, n) + 1))
            dataset, stream = gen_random_instance(
                n, 2, int(rng.integers(2, 4)), "signed", seed=int(rng.integers(2**31))
            )
            config = small_config(
                objective=objective, theta=float(rng.uniform(0.5, 1.0)), k_re=K,
                k_att=int(rng.integers(1, K + 1)), k_eval=K,
                polarity_mode="aware" if rng.random() < 0.5 else "agnostic",
            )
            on = rerank_online(dataset, stream, config)
            off = rerank_offline(dataset, stream, config, max_sweeps=50)
            on_obj = final_objective(on.ledger, config)
            off_obj = final_objective(off.ledger, config)
            assert off_obj <= on_obj + 1e-12
            assert off_obj == pytest.approx(
                joint_offline_oracle(dataset, stream, config), abs=1e-9
            )

    def test_l2var_descent_with_non_unit_polarity(self):
        """The replaced step's variance term cancels exactly from the
        final-horizon L2var matrix, so it stays finite when |eta| != 1."""
        dataset, stream = gen_random_instance(8, 2, 4, "continuous", seed=0)
        config = small_config(kind="L2var", theta=0.7, k_re=4, k_att=2, k_eval=3)
        on = rerank_online(dataset, stream, config)
        off = rerank_offline(dataset, stream, config, max_sweeps=1)
        assert final_objective(off.ledger, config) <= final_objective(on.ledger, config) + 1e-12

    @pytest.mark.parametrize("kind", ["L1", "L2var", "W1"])
    @pytest.mark.parametrize("mode", ["aware", "agnostic"])
    def test_trial_score_equals_metrics_of_a_fresh_ledger(self, kind, mode):
        """Descent scores a proposal on the run's ledger with one attention
        row replaced; that score is the individual metric of a ledger built
        from scratch on the same orderings, bit for bit."""
        dataset, stream = gen_random_instance(7, 2, 5, "continuous", seed=59, components=2)
        config = small_config(kind=kind, k_re=4, k_att=2, k_eval=3, polarity_mode=mode)
        attention = AttentionModel(config.k_att)
        ledger = rerank_online(dataset, stream, config).ledger
        orderings = [rows_of(dataset, ideal_ranking_oracle(rel)) for rel in relevance_dicts(stream)]
        for step0, rows in enumerate(orderings):
            ledger._replace_attention(step0, attention.scatter(np.array(rows)))
        rng = np.random.default_rng(61)
        for step0 in rng.integers(0, len(stream), 6):
            orderings[step0] = rows_of(dataset, rng.permutation(dataset.individuals))
            ledger._replace_attention(step0, attention.scatter(np.array(orderings[step0])))
            fresh = Ledger(dataset, stream)
            for rows in orderings:
                fresh.update(rows, attention)
            want = individual_divergences(fresh, config.kind, mode)
            assert rr._profile(ledger, config) == tuple(sorted(want.values(), reverse=True))

    def test_quality_holds_after_descent(self):
        dataset, stream = gen_random_instance(6, 2, 4, "signed", seed=43)
        config = small_config(theta=0.9, k_re=4, k_att=2, k_eval=4)
        off = rerank_offline(dataset, stream, config, max_sweeps=5)
        for rel, assignment, fell_back in zip(relevance_dicts(stream), off.assignments, off.fallback):
            if not fell_back:
                ideal = ideal_ranking_oracle(rel)
                rho = dcg_oracle(ideal, rel, config.k_eval)
                got = dcg_oracle(assignment.ordering, rel, config.k_eval)
                assert got >= config.theta * rho - 1e-9


class TestEvaluateRun:
    def test_report_carries_run_statistics(self):
        dataset, stream = gen_random_instance(6, 2, 4, "signed", seed=47)
        baseline = rerank_online(dataset, stream, small_config(objective="none", k_re=4, k_att=2, k_eval=4))
        run = rerank_online(dataset, stream, small_config(k_re=4, k_att=2, k_eval=4))
        report = evaluate_run(run, dataset, baseline=baseline)
        assert len(report.per_query_ndcg) == len(stream)
        assert len(report.objective_trace) == len(stream)
        assert report.fallback_count == 0
        assert report.improvement is not None
        assert set(report.improvement) == {"aware", "agnostic"}

    def test_multi_component_stream_end_to_end(self):
        dataset, stream = gen_random_instance(6, 2, 4, "signed", seed=53, components=3)
        run = rerank_online(dataset, stream, small_config(k_re=4, k_att=2, k_eval=4))
        report = evaluate_run(run, dataset)
        for mode in ("aware", "agnostic"):
            for value in report.panels[mode].individual.values():
                assert math.isfinite(value)

    @pytest.mark.parametrize("differ", ["seed", "length", "polarity", "query ids", "individuals"])
    def test_baseline_from_another_stream_rejected(self, differ):
        dataset, stream = gen_random_instance(6, 2, 4, "signed", seed=47)
        config = small_config(k_re=4, k_att=2, k_eval=4)
        other_dataset, other = dataset, stream
        if differ == "seed":
            other = gen_random_instance(6, 2, 4, "signed", seed=48)[1]
        elif differ == "length":
            other = gen_random_instance(6, 2, 6, "signed", seed=47)[1]
        elif differ == "polarity":
            other = Stream(stream.query_ids, stream.t, -stream.polarity,
                           stream.individuals, stream.relevance)
        elif differ == "query ids":
            other = Stream(("x",) + stream.query_ids[1:], stream.t, stream.polarity,
                           stream.individuals, stream.relevance)
        else:
            ids = tuple(f"j{i}" for i in range(6))
            other_dataset = Dataset.single_group(ids)
            other = Stream(stream.query_ids, stream.t, stream.polarity, ids, stream.relevance)
        run = rerank_online(dataset, stream, config)
        baseline = rerank_online(other_dataset, other, small_config(objective="none", k_re=4, k_att=2, k_eval=4))
        with pytest.raises(ValidationError, match="baseline run ranks another stream"):
            evaluate_run(run, baseline=baseline)
        # a baseline of an equal stream, loaded apart, is accepted
        same = Stream(list(stream.query_ids), stream.t.copy(), stream.polarity.copy(),
                      stream.individuals, stream.relevance.copy())
        evaluate_run(run, baseline=rerank_online(dataset, same, small_config(objective="none", k_re=4, k_att=2, k_eval=4)))
