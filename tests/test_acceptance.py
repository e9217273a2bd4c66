"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the -v test names mirror them).
"""

import math
import time

import numpy as np
import pytest

from fairrank.assign import bottleneck_with_quality
from fairrank.cli import main, sweep_table
from fairrank.core import Ledger
from fairrank.divergence import DivergenceKind, divergence_matrix
from fairrank.metrics import fairwashing_delta, individual_unfairness
from fairrank.rerank import RerankConfig, rerank_offline, rerank_online
from fairrank.synth import (
    SynthSpec,
    fairwashing_scenario,
    gen_random_instance,
    gen_synth_binary,
)
from fairrank.verify import (
    random_ledger,
    run_bounds,
    run_solver,
    run_group_bound,
    run_w1,
)

from oracles import dcg_oracle, final_objective, ideal_ranking_oracle, joint_offline_oracle, rows_of


def _verdict(num: int, name: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {num:02d}] {name}: {state}{suffix}")


def test_c01_solver_exactness_against_enumeration_oracle():
    start = time.perf_counter()
    report = run_solver(instances=200, seed=101)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    _verdict(1, "solver/oracle agreement (200 x {minmax,minsum}, K<=7)", ok,
             f"{report.checks} checks, {elapsed:.1f}s")
    assert report.failures == []
    assert elapsed < 60.0


def test_c02_group_unfairness_bounded_by_individual():
    report = run_group_bound(instances=500, seed=202)
    _verdict(2, "group <= individual over 500 signed-polarity instances", report.passed,
             f"{report.checks} checks")
    assert report.failures == []


def test_c03_concentration_bounds_dominate_monte_carlo():
    start = time.perf_counter()
    report = run_bounds(trials=100_000, seed=303)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 120.0
    _verdict(3, "Monte Carlo tails within bounds + 3 SE at 1e5 trials", ok,
             f"{report.checks} grid points, {elapsed:.1f}s")
    assert report.failures == []
    assert elapsed < 120.0


def test_c04_polarity_flip_scenario_exact_fairwashing():
    dataset, stream, orderings, attention = fairwashing_scenario()
    ledger = Ledger(dataset, stream)
    for rows in orderings:
        ledger.update(rows, attention)
    agnostic = individual_unfairness(ledger, DivergenceKind.L1, "agnostic")
    aware = individual_unfairness(ledger, DivergenceKind.L1, "aware")
    delta = fairwashing_delta(aware, agnostic)
    ok = agnostic == 0.0 and aware == 1.0 and delta == math.inf
    _verdict(4, "flip scenario: agnostic 0, aware 1, infinite fairwashing", ok,
             f"agnostic={agnostic!r}, aware={aware!r}")
    assert agnostic == 0.0
    assert aware == 1.0
    assert delta == math.inf


@pytest.fixture(scope="module")
def synth_binary_runs():
    dataset, stream = gen_synth_binary(SynthSpec(n=200, T=16, seed=0))
    passthrough = rerank_online(dataset, stream, RerankConfig(objective="none"))
    reranked = rerank_online(
        dataset, stream,
        RerankConfig(kind="L1", objective="minmax", theta=0.8, k_re=50,
                     k_att=10, k_eval=10, polarity_mode="agnostic"),
    )
    return dataset, stream, passthrough, reranked


def test_c05_synth_binary_halves_unfairness(synth_binary_runs):
    start = time.perf_counter()
    _, _, passthrough, reranked = synth_binary_runs
    pre = individual_unfairness(passthrough.ledger, DivergenceKind.L1, "agnostic")
    post = individual_unfairness(reranked.ledger, DivergenceKind.L1, "agnostic")
    improvement = (pre - post) / pre
    elapsed = time.perf_counter() - start
    ok = improvement >= 0.5 and elapsed < 120.0
    _verdict(5, "synth-binary L1 reduction >= 50% at defaults", ok,
             f"pre={pre:.4f}, post={post:.4f}, improvement={improvement:.1%}")
    assert improvement >= 0.5
    assert elapsed < 120.0


def test_c06_quality_constraint_holds_everywhere(synth_binary_runs):
    dataset, stream, _, reranked = synth_binary_runs
    violations = []
    for fell_back, ndcg in zip(reranked.fallback, reranked.ndcg):
        if not fell_back and ndcg < 0.8 - 1e-9:
            violations.append(ndcg)
    sweep_dataset, sweep_stream = gen_synth_binary(SynthSpec(n=60, T=8, seed=1))
    rows = sweep_table(
        sweep_dataset, sweep_stream,
        theta_grid=[0.7, 0.85, 1.0], kinds=["L1", "W1"], objectives=["minmax"],
        repeats=2, seed=1, k_re=20, k_att=10, k_eval=10,
    )
    for row in rows:
        for fell_back, ndcg in zip(row["fallback_flags"], row["per_query_ndcg"]):
            if not fell_back and ndcg < row["theta"] - 1e-9:
                violations.append(ndcg)
    ok = not violations
    _verdict(6, "nDCG@10 >= theta - 1e-9 on every non-fallback query", ok,
             f"{len(rows)} sweep rows checked")
    assert violations == []


def test_c07_w1_transport_oracle():
    report = run_w1(instances=200, seed=707)
    _verdict(7, "sort-based W1 and insertion kernel == min-cost transport",
             report.passed, f"{report.checks} checks: 200 pairs, 200 matrices")
    assert report.failures == []


def test_c08_offline_matches_joint_enumeration():
    rng = np.random.default_rng(808)
    worst_gap = 0.0
    failures = []
    for case in range(50):
        n = int(rng.integers(3, 6))
        K = int(rng.integers(2, min(4, n) + 1))
        T = int(rng.integers(2, 4))
        dataset, stream = gen_random_instance(
            n, 2, T, "signed", seed=int(rng.integers(2**31))
        )
        config = RerankConfig(
            kind="L1", objective="minmax", theta=float(rng.uniform(0.5, 1.0)),
            k_re=K, k_att=int(rng.integers(1, K + 1)), k_eval=K,
            polarity_mode="aware" if case % 2 else "agnostic",
        )
        online = rerank_online(dataset, stream, config)
        offline = rerank_offline(dataset, stream, config, max_sweeps=50)
        on_obj = final_objective(online.ledger, config)
        off_obj = final_objective(offline.ledger, config)
        oracle = joint_offline_oracle(dataset, stream, config)
        gap = abs(off_obj - oracle)
        worst_gap = max(worst_gap, gap)
        if off_obj > on_obj + 1e-12 or gap > 1e-9:
            failures.append((case, on_obj, off_obj, oracle))
    ok = not failures
    _verdict(8, "offline <= online and == joint oracle on 50 tiny instances", ok,
             f"worst |offline-oracle| = {worst_gap:.2e}")
    assert failures == []


def test_c09_theta_monotonicity_per_step():
    rng = np.random.default_rng(909)
    from fairrank.core import AttentionModel

    checked = 0
    for _ in range(100):
        dataset, ledger = random_ledger(rng)
        n = dataset.n
        K = int(rng.integers(2, min(7, n) + 1))
        # the next query: another instance's, over this dataset's ids
        _, extra = gen_random_instance(n, 2, 1, "signed", seed=int(rng.integers(2**31)))
        query = dict(zip(dataset.individuals, extra.relevance[0].tolist()))
        attention = AttentionModel(int(rng.integers(1, K + 1)))
        ideal = ideal_ranking_oracle(query)
        candidates = ideal[:K]
        rel_head = np.array([query[c] for c in candidates])
        d = divergence_matrix(ledger, rows_of(dataset, candidates), rel_head, extra.polarity[0],
                              attention, DivergenceKind.L1, "aware")
        rho = dcg_oracle(ideal, query, K)
        last = math.inf
        for theta in (1.0, 0.8, 0.6, 0.4, 0.2):
            res = bottleneck_with_quality(d, rel_head, theta * rho, K)
            assert res.feasible
            assert res.objective <= last + 1e-12
            last = res.objective
            checked += 1
    _verdict(9, "per-step min-max objective non-increasing as theta drops", True,
             f"{checked} solves")


def test_c10_determinism_and_round_trip(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--variant", "binary", "--n", "40", "--T", "8",
                 "--seed", "7", "--out", str(data)]) == 0
    stream_path = data / "stream.jsonl"

    # stream file round-trip is byte-identical
    from fairrank import io as fio

    individuals, stream = fio.load_stream(stream_path)
    resaved = tmp_path / "again.jsonl"
    fio.save_stream(resaved, stream)
    stream_ok = resaved.read_bytes() == stream_path.read_bytes()

    # identical flags give bitwise-identical run and report files
    runs = []
    reports = []
    for tag in ("a", "b"):
        run_path = tmp_path / f"run_{tag}.json"
        report_path = tmp_path / f"report_{tag}.json"
        assert main(["rank", "--stream", str(stream_path),
                     "--groups", str(data / "groups.csv"),
                     "--kind", "W1", "--objective", "minmax-lex",
                     "--theta", "0.9",
                     "--out", str(run_path)]) == 0
        assert main(["evaluate", "--run", str(run_path),
                     "--groups", str(data / "groups.csv"),
                     "--out", str(report_path)]) == 0
        runs.append(run_path.read_bytes())
        reports.append(report_path.read_bytes())
    runs_ok = runs[0] == runs[1]
    reports_ok = reports[0] == reports[1]
    ok = stream_ok and runs_ok and reports_ok
    _verdict(10, "bitwise-identical reruns and byte-identical stream round-trip", ok)
    assert stream_ok and runs_ok and reports_ok
