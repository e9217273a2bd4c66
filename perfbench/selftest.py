"""Fast self-test of the benchmark's checks and tracer: each check must reject
a deliberately corrupted output, so a passing benchmark run means something.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

from checks import KINDS, MODES, Reference
from run import import_fairrank
from split import split
from tracer import Tracer
from workloads import WORKLOADS, generate, write_inputs

fr = import_fairrank()

TINY = replace(
    WORKLOADS["online-w1"], name="tiny", n=20, T=6, k_re=8, k_att=5, k_eval=5, theta=0.95
)


def _run(tmp: Path, workload=TINY):
    inputs = generate(workload, seed=3)
    stream_path, groups_path = write_inputs(inputs, tmp)
    individuals, stream = fr.io.load_stream(stream_path)
    group_of = fr.io.load_groups(groups_path)
    dataset = fr.io.build_dataset(individuals, group_of)
    result = fr.rerank_online(dataset, stream, fr.RerankConfig(**workload.config_dict()))
    baseline = fr.rerank_online(
        dataset, stream, fr.RerankConfig(**{**workload.config_dict(), "objective": "none"})
    )
    return Reference(inputs, workload), result, baseline, stream, group_of


def _orderings(result):
    return [a.ordering for a in result.assignments]


def _report(result, baseline) -> dict:
    """The report the benchmark audits: the run against the pass-through baseline."""
    return fr.evaluate_run(result, baseline=baseline).to_dict()


def _dcg(ref, t, ordering):
    idx = [ref.index[i] for i in ordering[: ref.wl.k_eval]]
    return float(ref.rel[t, idx] @ ref.disc)


def test_clean_outputs_pass(tmp_path):
    ref, result, baseline, _, _ = _run(tmp_path)
    assert result.fallback_count == 0
    assert ref.check_queries(_orderings(result), result.ndcg, result.objective_trace, True) == {}
    assert ref.check_report(_orderings(result), _report(result, baseline)) == []


def test_swapped_head_breaks_quality(tmp_path):
    ref, result, baseline, _, _ = _run(tmp_path)
    orderings = _orderings(result)
    floor = TINY.theta * ref.ideal_dcg
    # the head swap that loses the most DCG, over every query
    worst = min(
        (_dcg(ref, t, o[:i] + (o[j],) + o[i + 1 : j] + (o[i],) + o[j + 1 :]) - floor[t], t, i, j)
        for t, o in enumerate(orderings)
        for i in range(TINY.k_re)
        for j in range(i + 1, TINY.k_re)
    )
    margin, t, i, j = worst
    assert margin < 0, "no head swap breaks the quality floor; raise theta"
    o = list(orderings[t])
    o[i], o[j] = o[j], o[i]
    orderings[t] = tuple(o)
    faults = ref.check_queries(orderings, result.ndcg, result.objective_trace, True)
    assert t in faults and "DCG" in faults[t]


def test_swapped_tail_is_rejected(tmp_path):
    ref, result, baseline, _, _ = _run(tmp_path)
    orderings = _orderings(result)
    o = list(orderings[2])
    o[-1], o[-2] = o[-2], o[-1]
    orderings[2] = tuple(o)
    faults = ref.check_queries(orderings, result.ndcg, result.objective_trace, True)
    assert list(faults) == [2] and "tail" in faults[2]


def test_tampered_objective_trace_is_rejected(tmp_path):
    ref, result, baseline, _, _ = _run(tmp_path)
    trace = list(result.objective_trace)
    trace[4] *= 1.0 + 1e-6
    assert list(ref.check_queries(_orderings(result), result.ndcg, trace, True)) == [4]


def test_perturbed_report_value_is_rejected(tmp_path):
    ref, result, baseline, _, _ = _run(tmp_path)
    clean = _report(result, baseline)
    targets = [("metrics", mode, part, kind) for mode in MODES for part in ("individual", "group") for kind in KINDS]
    targets += [("metrics", mode, key) for mode in MODES for key in ("iaa", "eur", "dp")]
    targets += [("fairwashing", key) for key in clean["fairwashing"]]
    targets += [("improvement", mode, key) for mode in MODES for key in clean["improvement"][mode]]
    # aware eur is 0 in exact arithmetic here (two equal groups, alternating
    # polarity, even T), so its improvement is a ratio of rounding residues
    undetermined = ("improvement", "aware", "eur")
    assert len(targets) == 2 * 9 + 9 + 2 * 9 and undetermined in targets
    for path in targets:
        doc = json.loads(json.dumps(clean))
        *outer, last = path
        holder = doc
        for key in outer:
            holder = holder[key]
        holder[last] += 1e-6 * (1.0 + abs(holder[last]))
        problems = ref.check_report(_orderings(result), doc)
        assert len(problems) == (0 if path == undetermined else 1), (path, problems)


def test_run_file_missing_an_ordering_is_rejected(tmp_path):
    ref, result, baseline, stream, group_of = _run(tmp_path)
    path = tmp_path / "run.json"
    fr.io.save_run(path, result, stream)
    payload = json.loads(path.read_text())
    del payload["orderings"][3]
    path.write_text(json.dumps(payload))
    replayed = fr.io.replay_run(fr.io.load_run(path), group_of)
    problems = ref.check_report(_orderings(replayed), _report(replayed, baseline))
    assert problems and "no ordering" in problems[-1]
    assert json.dumps(_report(replayed, baseline)) != json.dumps(_report(result, baseline))


def test_tracer_nests_spans_and_restores_functions(tmp_path):
    original = fr.rerank.divergence_matrix
    tracer = Tracer()
    tracer.begin_round(0)
    tracer.install(fr)
    try:
        assert fr.rerank.divergence_matrix is not original
        _run(tmp_path)
    finally:
        tracer.uninstall()
    assert fr.rerank.divergence_matrix is original
    stats = tracer.stats(0)
    # the fair run builds one matrix per query; the pass-through run builds none
    assert stats["divergence.divergence_matrix.calls"] == TINY.T
    assert stats["core.Ledger.update.calls"] == 2 * TINY.T
    assert stats["rerank.rerank_online.s"] >= stats["divergence.divergence_matrix.s"] > 0
    assert stats["rerank.rerank_online.self_s"] < stats["rerank.rerank_online.s"]
    assert stats["divergence.divergence_matrix.cells"] == TINY.T * TINY.k_re**2
    tracer.save(tmp_path / "trace.npz")
    inner = split(tmp_path / "trace.npz")["rerank.rerank_online"]
    assert inner["divergence.divergence_matrix"][1] == TINY.T
    assert inner["rerank.rerank_online"][0] == stats["rerank.rerank_online.s"]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        with tempfile.TemporaryDirectory() as tmp:
            fn(Path(tmp))
        print(f"PASS {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
