"""fairrank benchmark: one workload per run, one JSON result as the last line.

    python3 perfbench/run.py --workload online-wide --seed 1 --seconds 30 --trace 0

A run generates three input streams from ``--seed`` (see ``workloads.py``)
and repeats whole rounds, one stream per round in turn, until ``--seconds``
have passed. A round loads its stream through ``fairrank.io`` ``setup_reps``
times (``setup_s``), ranks it once (``ms_per_query``) and audits the result
``audit_reps`` times (``audit_s``): save the fair and the pass-through run
files, load and replay both, and evaluate the fair run against the baseline.
Every ranking and every report is checked against ``checks.py``'s
recomputation; an operation (one ranked query, or one audit) that fails a
check counts as failed.

With ``--trace 1`` rounds alternate between untraced and traced, and the run
prints per-layer figures from ``tracer.py`` instead of the end-to-end ones.
Everything runs on one thread: BLAS pools are limited to one before numpy
is imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from checks import ATOL, RTOL, Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import STREAMS, WORKLOADS, generate, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "ms_per_query": "ms",
    "audit_s": "s",
    "peak_rss_mb": "MB",
    "final_unfairness": "1",
    "mean_ndcg": "1",
}

PER_LAYER = {
    "core.Ledger.update.calls": "count",
    "core.Ledger.update.s": "s",
    "core.Ledger.sequences.s": "s",
    "core.ideal_ranking.s": "s",
    "core.dcg.s": "s",
    "divergence.divergence_matrix.calls": "count",
    "divergence.divergence_matrix.s": "s",
    "divergence.divergence_matrix.cells": "count",
    "assign.linear_sum_assignment.calls": "count",
    "assign.linear_sum_assignment.s": "s",
    "assign.bottleneck_with_quality.calls": "count",
    "assign.bottleneck_with_quality.s": "s",
    "assign.bottleneck_with_quality.self_s": "s",
    "assign.lexicographic_refine.calls": "count",
    "assign.lexicographic_refine.s": "s",
    "assign.lexicographic_refine.self_s": "s",
    "rerank.rerank_online.s": "s",
    "rerank.rerank_online.self_s": "s",
    "rerank.rerank_offline.s": "s",
    "rerank.rerank_offline.self_s": "s",
    "rerank.rerank_offline.sweeps": "count",
    "rerank.evaluate_run.s": "s",
    "metrics.build_report.s": "s",
    "metrics.individual_unfairness.calls": "count",
    "metrics.individual_unfairness.s": "s",
    "metrics.group_unfairness.s": "s",
    "io.load_stream.s": "s",
    "io.save_run.s": "s",
    "io.save_run.bytes": "bytes",
    "io.load_run.s": "s",
    "io.replay_run.s": "s",
    "trace.ms_per_query": "ms",
    "trace.overhead_ms_per_query": "ms",
}

# files a run writes next to its inputs and removes when it ends
SCRATCH_FILES = ("stream.jsonl", "groups.csv", "fair.json", "baseline.json")


def import_fairrank():
    src = ROOT / "src"
    if not (src / "fairrank" / "__init__.py").is_file():
        raise SystemExit(f"fairrank sources not found under {src}")
    sys.path.insert(0, str(src))
    import fairrank
    import fairrank.io  # noqa: F401  (not imported by the package itself)

    return fairrank


class Stream:
    """One generated input stream, its files and its untimed reference runs."""

    def __init__(self, inputs, workload, workdir: Path):
        self.ref = Reference(inputs, workload)
        self.workdir = workdir
        self.stream_path, self.groups_path = write_inputs(inputs, workdir)
        self.baseline = None  # pass-through run the audit compares against
        self.online = None  # online run offline descent must not worsen
        self.memory_report = None  # JSON of the report of the in-memory run
        self.report = None  # first audited report


class Bench:
    def __init__(self, fr, workload, seed: int, workdir: Path, seconds: float, trace: bool):
        self.fr = fr
        self.wl = workload
        self.workdir = workdir
        self.streams = [
            Stream(generate(workload, seed, i), workload, workdir / f"stream{i}")
            for i in range(STREAMS)
        ]
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.config = fr.RerankConfig(**workload.config_dict())
        self.baseline_config = fr.RerankConfig(**{**workload.config_dict(), "objective": "none"})
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    # -- the operations being measured -------------------------------------------

    def load(self, s: Stream):
        io = self.fr.io
        individuals, stream = io.load_stream(s.stream_path)
        group_of = io.load_groups(s.groups_path)
        return io.build_dataset(individuals, group_of), stream, group_of

    def rank(self, dataset, stream):
        if self.wl.offline:
            return self.fr.rerank_offline(dataset, stream, self.config, max_sweeps=self.wl.max_sweeps)
        return self.fr.rerank_online(dataset, stream, self.config)

    def audit(self, s: Stream, result, baseline, stream, group_of):
        io = self.fr.io
        fair_path = s.workdir / "fair.json"
        base_path = s.workdir / "baseline.json"
        io.save_run(fair_path, result, stream)
        io.save_run(base_path, baseline, stream)
        replayed = io.replay_run(io.load_run(fair_path), group_of)
        replayed_base = io.replay_run(io.load_run(base_path), group_of)
        return replayed, self.fr.evaluate_run(replayed, baseline=replayed_base)

    # -- phases ----------------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: imports, caches and first-call costs, and the reference runs."""
        fr = self.fr
        for i, s in enumerate(self.streams):
            dataset, stream, group_of = self.load(s)
            if i == 0:
                short = stream[:2]
                baseline = fr.rerank_online(dataset, short, self.baseline_config)
                self.audit(s, self.rank(dataset, short), baseline, short, group_of)
            s.baseline = fr.rerank_online(dataset, stream, self.baseline_config)
            if self.wl.offline:
                s.online = fr.rerank_online(dataset, stream, self.config)

    def run(self) -> dict:
        wl, tracer = self.wl, self.tracer
        ops_per_round = wl.T + wl.audit_reps
        try:
            self.prepare()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += ops_per_round
            self.fail(ops_per_round, ["preparation raised"])
            return {}

        setup_s, audit_s = [], []
        rank_ms = {False: [], True: []}
        traced_rounds = []
        started = perf_counter()
        # tracing runs each stream untraced, then traced
        per_stream = 2 if tracer else 1
        rnd = 0
        while rnd < per_stream * len(self.streams) or perf_counter() - started < self.seconds:
            traced = bool(tracer) and rnd % 2 == 1
            s = self.streams[rnd // per_stream % len(self.streams)]
            self.attempted += ops_per_round
            done = 0
            try:
                if traced:
                    tracer.begin_round(rnd)
                    tracer.install(self.fr)
                for _ in range(wl.setup_reps):
                    gc.collect()
                    t0 = perf_counter()
                    dataset, stream, group_of = self.load(s)
                    setup_s.append(perf_counter() - t0)
                gc.collect()
                t0 = perf_counter()
                result = self.rank(dataset, stream)
                rank_ms[traced].append(1000.0 * (perf_counter() - t0) / wl.T)
                self.check_ranking(s, result)
                done += wl.T
                for _ in range(wl.audit_reps):
                    gc.collect()
                    t0 = perf_counter()
                    replayed, report = self.audit(s, result, s.baseline, stream, group_of)
                    audit_s.append(perf_counter() - t0)
                    self.check_audit(s, replayed, report)
                    done += 1
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.fail(ops_per_round - done, [f"round {rnd} raised after {done} operations"])
                break
            finally:
                if traced:
                    tracer.uninstall()
                    traced_rounds.append(rnd)
            rnd += 1

        reports = [s.report for s in self.streams]
        if None in reports or (tracer and len(traced_rounds) < len(self.streams)):
            return {}
        if tracer:
            return self.layer_metrics(rank_ms, traced_rounds)
        return {
            "setup_s": statistics.median(setup_s),
            "ms_per_query": statistics.median(rank_ms[False]),
            "audit_s": statistics.median(audit_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_unfairness": statistics.median(
                r["metrics"][wl.polarity_mode]["individual"][wl.kind] for r in reports
            ),
            "mean_ndcg": statistics.median(r["mean_ndcg"] for r in reports),
        }

    # -- checks ------------------------------------------------------------------

    def fail(self, count: int, problems: list[str]) -> None:
        self.failed += count
        self.problems.extend(problems)

    def check_ranking(self, s: Stream, result) -> None:
        wl = self.wl
        orderings = [a.ordering for a in result.assignments]
        faults = s.ref.check_queries(
            orderings, result.ndcg, result.objective_trace, online=not wl.offline
        )
        self.fail(min(len(faults), wl.T), [f"query {t}: {m}" for t, m in faults.items()])
        if result.fallback_count:
            print(f"note: {result.fallback_count} queries fell back", file=sys.stderr)
        if s.memory_report is None:
            s.memory_report = json.dumps(self.fr.evaluate_run(result, baseline=s.baseline).to_dict())
            if s.online is not None:
                # offline descent accepts only improvements, so it ends no worse
                offline = s.ref.final_objective(orderings)
                online = s.ref.final_objective([a.ordering for a in s.online.assignments])
                if offline > online + ATOL + RTOL * abs(online):
                    self.correct = False
                    self.problems.append(f"offline objective {offline!r} exceeds online {online!r}")

    def check_audit(self, s: Stream, replayed, report) -> None:
        doc = report.to_dict()
        problems = s.ref.check_report([a.ordering for a in replayed.assignments], doc)
        if json.dumps(doc) != s.memory_report:
            problems.append("report from the replayed run file differs from the in-memory one")
        self.fail(1 if problems else 0, problems)
        if s.report is None:
            s.report = doc

    def layer_metrics(self, rank_ms, traced_rounds) -> dict:
        """Per-round figures, the median over one traced round per stream (so
        counts repeat exactly), and the tracing overhead over all rounds."""
        tracer = self.tracer
        per_round = [tracer.stats(rnd) for rnd in traced_rounds[: len(self.streams)]]
        out = {
            name: statistics.median(stats.get(name, 0) for stats in per_round)
            for name in PER_LAYER
        }
        traced = statistics.median(rank_ms[True])
        out["trace.ms_per_query"] = traced
        out["trace.overhead_ms_per_query"] = traced - statistics.median(rank_ms[False])
        tracer.save(self.workdir / "trace.npz")
        return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    fr = import_fairrank()
    workdir = HERE / "_work" / f"{workload.name}-seed{args.seed}"
    bench = Bench(fr, workload, args.seed, workdir, args.seconds, bool(args.trace))
    try:
        values = bench.run()
    finally:
        for s in bench.streams:
            for name in SCRATCH_FILES:
                (s.workdir / name).unlink(missing_ok=True)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = json.dumps(result)
    (workdir / ("result-trace.json" if args.trace else "result.json")).write_text(line + "\n")
    print(line)
    return 0 if bench.correct and values else 1


if __name__ == "__main__":
    raise SystemExit(main())
