"""Command-line interface.

Subcommands: ``generate`` (synthetic datasets), ``rank`` (online/offline
re-ranking), ``evaluate`` (metric report for a saved run, optionally vs a
baseline run), ``sweep`` (theta/kind/objective grid with bootstrap repeats),
and ``verify`` (randomized oracle suites).

Exit codes: 0 success, 1 validation failure, 2 run fell back on every query,
3 verify-suite failure. The FAIRRANK_SEED environment variable supplies the
default seed of ``generate``, ``sweep`` (bootstrap resampling) and ``verify``.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import io as fio
from .core import Stream
from .errors import FairRankError, ValidationError
from .metrics import group_unfairness, individual_unfairness
from .rerank import RerankConfig, evaluate_run, rerank_offline, rerank_online
from .synth import SynthSpec, gen_synth
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ALL_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


def _env_seed() -> int:
    return int(os.environ.get("FAIRRANK_SEED", "0"))


def _resolved_seed(args) -> int:
    return _env_seed() if args.seed is None else args.seed


def cmd_generate(args) -> int:
    spec = SynthSpec(n=args.n, T=args.T, seed=_resolved_seed(args), variant=args.variant)
    dataset, stream = gen_synth(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stream_path = outdir / "stream.jsonl"
    groups_path = outdir / "groups.csv"
    fio.save_stream(stream_path, stream)
    fio.save_groups(groups_path, dataset)
    print(f"wrote {stream_path} ({len(stream)} queries, {dataset.n} individuals)")
    print(f"wrote {groups_path} ({len(dataset.groups)} groups)")
    return EXIT_OK


def _build_config(args, n: int) -> RerankConfig:
    # clamp depths to the dataset so small streams work with default flags
    k_re = min(args.k_re, n)
    return RerankConfig(
        kind=args.kind,
        objective=args.objective,
        theta=args.theta,
        k_re=k_re,
        k_att=min(args.k_att, k_re),
        k_eval=min(args.k_eval, k_re),
        polarity_mode=args.polarity_mode,
    )


def cmd_rank(args) -> int:
    individuals, stream = fio.load_stream(args.stream, raw=args.raw)
    group_of = fio.load_groups(args.groups) if args.groups else None
    dataset = fio.build_dataset(individuals, group_of)
    config = _build_config(args, dataset.n)
    if args.offline:
        result = rerank_offline(dataset, stream, config, max_sweeps=args.max_sweeps)
    else:
        result = rerank_online(dataset, stream, config)
    fio.save_run(args.out, result, stream)
    print(
        f"wrote {args.out}: {len(stream)} queries, mean nDCG@{config.k_eval} "
        f"{result.mean_ndcg:.6f}, fallbacks {result.fallback_count}"
    )
    if result.fallback_count == len(stream):
        print("every query fell back to the ideal ranking (infeasible)", file=sys.stderr)
        return EXIT_ALL_INFEASIBLE
    return EXIT_OK


def cmd_evaluate(args) -> int:
    group_of = fio.load_groups(args.groups) if args.groups else None
    payload = fio.load_run(args.run)
    result = fio.replay_run(payload, group_of)
    baseline = None
    if args.baseline_run:
        baseline = fio.replay_run(fio.load_run(args.baseline_run), group_of)
    report = evaluate_run(result, baseline=baseline)
    doc = {"config": payload["config"], **report.to_dict()}
    fio.save_report(args.out, doc)
    for mode in ("aware", "agnostic"):
        panel = report.panels[mode]
        print(f"{mode:9s} individual {panel.individual} iaa {panel.iaa:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _bootstrap(stream: Stream, seed_parts) -> Stream:
    """Queries drawn with replacement, renumbered t = 1..T; ids repeat."""
    rng = np.random.default_rng(seed_parts)
    idx = rng.integers(0, len(stream), len(stream))
    return Stream(
        [stream.query_ids[i] for i in idx],
        np.arange(1, len(stream) + 1),
        stream.polarity[idx],
        stream.individuals,
        stream.relevance[idx],
    )


def sweep_table(
    dataset,
    stream: Stream,
    theta_grid,
    kinds,
    objectives,
    repeats: int = 1,
    polarity_modes=("aware", "agnostic"),
    seed: int = 0,
    k_re: int = 50,
    k_att: int = 10,
    k_eval: int = 10,
) -> list[dict]:
    """One row per (theta, kind, objective, repeat, polarity mode).

    Repeat 0 runs the original stream; repeats >= 1 resample queries with
    replacement (bootstrap). Rows carry the per-query nDCG and fallback
    vectors alongside the summary columns.
    """
    k_re = min(k_re, dataset.n)
    k_att = min(k_att, k_re)
    k_eval = min(k_eval, k_re)
    grid = [
        (theta, kind, objective, repeat, mode)
        for theta in theta_grid
        for kind in kinds
        for objective in objectives
        for repeat in range(repeats)
        for mode in polarity_modes
    ]

    def one(point):
        theta, kind, objective, repeat, mode = point
        config = RerankConfig(
            kind=kind,
            objective=objective,
            theta=theta,
            k_re=k_re,
            k_att=k_att,
            k_eval=k_eval,
            polarity_mode=mode,
        )
        run_stream = stream if repeat == 0 else _bootstrap(stream, [seed, repeat])
        result = rerank_online(dataset, run_stream, config)
        return {
            "theta": theta,
            "kind": config.kind.value,
            "objective": objective,
            "repeat": repeat,
            "polarity_mode": mode,
            "individual_unfairness": individual_unfairness(result.ledger, config.kind, mode),
            "group_unfairness": group_unfairness(result.ledger, config.kind, mode),
            "mean_ndcg": result.mean_ndcg,
            "fallbacks": result.fallback_count,
            "per_query_ndcg": list(result.ndcg),
            "fallback_flags": list(result.fallback),
        }

    return [one(point) for point in grid]


SWEEP_COLUMNS = (
    "theta",
    "kind",
    "objective",
    "repeat",
    "polarity_mode",
    "individual_unfairness",
    "group_unfairness",
    "mean_ndcg",
    "fallbacks",
)


def cmd_sweep(args) -> int:
    try:
        theta_grid = [float(x) for x in args.theta_grid.split(",")]
    except ValueError:
        raise ValidationError(
            f"--theta-grid must be comma-separated numbers, got {args.theta_grid!r}"
        ) from None
    if args.repeats < 1:
        raise ValidationError(f"--repeats must be at least 1, got {args.repeats}")
    individuals, stream = fio.load_stream(args.stream, raw=args.raw)
    group_of = fio.load_groups(args.groups) if args.groups else None
    dataset = fio.build_dataset(individuals, group_of)
    rows = sweep_table(
        dataset,
        stream,
        theta_grid=theta_grid,
        kinds=args.kinds.split(","),
        objectives=args.objectives.split(","),
        repeats=args.repeats,
        polarity_modes=args.polarity_modes.split(","),
        seed=_resolved_seed(args),
        k_re=args.k_re,
        k_att=args.k_att,
        k_eval=args.k_eval,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in SWEEP_COLUMNS])
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    failed = False
    for name in names:
        report = run_suite(name, args.instances, _resolved_seed(args))
        for line in report.lines():
            print(line)
        failed = failed or not report.passed
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrank",
        description="Distribution- and polarity-aware amortized fair ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--variant", choices=("binary", "continuous"), default="binary")
    p.add_argument("--n", type=int, default=200, help="number of individuals (even)")
    p.add_argument("--T", type=int, default=16, help="number of queries (even)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("rank", help="re-rank a query stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--groups", default=None)
    p.add_argument("--raw", action="store_true", help="renormalize raw relevance")
    p.add_argument("--kind", choices=("L1", "L2var", "W1"), default="L1")
    p.add_argument(
        "--objective",
        choices=("minmax", "minmax-lex", "minsum", "none"),
        default="minmax",
    )
    p.add_argument("--theta", type=float, default=0.8)
    p.add_argument("--k-re", dest="k_re", type=int, default=50)
    p.add_argument("--k-att", dest="k_att", type=int, default=10)
    p.add_argument("--k-eval", dest="k_eval", type=int, default=10)
    p.add_argument("--polarity-mode", choices=("aware", "agnostic"), default="agnostic")
    p.add_argument("--offline", action="store_true", help="coordinate-descent mode")
    p.add_argument("--max-sweeps", type=int, default=10)
    p.add_argument(
        "--out",
        required=True,
        help="run file path: one JSON header line (`head -n 1` shows the run's "
        "metadata), then the relevance and orderings as raw binary blocks",
    )
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="metric report for a saved run")
    p.add_argument(
        "--run",
        required=True,
        help="run file written by `fairrank rank`; files of earlier versions "
        "(one JSON document) are rejected",
    )
    p.add_argument("--baseline-run", default=None)
    p.add_argument("--groups", default=None)
    p.add_argument("--out", required=True, help="report file path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="theta/kind/objective grid")
    p.add_argument("--stream", required=True)
    p.add_argument("--groups", default=None)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--theta-grid", default="0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--kinds", default="L1")
    p.add_argument("--objectives", default="minmax")
    p.add_argument("--polarity-modes", default="aware,agnostic")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--k-re", dest="k_re", type=int, default=50)
    p.add_argument("--k-att", dest="k_att", type=int, default=10)
    p.add_argument("--k-eval", dest="k_eval", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV table path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="randomized oracle suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FairRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
