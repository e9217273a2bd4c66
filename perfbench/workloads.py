"""Benchmark workloads and their seeded inputs.

Inputs are made here with numpy alone, not with ``fairrank.synth``, so the
program under test only ever sees the files this module writes. The make-up
is the continuous two-group synthetic stream: individuals ``m*`` (group
``male``) draw raw relevance from Normal(1, 0.2), individuals ``f*`` (group
``female``) from Normal(1, 0.1), truncated below at 1e-6 and normalized per
query; polarity alternates +1, -1 starting with +1.

A run ranks ``STREAMS`` such streams, drawn from
``numpy.random.default_rng([seed, i])`` for i = 0, 1, 2: the worst-case
unfairness offline descent reaches on one short stream varies by seed far
more than the median over three does. Regenerate one workload's inputs with::

    python3 perfbench/workloads.py --workload online-wide --seed 1 --out DIR
"""

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STREAMS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    T: int
    kind: str
    objective: str
    offline: bool
    theta: float = 0.8
    k_re: int = 50
    k_att: int = 10
    k_eval: int = 10
    polarity_mode: str = "aware"
    # offline descent rounds; the data decide how many of up to 10 sweeps
    # improve (4 to 8 at T=8), so an uncapped run's work varies twofold by seed
    max_sweeps: int = 0
    # loads and audits per round: one load or audit of a small stream is too
    # short to time steadily
    setup_reps: int = 1
    audit_reps: int = 1

    def config_dict(self) -> dict:
        return {
            "kind": self.kind,
            "objective": self.objective,
            "theta": self.theta,
            "k_re": self.k_re,
            "k_att": self.k_att,
            "k_eval": self.k_eval,
            "polarity_mode": self.polarity_mode,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "online-wide", n=2000, T=128, kind="L2var", objective="minmax",
            offline=False,
        ),
        Workload(
            "online-w1", n=200, T=32, kind="W1", objective="minmax",
            offline=False, setup_reps=20, audit_reps=5,
        ),
        Workload(
            "offline-lex", n=200, T=8, kind="L1", objective="minmax-lex",
            offline=True, max_sweeps=3, setup_reps=50, audit_reps=10,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """One generated stream: ids in dataset order, relevance (T, n), polarity (T, P)."""

    ids: tuple[str, ...]
    group_of: dict[str, str]
    relevance: np.ndarray
    polarity: np.ndarray


def generate(workload: Workload, seed: int, stream: int = 0) -> Inputs:
    n, T = workload.n, workload.T
    half = n // 2
    width = len(str(half))
    males = [f"m{i:0{width}d}" for i in range(1, half + 1)]
    females = [f"f{i:0{width}d}" for i in range(1, half + 1)]
    rng = np.random.default_rng([seed, stream])
    rel = np.empty((T, n))
    for t in range(T):
        raw = np.concatenate([rng.normal(1.0, 0.2, half), rng.normal(1.0, 0.1, half)])
        raw = np.maximum(raw, 1e-6)
        rel[t] = raw / raw.sum()
    pol = np.where(np.arange(T) % 2 == 0, 1.0, -1.0)[:, None]
    group_of = {i: "male" for i in males} | {i: "female" for i in females}
    return Inputs(tuple(males + females), group_of, rel, pol)


def write_inputs(inputs: Inputs, outdir: Path) -> tuple[Path, Path]:
    """Write ``stream.jsonl`` and ``groups.csv``; returns their paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    stream_path = outdir / "stream.jsonl"
    groups_path = outdir / "groups.csv"
    order = sorted(range(len(inputs.ids)), key=lambda i: inputs.ids[i])
    keys = [inputs.ids[i] for i in order]
    with stream_path.open("w", encoding="utf-8", newline="\n") as fh:
        for t in range(inputs.relevance.shape[0]):
            values = inputs.relevance[t, order].tolist()
            record = {
                "query_id": f"q{t + 1:04d}",
                "t": t + 1,
                "polarity": inputs.polarity[t].tolist(),
                "relevance": dict(zip(keys, values)),
            }
            fh.write(json.dumps(record) + "\n")
    with groups_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("individual_id,group_id\n")
        for ind in inputs.ids:
            fh.write(f"{ind},{inputs.group_of[ind]}\n")
    return stream_path, groups_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for i in range(STREAMS):
        inputs = generate(WORKLOADS[args.workload], args.seed, i)
        for path in write_inputs(inputs, Path(args.out) / f"stream{i}"):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
