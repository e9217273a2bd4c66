"""Per-layer split of one traced round, from the spans a ``--trace 1`` run saves.

    python3 perfbench/split.py perfbench/_work/online-wide-seed1/trace.npz

Groups the first traced round's spans by the top-level call they descend
from (load, ``rerank_online``/``rerank_offline``, ``save_run``, ``load_run``,
``replay_run``, ``evaluate_run``) and lists, under each, the inclusive time,
share and call count of every function called inside it.
"""

import argparse

import numpy as np


def split(path) -> dict[str, dict[str, list]]:
    spans = np.load(path)
    keys = [str(k) for k in spans["keys"]]
    key, parent, nested = spans["key"], spans["parent"], spans["nested"].astype(bool)
    dur = spans["end"] - spans["start"]
    rounds = spans["round"]
    rnd = int(rounds[rounds >= 0].min())
    root = {}
    out: dict[str, dict[str, list]] = {}
    for i in np.flatnonzero(rounds == rnd):
        # spans are stored in entry order, so a parent precedes its children
        root[i] = i if parent[i] < 0 else root[parent[i]]
        cell = out.setdefault(keys[key[root[i]]], {}).setdefault(keys[key[i]], [0.0, 0])
        cell[0] += 0.0 if nested[i] else dur[i]
        cell[1] += 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    args = parser.parse_args(argv)
    for top, inner in split(args.trace).items():
        total = inner[top][0]
        print(f"{top}: {total:.4f} s")
        ranked = sorted((kv for kv in inner.items() if kv[0] != top), key=lambda kv: -kv[1][0])
        for name, (seconds, calls) in ranked:
            share = 100.0 * seconds / total if total else 0.0
            print(f"    {name:40s} {seconds:9.4f} s {share:5.1f}%  {calls} calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
