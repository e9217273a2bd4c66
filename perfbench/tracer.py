"""Spans around the public functions of fairrank's modules, from outside.

``Tracer.install`` rebinds every public module-level function of ``core``,
``divergence``, ``assign``, ``rerank``, ``metrics`` and ``io`` (plus the
public methods of ``core.Ledger`` and scipy's ``linear_sum_assignment`` as
``fairrank.assign`` calls it) to a wrapper that records one span per call,
wherever the package holds a reference to it; ``uninstall`` puts the
originals back. The package itself carries no timers.

A span holds its key, its parent span, whether a span of the same key is
already open (so recursion is not counted twice), the round it belongs to,
and its start and end. Spans stay in memory and are written with ``save``.
"""

import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("core", "divergence", "assign", "rerank", "metrics", "io")

# keys that share one inclusive figure; nested calls inside the group count once
GROUPS = {"core.dcg_at_k": "core.dcg", "core.ndcg_at_k": "core.dcg"}


def _cells(args, kwargs, result):
    candidates = kwargs["candidates"] if "candidates" in kwargs else args[1]
    return len(candidates) ** 2


def _bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _sweeps(args, kwargs, result):
    return result.sweeps


COUNTERS = {
    "divergence.divergence_matrix": ("cells", _cells),
    "io.save_run": ("bytes", _bytes),
    "rerank.rerank_offline": ("sweeps", _sweeps),
}


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self._key_id: dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict[str, int]] = {}
        self.current_round = -1
        self._stack = [-1]
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, key: str) -> int:
        if key not in self._key_id:
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
            self._open.append(0)
        return self._key_id[key]

    def _enter(self, kid: int, gid: int) -> int:
        i = len(self.key)
        self.key.append(kid)
        self.parent.append(self._stack[-1])
        self.nested.append(self._open[gid] > 0)
        self.round.append(self.current_round)
        self.end.append(0.0)
        self._open[gid] += 1
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _exit(self, i: int, gid: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._open[gid] -= 1

    def begin_round(self, rnd: int) -> None:
        """Tag the spans and counts that follow with round ``rnd``."""
        self.current_round = rnd
        self.counts[rnd] = defaultdict(int)

    def wrap(self, key: str, fn):
        kid = self._id(key)
        gid = self._id(GROUPS.get(key, key))
        counter = COUNTERS.get(key)

        def traced(*args, **kwargs):
            i = self._enter(kid, gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i, gid)
            if counter is not None:
                counts = self.counts[self.current_round]
                counts[f"{key}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------------

    def _targets(self, fairrank):
        for name in MODULES:
            module = getattr(fairrank, name)
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield f"{name}.{attr}", obj
        for attr, obj in vars(fairrank.core.Ledger).items():
            if inspect.isfunction(obj) and not attr.startswith("_"):
                yield f"core.Ledger.{attr}", obj

    def install(self, fairrank) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        packages = [m for n, m in sys.modules.items() if n == "fairrank" or n.startswith("fairrank.")]
        for key, fn in self._targets(fairrank):
            wrapper = self.wrap(key, fn)
            if key.startswith("core.Ledger."):
                self._patch(fairrank.core.Ledger, key.rsplit(".", 1)[1], wrapper)
                continue
            for module in packages:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._patch(module, attr, wrapper)
        lsa = fairrank.assign.linear_sum_assignment
        self._patch(fairrank.assign, "linear_sum_assignment",
                    self.wrap("assign.linear_sum_assignment", lsa))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "key": np.frombuffer(self.key, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int8),
            "round": np.frombuffer(self.round, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
        }

    def stats(self, rnd: int) -> dict[str, float]:
        """Round ``rnd``'s ``<key>.calls``, ``<key>.s`` (inclusive), ``<key>.self_s``
        and counts."""
        spans = self.arrays()
        key, parent = spans["key"], spans["parent"]
        nested = spans["nested"].astype(bool)
        dur = spans["end"] - spans["start"]
        keep = spans["round"] == rnd
        k = len(self.keys)
        calls = np.bincount(key[keep], minlength=k)
        child = keep & (parent >= 0)
        self_s = np.bincount(key[keep], weights=dur[keep], minlength=k)
        self_s -= np.bincount(key[parent[child]], weights=dur[child], minlength=k)
        top = keep & ~nested
        group = np.array([self._key_id.get(GROUPS.get(name), i) for i, name in enumerate(self.keys)])
        inclusive = np.bincount(group[key[top]], weights=dur[top], minlength=k)
        out = dict(self.counts.get(rnd, {}))
        for kid, name in enumerate(self.keys):
            if name in GROUPS.values():
                members = [self._key_id[m] for m, g in GROUPS.items() if g == name]
                out[f"{name}.calls"] = int(calls[members].sum())
                out[f"{name}.s"] = float(inclusive[kid])
            elif calls[kid]:
                out[f"{name}.calls"] = int(calls[kid])
                out[f"{name}.self_s"] = float(self_s[kid])
                if name not in GROUPS:
                    out[f"{name}.s"] = float(inclusive[kid])
        return out

    def save(self, path) -> None:
        np.savez(path, keys=np.array(self.keys), **self.arrays())
