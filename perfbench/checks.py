"""Checks of the program's outputs, recomputed apart from it with numpy.

Nothing here imports ``fairrank``: orderings come in as tuples of ids and
reports as the plain dicts of ``MetricsReport.to_dict()``, and every value
they are checked against is recomputed from the generated relevance and
polarity under the 1/log2(j+1) cutoff attention model.
"""

import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
QUALITY_TOL = 1e-9
KINDS = ("L1", "L2var", "W1")
MODES = ("aware", "agnostic")


def close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def attention_weights(n: int, k_att: int) -> np.ndarray:
    m = min(k_att, n)
    raw = 1.0 / np.log2(np.arange(2, m + 2, dtype=np.float64))
    w = np.zeros(n)
    w[:m] = raw / raw.sum()
    return w


class Reference:
    """One generated stream, its ideal rankings and the config that ranked it."""

    def __init__(self, inputs, workload):
        self.wl = workload
        self.ids = np.array(inputs.ids)
        self.index = {ind: i for i, ind in enumerate(inputs.ids)}
        groups = sorted(set(inputs.group_of.values()))
        self.group_rows = [
            np.array([i for i, ind in enumerate(inputs.ids) if inputs.group_of[ind] == g]) for g in groups
        ]
        self.group_sizes = np.array([len(r) for r in self.group_rows], dtype=np.float64)
        self.rel = inputs.relevance
        self.pol = inputs.polarity
        self.T, self.n = self.rel.shape
        self.w = attention_weights(self.n, workload.k_att)
        self.disc = 1.0 / np.log2(np.arange(2, workload.k_eval + 2, dtype=np.float64))
        # relevance descending, ties by ascending id
        self.ideal = np.stack([np.lexsort((self.ids, -r)) for r in self.rel])
        self.ideal_dcg = np.array(
            [self.rel[t, self.ideal[t, : workload.k_eval]] @ self.disc for t in range(self.T)]
        )

    # -- rankings --------------------------------------------------------------

    def positions(self, orderings) -> tuple[np.ndarray, dict[int, str]]:
        """0-based position of each individual per query, and per-query faults.

        Rows of queries whose ordering is missing or not a permutation are -1.
        """
        pos = np.full((self.T, self.n), -1)
        faults = {}
        for t in range(self.T):
            if t >= len(orderings):
                faults[t] = "no ordering"
                continue
            try:
                idx = np.array([self.index[ind] for ind in orderings[t]], dtype=np.intp)
            except KeyError as exc:
                faults[t] = f"unknown individual {exc}"
                continue
            if idx.shape != (self.n,) or not np.array_equal(np.sort(idx), np.arange(self.n)):
                faults[t] = "not a permutation of the individuals"
                continue
            pos[t, idx] = np.arange(self.n)
        if len(orderings) > self.T:
            faults[self.T] = f"{len(orderings)} orderings for {self.T} queries"
        return pos, faults

    def check_queries(self, orderings, ndcg, trace, online: bool) -> dict[int, str]:
        """Per-query faults of one run's emitted rankings (empty when all pass)."""
        wl = self.wl
        pos, faults = self.positions(orderings)
        for t in range(self.T):
            if t in faults:
                continue
            order = np.argsort(pos[t])
            if not np.array_equal(order[wl.k_re :], self.ideal[t, wl.k_re :]):
                faults[t] = "tail beyond k_re differs from the ideal tail"
                continue
            dcg = self.rel[t, order[: wl.k_eval]] @ self.disc
            if dcg < wl.theta * self.ideal_dcg[t] - QUALITY_TOL:
                faults[t] = f"DCG {dcg!r} below theta * ideal {wl.theta * self.ideal_dcg[t]!r}"
            elif t >= len(ndcg) or not close(ndcg[t], dcg / self.ideal_dcg[t]):
                faults[t] = "reported nDCG differs from the recomputed one"
        # a step's objective depends on every earlier ranking
        valid_prefix = min(list(faults) + [self.T])
        series = self._series(pos, wl.polarity_mode)
        for t in range(valid_prefix):
            emitted, ideal = self.step_objective(series, pos, t)
            if t >= len(trace) or not close(trace[t], emitted):
                faults[t] = f"objective trace {trace[t] if t < len(trace) else None!r} != {emitted!r}"
            elif online and emitted > ideal + ATOL + RTOL * abs(ideal):
                faults[t] = f"step objective {emitted!r} worse than the ideal ordering's {ideal!r}"
        return faults

    # -- divergences -------------------------------------------------------------

    def _series(self, pos: np.ndarray, mode: str):
        att = self.w[pos]
        eta = self.pol if mode == "aware" else np.ones_like(self.pol)
        e2 = eta * eta
        seq_a = eta[:, None, :] * att[:, :, None]  # (T, n, P)
        seq_r = eta[:, None, :] * self.rel[:, :, None]
        var_a = e2[:, None, :] * (att * (1.0 - att))[:, :, None]
        var_r = e2[:, None, :] * (self.rel * (1.0 - self.rel))[:, :, None]
        return eta, seq_a, seq_r, var_a, var_r

    def step_objective(self, series, pos: np.ndarray, t: int) -> tuple[float, float]:
        """Worst prospective divergence of step ``t``'s head, as emitted and as ideal."""
        wl = self.wl
        eta_all, seq_a, seq_r, var_a, var_r = series
        eta, e2 = eta_all[t], eta_all[t] ** 2
        cand = self.ideal[t, : wl.k_re]
        r = self.rel[t, cand]
        mean_r = seq_r[:t, cand].sum(axis=0) + eta * r[:, None]
        v_r = var_r[:t, cand].sum(axis=0) + e2 * (r * (1.0 - r))[:, None]
        out = []
        for p in (pos[t, cand], np.arange(wl.k_re)):
            w = self.w[p]
            mean_a = seq_a[:t, cand].sum(axis=0) + eta * w[:, None]
            if wl.kind == "L1":
                d = np.abs(mean_a - mean_r).sum(axis=1)
            elif wl.kind == "L2var":
                v_a = var_a[:t, cand].sum(axis=0) + e2 * (w * (1.0 - w))[:, None]
                d = ((mean_a - mean_r) ** 2 + (np.sqrt(v_a) - np.sqrt(v_r)) ** 2).sum(axis=1)
            else:
                a = np.concatenate([seq_a[:t, cand], (eta * w[:, None])[None]], axis=0)
                gaps = np.abs(np.sort(a, axis=0) - np.sort(seq_r[: t + 1, cand], axis=0))
                d = gaps.mean(axis=0).sum(axis=1)
            out.append(float(d.max()))
        return out[0], out[1]

    def divergences(self, pos: np.ndarray, mode: str) -> dict[str, np.ndarray]:
        """End-of-stream L1, L2var and W1 per individual, summed over components."""
        _, seq_a, seq_r, var_a, var_r = self._series(pos, mode)
        return divergence_values(seq_a, seq_r, var_a, var_r)

    def final_objective(self, orderings) -> float:
        pos, faults = self.positions(orderings)
        if faults:
            raise ValueError(f"cannot score invalid orderings: {faults}")
        return float(self.divergences(pos, self.wl.polarity_mode)[self.wl.kind].max())

    def panel(self, pos: np.ndarray, mode: str) -> dict[str, tuple[float, float]]:
        """Every metric of one polarity mode, keyed as ``MetricsPanel.flat`` keys
        them, each as (value, tolerance).

        A group's distribution averages its members per query; its variance
        is the members' summed variance over the group size squared.
        """
        _, seq_a, seq_r, var_a, var_r = self._series(pos, mode)
        individual = divergence_values(seq_a, seq_r, var_a, var_r)

        def by_group(x: np.ndarray, power: int) -> np.ndarray:  # (T, n, P) -> (T, G, P)
            sums = np.stack([x[:, rows].sum(axis=1) for rows in self.group_rows], axis=1)
            return sums / self.group_sizes[:, None] ** power

        g_seq_a, g_seq_r = by_group(seq_a, 1), by_group(seq_r, 1)
        group = divergence_values(g_seq_a, g_seq_r, by_group(var_a, 2), by_group(var_r, 2))
        exposure, relevance = g_seq_a.sum(axis=0), g_seq_r.sum(axis=0)  # (G, P)
        values = {f"individual.{k}": float(individual[k].max()) for k in KINDS}
        values.update({f"group.{k}": float(group[k].max()) for k in KINDS})
        values["iaa"] = float(np.abs(seq_a.sum(axis=0) - seq_r.sum(axis=0)).sum())
        values["dp"] = float((exposure.max(axis=0) - exposure.min(axis=0)).sum())
        out = {key: (v, ATOL + RTOL * abs(v)) for key, v in values.items()}
        if np.any(relevance == 0.0):
            out["eur"] = (math.nan, 0.0)
        else:
            ratios = exposure / relevance
            # Signed sums cancel: with equal-size groups and polarity that
            # balances out, aware exposure and relevance of one group are minus
            # the other's and the exact eur is 0. Its tolerance is the
            # worst-case summation error of both computations of each ratio.
            rounding = 4.0 * (self.T + self.n) * float(np.finfo(np.float64).eps)
            error = (np.abs(g_seq_a).sum(axis=0) + np.abs(ratios) * np.abs(g_seq_r).sum(axis=0)) / np.abs(relevance)
            eur = float((ratios.max(axis=0) - ratios.min(axis=0)).sum())
            spread = float((2.0 * error).max(axis=0).sum())
            out["eur"] = (eur, ATOL + rounding * spread)
        return out

    def check_report(self, orderings, report: dict) -> list[str]:
        """Faults of a run's report against values recomputed from its orderings.

        The report must compare the run with the pass-through baseline, whose
        rankings are the ideal ones. A ratio whose denominator is zero within
        its tolerance is undetermined and not checked.
        """
        pos, faults = self.positions(orderings)
        if faults:
            return [f"query {t}: {msg}" for t, msg in sorted(faults.items())]
        ideal_pos = np.empty_like(pos)
        np.put_along_axis(ideal_pos, self.ideal, np.arange(self.n)[None, :], axis=1)
        panels = {mode: self.panel(pos, mode) for mode in MODES}
        sections = {}
        for mode in MODES:
            reported = report["metrics"][mode]
            flat = {f"{part}.{k}": v for part in ("individual", "group") for k, v in reported[part].items()}
            flat.update({key: reported[key] for key in ("iaa", "eur", "dp")})
            sections[mode] = (flat, panels[mode])
            baseline = self.panel(ideal_pos, mode)
            improvement = {key: negated(relative_change(v, baseline[key])) for key, v in panels[mode].items()}
            sections[f"{mode} improvement"] = (report["improvement"][mode], improvement)
        washing = {key: relative_change(panels["aware"][key], v) for key, v in panels["agnostic"].items()}
        sections["fairwashing"] = (report["fairwashing"], washing)
        problems = []
        for section, (reported, want) in sections.items():
            if set(reported) != set(want):
                problems.append(f"{section}: keys {sorted(reported)} != {sorted(want)}")
                continue
            for key, value in want.items():
                if not matches(reported[key], value):
                    problems.append(f"{section} {key}: {reported[key]!r} != {value!r}")
        order = np.argsort(pos, axis=1)[:, : self.wl.k_eval]
        dcg = np.take_along_axis(self.rel, order, axis=1) @ self.disc
        want_ndcg = float(np.mean(dcg / self.ideal_dcg))
        if not close(report["mean_ndcg"], want_ndcg):
            problems.append(f"mean nDCG {report['mean_ndcg']!r} != {want_ndcg!r}")
        return problems


def divergence_values(seq_a, seq_r, var_a, var_r) -> dict[str, np.ndarray]:
    """L1, L2var and W1 of per-query series shaped (T, ..., P), summed over P."""
    gap = seq_a.sum(axis=0) - seq_r.sum(axis=0)
    std_gap = np.sqrt(var_a.sum(axis=0)) - np.sqrt(var_r.sum(axis=0))
    w1 = np.abs(np.sort(seq_a, axis=0) - np.sort(seq_r, axis=0)).mean(axis=0)
    return {
        "L1": np.abs(gap).sum(axis=-1),
        "L2var": (gap**2 + std_gap**2).sum(axis=-1),
        "W1": w1.sum(axis=-1),
    }


def relative_change(x, ref):
    """(x - ref) / ref of two (value, tolerance) pairs, with its tolerance;
    None when ref is zero within its tolerance."""
    (xv, xt), (rv, rt) = x, ref
    if math.isnan(xv) or math.isnan(rv):
        return math.nan, 0.0
    if abs(rv) <= rt:
        return None
    v = (xv - rv) / rv
    return v, ATOL + (xt + abs(v + 1.0) * rt) / abs(rv)


def negated(value):
    return None if value is None else (-value[0], value[1])


def matches(got: float, value) -> bool:
    if value is None:
        return True
    want, tol = value
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol
