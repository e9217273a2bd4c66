"""Unfairness metrics over a frozen ledger.

Individual unfairness is the worst-case divergence between an individual's
cumulative attention and relevance distributions; group unfairness applies
the same divergence to per-group averages. Also provides the sum-based
inequity measure (IAA), exposure-ratio and parity baselines (EUR, DP),
fairwashing deltas between polarity-aware and -agnostic measurements, and
relative-improvement reporting.

Division-by-zero cases yield explicit sentinels, never silent zeros:
``float("inf")`` for infinite fairwashing, ``float("nan")`` (UNDEFINED) for
undefined ratios.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, Ledger
from .divergence import DivergenceKind, _component_values, d_multi
from .errors import EmptyScopeError

UNDEFINED = float("nan")

KINDS = (DivergenceKind.L1, DivergenceKind.L2VAR, DivergenceKind.W1)


@dataclass(frozen=True)
class GroupSummary:
    """Per-group cumulative moments and per-query group-average sequences.

    Group values average the members per query; the variance accrues as
    (1/|g|^2) times the summed member variances (members are independent).
    Arrays: means/vars are (P,), sequences (T, P).
    """

    group: str
    size: int
    mean_attn: np.ndarray
    var_attn: np.ndarray
    mean_rel: np.ndarray
    var_rel: np.ndarray
    seq_attn: np.ndarray
    seq_rel: np.ndarray


def group_summaries(
    ledger: Ledger, mode: str = "agnostic", dataset: Dataset | None = None
) -> dict[str, GroupSummary]:
    """Per-group summaries of the ledger's current state.

    Built once per (ledger state, mode, dataset), so the five group metrics
    of a polarity panel share one build; the arrays are read-only.
    """
    dataset = dataset or ledger.dataset
    # the memo entry holds the dataset, so its id stays unique while cached
    _, summaries = ledger.memo(
        ("group_summaries", mode, id(dataset)),
        lambda: (dataset, _build_group_summaries(ledger, mode, dataset)),
    )
    return dict(summaries)


def _build_group_summaries(
    ledger: Ledger, mode: str, dataset: Dataset
) -> dict[str, GroupSummary]:
    mean_a = ledger.mean_matrix("attention", mode)
    var_a = ledger.var_matrix("attention", mode)
    mean_r = ledger.mean_matrix("relevance", mode)
    var_r = ledger.var_matrix("relevance", mode)
    seq_a = ledger.sequences("attention", mode)
    seq_r = ledger.sequences("relevance", mode)
    out = {}
    for group, members in dataset.groups.items():
        rows = [dataset.index[m] for m in members]
        m = len(rows)
        out[group] = GroupSummary(
            group=group,
            size=m,
            mean_attn=mean_a[rows].sum(axis=0) / m,
            var_attn=var_a[rows].sum(axis=0) / (m * m),
            mean_rel=mean_r[rows].sum(axis=0) / m,
            var_rel=var_r[rows].sum(axis=0) / (m * m),
            seq_attn=seq_a[:, rows, :].sum(axis=1) / m,
            seq_rel=seq_r[:, rows, :].sum(axis=1) / m,
        )
        for value in vars(out[group]).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
    return out


def individual_divergences(
    ledger: Ledger,
    kind: DivergenceKind,
    mode: str = "agnostic",
    scope=None,
) -> dict[str, float]:
    """Component-summed divergence per individual (scope=None means all)."""
    individuals = ledger.dataset.individuals if scope is None else tuple(scope)
    if not individuals:
        raise EmptyScopeError("no individuals in scope")
    rows = None if scope is None else [ledger.dataset.index[i] for i in individuals]
    return dict(zip(individuals, _divergence_values(ledger, kind, mode, rows).tolist()))


def _divergence_values(
    ledger: Ledger, kind: DivergenceKind, mode: str, rows: list[int] | None
) -> np.ndarray:
    """Component-summed divergence of the individuals at dataset positions
    ``rows`` (None: everyone, the moment matrices read in place).

    One array pass: L1 and L2var from the moment matrices, W1 from one sort
    of the (T, k, P) sequence stacks.
    """
    (mean_a, var_a), (mean_r, var_r) = (
        ledger._moment_matrices(channel, mode) for channel in ("attention", "relevance")
    )
    if rows is not None:
        mean_a, var_a, mean_r, var_r = (x[rows] for x in (mean_a, var_a, mean_r, var_r))
    seq_a = seq_r = None
    if kind == DivergenceKind.W1:
        # the fancy-index copy lays T innermost, so the mean over T of the
        # stacks equals each individual's own mean bit for bit
        # (tests/test_metrics.py checks this against the oracle)
        taken = np.arange(ledger.dataset.n) if rows is None else rows
        seq_a = ledger.sequences("attention", mode)[:, taken, :]
        seq_r = ledger.sequences("relevance", mode)[:, taken, :]
    comps = _component_values(kind, mean_a, var_a, seq_a, mean_r, var_r, seq_r)
    # components summed left to right from zero, as d_multi's sum does
    return sum(comps.T)


def individual_unfairness(
    ledger: Ledger,
    kind: DivergenceKind,
    mode: str = "agnostic",
    scope=None,
) -> float:
    """Worst-case divergence across individuals in scope."""
    if ledger.t == 0:
        raise EmptyScopeError("ledger has no processed queries")
    if scope is not None:
        return max(individual_divergences(ledger, kind, mode, scope).values())
    return float(_divergence_values(ledger, kind, mode, None).max())


def group_divergences(
    ledger: Ledger,
    kind: DivergenceKind,
    mode: str = "agnostic",
    dataset: Dataset | None = None,
) -> dict[str, float]:
    out = {}
    for group, s in group_summaries(ledger, mode, dataset).items():
        comps = _component_values(
            kind, s.mean_attn, s.var_attn, s.seq_attn, s.mean_rel, s.var_rel, s.seq_rel
        )
        out[group] = d_multi(comps)
    return out


def group_unfairness(
    ledger: Ledger,
    kind: DivergenceKind,
    mode: str = "agnostic",
    dataset: Dataset | None = None,
) -> float:
    """Worst-case divergence across per-group average distributions."""
    if ledger.t == 0:
        raise EmptyScopeError("ledger has no processed queries")
    return max(group_divergences(ledger, kind, mode, dataset).values())


def iaa(ledger: Ledger, mode: str = "agnostic") -> float:
    """Inequity of amortized attention: sum over individuals of |mean gaps|."""
    gap = ledger.mean_matrix("attention", mode) - ledger.mean_matrix("relevance", mode)
    return float(np.abs(gap).sum())


def eur(
    ledger: Ledger, mode: str = "agnostic", dataset: Dataset | None = None
) -> float:
    """Max pairwise gap of group exposure/relevance ratios (UNDEFINED if a
    group's average relevance is zero).

    A component's gap is 0 when it is within the rounding error of its
    ratios, so a gap that is 0 in exact arithmetic (e.g. aware, two equal
    groups whose polarity cancels over the stream) reads 0, not a residue.
    A group's exposure (or relevance) sums t products eta * x per member,
    then its m members, and divides by m; its ratio divides once more. That
    is at most t + m + 1 roundings of relative size eps/2 on the sum of the
    terms' magnitudes. The floor counts t + m + 2 roundings of size eps
    (the margin covers second-order terms) for each of the two ratios a gap
    subtracts.
    """
    summaries = list(group_summaries(ledger, mode, dataset).values())
    exposure = np.stack([s.mean_attn for s in summaries])  # (G, P)
    relevance = np.stack([s.mean_rel for s in summaries])
    if np.any(relevance == 0.0):
        return UNDEFINED
    ratios = exposure / relevance
    # per query the terms of one component share eta's sign, so |group
    # average| summed over queries is the terms' magnitude over m
    abs_attn = np.stack([np.abs(s.seq_attn).sum(axis=0) for s in summaries])
    abs_rel = np.stack([np.abs(s.seq_rel).sum(axis=0) for s in summaries])
    steps = ledger.t + np.array([s.size for s in summaries])[:, None] + 2
    error = steps * np.finfo(np.float64).eps * (abs_attn + np.abs(ratios) * abs_rel)
    floor = 2.0 * (error / np.abs(relevance)).max(axis=0)
    gaps = ratios.max(axis=0) - ratios.min(axis=0)
    return float(sum(g if g > f else 0.0 for g, f in zip(gaps, floor)))


def dp(ledger: Ledger, mode: str = "agnostic", dataset: Dataset | None = None) -> float:
    """Demographic parity: max pairwise gap of group average exposure."""
    summaries = list(group_summaries(ledger, mode, dataset).values())
    exposure = np.stack([s.mean_attn for s in summaries])
    return float(
        sum(exposure[:, p].max() - exposure[:, p].min() for p in range(exposure.shape[1]))
    )


def fairwashing_delta(aware_value: float, agnostic_value: float) -> float:
    """Relative change of the polarity-aware metric vs the agnostic one.

    Positive values indicate fairwashing (the ranking looks fairer than it
    is when polarity is ignored). Zero over zero is 0; a nonzero aware value
    over a zero agnostic value is infinite fairwashing (+inf sentinel).
    """
    if math.isnan(aware_value) or math.isnan(agnostic_value):
        return UNDEFINED
    if agnostic_value == 0.0:
        return 0.0 if aware_value == 0.0 else math.inf
    return (aware_value - agnostic_value) / agnostic_value


def relative_improvement(pre_value: float, post_value: float) -> float:
    """Fractional reduction (pre - post) / pre; UNDEFINED when pre is zero."""
    if math.isnan(pre_value) or math.isnan(post_value) or pre_value == 0.0:
        return UNDEFINED
    return (pre_value - post_value) / pre_value


@dataclass
class MetricsPanel:
    """All metrics for one polarity mode."""

    individual: dict[str, float]
    group: dict[str, float]
    iaa: float
    eur: float
    dp: float

    def to_dict(self) -> dict:
        return {
            "individual": dict(self.individual),
            "group": dict(self.group),
            "iaa": self.iaa,
            "eur": self.eur,
            "dp": self.dp,
        }

    def flat(self) -> dict[str, float]:
        out = {f"individual.{k}": v for k, v in self.individual.items()}
        out.update({f"group.{k}": v for k, v in self.group.items()})
        out.update({"iaa": self.iaa, "eur": self.eur, "dp": self.dp})
        return out


def metrics_panel(
    ledger: Ledger, mode: str, dataset: Dataset | None = None
) -> MetricsPanel:
    return MetricsPanel(
        individual={
            kind.value: individual_unfairness(ledger, kind, mode) for kind in KINDS
        },
        group={
            kind.value: group_unfairness(ledger, kind, mode, dataset) for kind in KINDS
        },
        iaa=iaa(ledger, mode),
        eur=eur(ledger, mode, dataset),
        dp=dp(ledger, mode, dataset),
    )


@dataclass
class MetricsReport:
    """Full evaluation of one run: both polarity panels plus run statistics."""

    panels: dict[str, MetricsPanel]
    fairwashing: dict[str, float]
    mean_ndcg: float = UNDEFINED
    fallback_count: int = 0
    per_query_ndcg: list[float] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    improvement: dict[str, dict[str, float]] | None = None

    def to_dict(self) -> dict:
        out = {
            "metrics": {mode: panel.to_dict() for mode, panel in self.panels.items()},
            "fairwashing": dict(self.fairwashing),
            "mean_ndcg": self.mean_ndcg,
            "fallback_count": self.fallback_count,
            "per_query_ndcg": list(self.per_query_ndcg),
            "objective_trace": list(self.objective_trace),
        }
        if self.improvement is not None:
            out["improvement"] = {m: dict(v) for m, v in self.improvement.items()}
        return out


def build_report(ledger: Ledger, dataset: Dataset | None = None) -> MetricsReport:
    """Metric panels for both polarity modes plus the fairwashing deltas."""
    panels = {mode: metrics_panel(ledger, mode, dataset) for mode in ("aware", "agnostic")}
    aware_flat = panels["aware"].flat()
    agnostic_flat = panels["agnostic"].flat()
    washing = {
        key: fairwashing_delta(aware_flat[key], agnostic_flat[key])
        for key in aware_flat
    }
    return MetricsReport(panels=panels, fairwashing=washing)


def improvement_panel(
    baseline: MetricsReport, post: MetricsReport
) -> dict[str, dict[str, float]]:
    """Relative improvement of every metric vs a baseline report."""
    out: dict[str, dict[str, float]] = {}
    for mode in post.panels:
        base_flat = baseline.panels[mode].flat()
        post_flat = post.panels[mode].flat()
        out[mode] = {
            key: relative_improvement(base_flat[key], post_flat[key])
            for key in post_flat
        }
    return out
