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

Every metric reads the ledger through one kernel, ``_read``, one pass per
(channel, polarity mode). A pass holds the ledger's kept (n, P) moment
matrices, the per-query values eta * x sorted along T, and each group's
summed moments and per-query average. A polarity panel makes one pass per
channel; a report, two panels. A run and its baseline rank one stream, so
``evaluate_run`` makes the relevance pass once per mode for both reports.
A pass lives only as long as the panels that read it: the ledger's derived
state holds no (T, n) values. A dataset handed to a metric may regroup the
ledger's individuals but must list them in the ledger's order
(ValidationError otherwise), since every matrix is laid out in that order.

Three layout rules keep every value bit-identical to a per-individual or
per-group computation:

* W1 is the mean over T of |sorted attention - sorted relevance|. The
  (n, T, P) layout puts each individual's (T, P) sequence in one C-ordered
  block, so the mean adds in the order the individual's own (T, P) mean
  does: pairwise along a contiguous T when P == 1, query by query when
  P > 1. Laying T innermost for P > 1, or n innermost (the product of the
  transposed stored values without ``order="C"``), moves W1 by an ulp.
* A group's per-query average gathers its member rows, (m, T, P), and sums
  over the members, one (T, P) block after another in dataset order, as a
  gather from the (T, n, P) sequences and a sum over its m axis adds them.
* Attention is read from its head cells, the k_att nonzero cells per query
  (``Ledger._head_cells``), never as a (T, n) or (n, T, P) array: relevance
  is dense, so it keeps the layout above. Each individual's sorted values
  are its negative values first, then T - c zeros, then its positive
  values, so W1 starts from |sorted relevance| and replaces the gap at each
  head cell's sorted position; the gaps are those of the dense subtraction,
  in the same places. A group's per-query sums add its members' head
  values from 0.0 in dataset order (one ``bincount`` over (group, query)),
  as the gather-then-sum adds them less its exact zeros; so where a group
  got no attention at a query (aware mode, eta < 0) the sum reads 0.0 where
  the dense sum read -0.0. Group W1 and ``eur`` read absolute values, so no
  metric changes. With one query numpy sums a lone column of members
  pairwise; there the per-query values are the moments, whose group sums
  add that way.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CHANNELS, MODES, Dataset, Ledger
from .divergence import DivergenceKind, _component_values, d_multi
from .errors import EmptyScopeError, ValidationError

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


@dataclass(frozen=True)
class _Reading:
    """One read of a ledger channel in one polarity mode (see ``_read``).

    Relevance holds its sorted values in ``ordered``; attention holds in
    ``heads`` the flat indices into that (n, T, P) layout of its nonzero
    sorted values, and the values.
    """

    mean: np.ndarray
    var: np.ndarray
    ordered: np.ndarray | None = None
    heads: tuple | None = None
    groups: dict | None = None


def _read(ledger: Ledger, channel: str, mode: str, dataset: Dataset | None = None) -> _Reading:
    """The pass over a (channel, mode) that every metric reads (see the
    module docstring).

    It holds the ledger's kept (n, P) moment matrices. Given a dataset,
    it also holds the per-query values eta * x sorted along T, and each
    group's (size, mean, variance, (T, P) per-query average). Without one
    it holds the moments only, all that L1 and L2var read. Raises
    ValidationError unless the dataset lists the ledger's individuals in
    the ledger's order.
    """
    mean, var = ledger._moment_matrices(channel, mode)
    if dataset is None:
        return _Reading(mean, var)
    if dataset is not ledger.dataset and dataset.individuals != ledger.dataset.individuals:
        raise ValidationError(
            "dataset must list the ledger's individuals in the ledger's order "
            "(a dataset may regroup them, not reorder or replace them)"
        )
    group_rows = dataset.group_rows
    ordered = heads = None
    if channel == "attention":
        heads, sums = _head_reading(ledger, mode, mean, dataset)
    else:
        ordered, sums = _dense_reading(ledger, mode, group_rows)
    groups = {}
    for (group, rows), total in zip(group_rows.items(), sums):
        m = len(rows)
        groups[group] = (
            m,
            mean[rows].sum(axis=0) / m,
            var[rows].sum(axis=0) / (m * m),
            total / m,
        )
    return _Reading(mean, var, ordered, heads, groups)


def _dense_reading(ledger: Ledger, mode: str, group_rows: dict):
    """The relevance as C-ordered (n, T, P) values eta * x sorted along T,
    and each group's (T, P) per-query sum."""
    x = ledger.stored("relevance")
    eta = ledger._polarity(mode)
    if mode == "aware":
        values = np.multiply(x.T[:, :, None], eta[None, :, :], order="C")
    else:
        # the agnostic eta is all ones: the copy is the product, exactly
        values = np.empty((x.shape[1], x.shape[0], eta.shape[1]))
        values[...] = x.T[:, :, None]
    sums = [values[rows].sum(axis=0) for rows in group_rows.values()]
    values.sort(axis=1)
    return values, sums


def _head_reading(ledger: Ledger, mode: str, mean: np.ndarray, dataset: Dataset):
    """The attention's sorted values read from its head cells (the flat
    indices into the sorted (n, T, P) layout, and the values), and each
    group's (T, P) per-query sum; ``mean`` is the attention's mean matrix
    in ``mode``."""
    steps, rows, x = ledger._head_cells()
    n, T, P = ledger.dataset.n, ledger.t, ledger.components
    components = np.arange(P)
    flat = (ledger._polarity(mode)[steps] * x[:, None]).ravel()
    # a (row, component) run of c cells sorts to its negatives, then T - c
    # zeros and the other cells, each ascending
    key = ((rows * P)[:, None] + components).ravel()
    order = np.lexsort((flat, key))
    key, ordered = key[order], flat[order]
    counts = np.bincount(key, minlength=n * P)
    end = counts.cumsum()[key]  # one past the last cell of each cell's run
    position = np.arange(len(key)) - np.where(ordered < 0, end - counts[key], end - T)
    row, component = np.divmod(key, P)
    heads = ((row * T + position) * P + component, ordered)
    if T == 1:
        # numpy sums a lone (m,) column pairwise; with one query the values
        # are the moments, whose group sums add that way
        return heads, [mean[m].sum(axis=0)[None] for m in dataset.group_rows.values()]
    # each query's cells come in ascending rows, so every (group, query,
    # component) bin adds its members in dataset order, as the dense
    # gather-then-sum does
    groups = len(dataset.group_rows)
    cells = ((dataset.group_codes[rows] * T + steps)[:, None] * P + components).ravel()
    sums = np.bincount(cells, flat, minlength=groups * T * P)
    return heads, sums.reshape(groups, T, P)


def _readings(ledger: Ledger, mode: str, dataset: Dataset | None = None):
    return tuple(_read(ledger, channel, mode, dataset) for channel in CHANNELS)


def _summaries(attention: _Reading, relevance: _Reading) -> dict[str, GroupSummary]:
    out = {}
    for group, (size, mean_a, var_a, seq_a) in attention.groups.items():
        _, mean_r, var_r, seq_r = relevance.groups[group]
        out[group] = GroupSummary(
            group=group,
            size=size,
            mean_attn=mean_a,
            var_attn=var_a,
            mean_rel=mean_r,
            var_rel=var_r,
            seq_attn=seq_a,
            seq_rel=seq_r,
        )
    return out


def group_summaries(
    ledger: Ledger, mode: str = "agnostic", dataset: Dataset | None = None
) -> dict[str, GroupSummary]:
    """Per-group summaries of the ledger's current state."""
    return _summaries(*_readings(ledger, mode, dataset or ledger.dataset))


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
    values = _divergence_values(kind, *_readings(ledger, mode, _sequences_for(kind, ledger)))
    if scope is not None:
        values = values[[ledger.dataset.index[i] for i in individuals]]
    return dict(zip(individuals, values.tolist()))


def _sequences_for(kind: DivergenceKind, ledger: Ledger) -> Dataset | None:
    """The dataset a pass for ``kind`` needs: W1 reads the sorted values,
    L1 and L2var the moments only."""
    return ledger.dataset if kind == DivergenceKind.W1 else None


def _divergence_values(
    kind: DivergenceKind, attention: _Reading, relevance: _Reading
) -> np.ndarray:
    """Component-summed divergence of every individual, in dataset order.

    L1 and L2var come from the moment matrices, W1 from the sorted values.
    """
    if kind == DivergenceKind.W1:
        # off the head cells the attention is 0, so the gap is |relevance|
        gaps = np.abs(relevance.ordered)
        index, values = attention.heads
        flat = gaps.reshape(-1)
        flat[index] = np.abs(values - relevance.ordered.reshape(-1)[index])
        # with no query the (n, 0, P) gaps sum to W1 = 0
        comps = np.mean(gaps, axis=1) if gaps.shape[1] else gaps.sum(axis=1)
    else:
        comps = _component_values(
            kind, attention.mean, attention.var, None, relevance.mean, relevance.var, None
        )
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
    readings = _readings(ledger, mode, _sequences_for(kind, ledger))
    return float(_divergence_values(kind, *readings).max())


def _group_values(kind: DivergenceKind, summaries: dict[str, GroupSummary]) -> dict[str, float]:
    out = {}
    for group, s in summaries.items():
        comps = _component_values(
            kind, s.mean_attn, s.var_attn, s.seq_attn, s.mean_rel, s.var_rel, s.seq_rel
        )
        out[group] = d_multi(comps)
    return out


def group_divergences(
    ledger: Ledger,
    kind: DivergenceKind,
    mode: str = "agnostic",
    dataset: Dataset | None = None,
) -> dict[str, float]:
    return _group_values(kind, group_summaries(ledger, mode, dataset))


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
    return _iaa(*_readings(ledger, mode))


def _iaa(attention: _Reading, relevance: _Reading) -> float:
    return float(np.abs(attention.mean - relevance.mean).sum())


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
    return _eur(group_summaries(ledger, mode, dataset), ledger.t)


def _eur(summaries: dict[str, GroupSummary], t: int) -> float:
    summaries = list(summaries.values())
    exposure = np.stack([s.mean_attn for s in summaries])  # (G, P)
    relevance = np.stack([s.mean_rel for s in summaries])
    if np.any(relevance == 0.0):
        return UNDEFINED
    ratios = exposure / relevance
    # per query the terms of one component share eta's sign, so |group
    # average| summed over queries is the terms' magnitude over m
    abs_attn = np.stack([np.abs(s.seq_attn).sum(axis=0) for s in summaries])
    abs_rel = np.stack([np.abs(s.seq_rel).sum(axis=0) for s in summaries])
    steps = t + np.array([s.size for s in summaries])[:, None] + 2
    error = steps * np.finfo(np.float64).eps * (abs_attn + np.abs(ratios) * abs_rel)
    floor = 2.0 * (error / np.abs(relevance)).max(axis=0)
    gaps = ratios.max(axis=0) - ratios.min(axis=0)
    return float(sum(g if g > f else 0.0 for g, f in zip(gaps, floor)))


def dp(ledger: Ledger, mode: str = "agnostic", dataset: Dataset | None = None) -> float:
    """Demographic parity: max pairwise gap of group average exposure."""
    return _dp(group_summaries(ledger, mode, dataset))


def _dp(summaries: dict[str, GroupSummary]) -> float:
    exposure = np.stack([s.mean_attn for s in summaries.values()])
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
    dataset = dataset or ledger.dataset
    return _panel(ledger, mode, dataset, _read(ledger, "relevance", mode, dataset))


def _panel(ledger: Ledger, mode: str, dataset: Dataset, relevance: _Reading) -> MetricsPanel:
    """The panel of ``ledger`` in ``mode``. ``relevance`` is the relevance
    pass in ``mode`` under ``dataset`` of this ledger, or of one that ranks
    the same stream and has recorded as many queries."""
    if ledger.t == 0:
        raise EmptyScopeError("ledger has no processed queries")
    attention = _read(ledger, "attention", mode, dataset)
    summaries = _summaries(attention, relevance)
    return MetricsPanel(
        individual={
            kind.value: float(_divergence_values(kind, attention, relevance).max())
            for kind in KINDS
        },
        group={kind.value: max(_group_values(kind, summaries).values()) for kind in KINDS},
        iaa=_iaa(attention, relevance),
        eur=_eur(summaries, ledger.t),
        dp=_dp(summaries),
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
    return _reports(dataset or ledger.dataset, ledger)[0]


def _reports(dataset: Dataset, *ledgers: Ledger) -> list[MetricsReport]:
    """``build_report`` of each ledger. The ledgers rank one stream and have
    recorded as many queries, so each mode's relevance pass is made once,
    on the first, and read by every panel of that mode."""
    panels = [{} for _ in ledgers]
    for mode in MODES:
        relevance = _read(ledgers[0], "relevance", mode, dataset)
        for ledger, out in zip(ledgers, panels):
            out[mode] = _panel(ledger, mode, dataset, relevance)
    reports = []
    for by_mode in panels:
        aware_flat = by_mode["aware"].flat()
        agnostic_flat = by_mode["agnostic"].flat()
        washing = {
            key: fairwashing_delta(aware_flat[key], agnostic_flat[key])
            for key in aware_flat
        }
        reports.append(MetricsReport(panels=by_mode, fairwashing=washing))
    return reports


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
