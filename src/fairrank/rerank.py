"""Online and offline re-ranking engines.

The online engine processes a query stream in order: for each query it
computes the relevance-ideal ranking and its quality ``rho(t)`` (DCG at the
evaluation depth), prefilters the top ``k_re`` candidates (positions beyond
``k_re`` stay frozen at the ideal ordering), builds the matrix of
prospective divergences for candidate x position, and solves one exact
assignment subproblem per the configured objective:

* ``minmax``     — minimize the worst prospective divergence
  (quality-constrained bottleneck matching, DCG tie-break);
* ``minmax-lex`` — the same, then lexicographic refinement of the
  next-largest divergences at the preserved bottleneck;
* ``minsum``     — minimize the summed mean-gap (IAA-style re-ranker;
  costs are the prospective L1 values);
* ``none``       — pass-through: emit the ideal ranking.

Every emitted ranking keeps DCG at the evaluation depth within ``theta``
of the ideal; if a step's subproblem is infeasible the ideal ranking is
emitted and flagged as a fallback. The ledger records each query once and
reads either polarity mode from it, whichever one the optimizer uses.

The offline engine starts from the online solution and runs coordinate
descent on that run's ledger: revisit queries in order, re-solving each
step against the end-of-stream objective with all other assignments held
fixed, and score a proposal by replacing the step's attention row in the
ledger, accepting only strict improvements, until a sweep makes no
progress.
"""

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assign import (
    FEASIBILITY_TOL,
    _refine_bottleneck,
    bottleneck_with_quality,
    constrained_min_sum,
)
from .core import Assignment, AttentionModel, Dataset, Ledger, Stream, _dcg, _ndcg, ideal_order
from .divergence import (
    DivergenceKind,
    _component_values,
    _query_eta,
    divergence_matrix,
    w1_insert_matrix,
)
from .errors import ValidationError
from .metrics import MetricsReport, _reports, improvement_panel, individual_divergences

OBJECTIVES = ("minmax", "minmax-lex", "minsum", "none")
IMPROVEMENT_TOL = 1e-12


@dataclass(frozen=True)
class RerankConfig:
    """Re-ranking parameters.

    ``theta`` is the fraction of the ideal ranking quality every re-ranked
    query must retain; ``k_re`` the prefilter depth; ``k_att`` the attention
    cutoff; ``k_eval`` the DCG evaluation depth (both capped by ``k_re``).
    The depths must be integers and ``theta`` a real number, neither a bool;
    numpy scalars are stored as Python ``int`` and ``float``, so the config
    echoes into a run file as given.
    """

    kind: DivergenceKind = DivergenceKind.L1
    objective: str = "minmax"
    theta: float = 0.8
    k_re: int = 50
    k_att: int = 10
    k_eval: int = 10
    polarity_mode: str = "agnostic"

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", DivergenceKind(self.kind))
        except ValueError:
            kinds = tuple(k.value for k in DivergenceKind)
            raise ValidationError(f"kind must be one of {kinds}, got {self.kind!r}") from None
        if self.objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        for name in ("k_re", "k_att", "k_eval"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        theta = self.theta
        if isinstance(theta, bool) or not isinstance(theta, numbers.Real):
            raise ValidationError(f"theta must be a real number, got {theta!r}")
        if type(theta) not in (int, float):
            object.__setattr__(self, "theta", float(theta))
        if not 0.0 < self.theta <= 1.0:
            raise ValidationError(f"theta must be in (0, 1], got {self.theta}")
        if not 1 <= self.k_att <= self.k_re:
            raise ValidationError(
                f"need 1 <= k_att <= k_re, got k_att={self.k_att}, k_re={self.k_re}"
            )
        if not 1 <= self.k_eval <= self.k_re:
            raise ValidationError(
                f"need 1 <= k_eval <= k_re, got k_eval={self.k_eval}, k_re={self.k_re}"
            )
        if self.polarity_mode not in ("aware", "agnostic"):
            raise ValidationError(
                f"polarity_mode must be 'aware' or 'agnostic', got {self.polarity_mode!r}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "objective": self.objective,
            "theta": self.theta,
            "k_re": self.k_re,
            "k_att": self.k_att,
            "k_eval": self.k_eval,
            "polarity_mode": self.polarity_mode,
        }


@dataclass(eq=False)
class RunResult:
    """One completed run: per-query rankings, quality, and the final ledger.

    ``orderings`` is a (T, n) integer array: row ``s`` lists the dataset
    positions of step ``s``'s ranking, best first.
    """

    config: RerankConfig
    query_ids: list[str]
    orderings: np.ndarray
    ndcg: list[float]
    fallback: list[bool]
    objective_trace: list[float]
    ledger: Ledger
    sweeps: int = 0

    @cached_property
    def assignments(self) -> list[Assignment]:
        """The orderings as ``Assignment``s of the dataset's ids, built on
        first use."""
        ids = self.ledger.dataset.individuals
        return [Assignment(tuple(map(ids.__getitem__, row))) for row in self.orderings.tolist()]

    @property
    def fallback_count(self) -> int:
        return sum(self.fallback)

    @property
    def mean_ndcg(self) -> float:
        return float(np.mean(self.ndcg))


def _solve_step(d, relevance_head, theta_rho, config):
    """Dispatch one per-query subproblem to the configured solver."""
    if config.objective in ("minmax", "minmax-lex"):
        res = bottleneck_with_quality(d, relevance_head, theta_rho, config.k_eval)
        if res.feasible and config.objective == "minmax-lex":
            # the bottleneck search is refinement's first level
            res = _refine_bottleneck(d, relevance_head, theta_rho, res, config.k_eval)
        return res
    return constrained_min_sum(d, relevance_head, theta_rho, config.k_eval)


def _cost_kind(config: RerankConfig) -> DivergenceKind:
    return DivergenceKind.L1 if config.objective == "minsum" else config.kind


def _step_setup(dataset: Dataset, rel: np.ndarray, config: RerankConfig):
    """One step's assignment-independent constants from its relevance row
    ``rel`` (dataset order): the ideal ordering as dataset positions, its
    DCG at the evaluation depth and the relevance of its ``k_re`` head
    candidates."""
    ideal = ideal_order(dataset.id_order, rel)
    rel_head = rel[ideal[: config.k_re]]
    return ideal, _dcg(rel_head[: config.k_eval].tolist()), rel_head


def _with_head(ideal: np.ndarray, order) -> np.ndarray:
    """The ideal ordering with its head re-ordered: rank ``j+1`` goes to head
    candidate ``order[j]``."""
    rows = ideal.copy()
    rows[: len(order)] = ideal[order]
    return rows


def rerank_online(dataset: Dataset, stream: Stream, config: RerankConfig) -> RunResult:
    ledger = Ledger(dataset, stream)
    if config.k_re > dataset.n:
        raise ValidationError(
            f"prefilter depth k_re={config.k_re} exceeds dataset size {dataset.n}"
        )
    attention = AttentionModel(config.k_att)
    cost_kind = _cost_kind(config)

    orderings = np.empty(ledger.relevance.shape, dtype=np.intp)
    ndcg, fallback, trace = [], [], []
    for step, (rel, polarity) in enumerate(zip(ledger.relevance, stream.polarity)):
        rows, ideal_dcg, rel_head = _step_setup(dataset, rel, config)
        fell_back = False
        objective_value = math.nan
        if config.objective != "none":
            d = divergence_matrix(
                ledger, rows[: config.k_re], rel_head, polarity, attention, cost_kind,
                config.polarity_mode,
            )
            res = _solve_step(d, rel_head, config.theta * ideal_dcg, config)
            if res.feasible:
                rows = _with_head(rows, np.argsort(res.assignment))
                objective_value = res.objective
            else:
                fell_back = True
        ledger.update(rows, attention)
        orderings[step] = rows
        ndcg.append(_ndcg(rel[rows[: config.k_eval]].tolist(), ideal_dcg))
        fallback.append(fell_back)
        trace.append(objective_value)
    return RunResult(
        config, list(stream.query_ids), orderings, ndcg, fallback, trace, ledger
    )


# -- offline coordinate descent ----------------------------------------------

# joint moves enumerate a block of steps only while the product of their
# feasible-ordering counts stays within BLOCK_BUDGET, and a step's orderings
# only while its head has at most PER_STEP_CAP permutations (k_re <= 6)
BLOCK_BUDGET = 20_000
PER_STEP_CAP = 720


def _final_moment_matrix(ledger, step0, polarity, rows, config, attention):
    """Final-horizon L1/L2var divergence per candidate x head position.

    Entry [i, j]: the end-of-stream divergence the candidate at dataset
    position ``rows[i]`` would hold if its attention at step ``step0``
    (whose polarity vector is ``polarity``) came from position ``j+1``
    instead of the one stored in the ledger, everything else unchanged.
    """
    mode = config.polarity_mode
    K = len(rows)
    e = _query_eta(polarity, ledger.components, mode)[None, None, :]
    w_cur = ledger.stored("attention")[step0, rows][:, None, None]
    w_new = attention.weights(ledger.dataset.n)[:K][None, :, None]
    mean_a, var_a = ledger.moments_at(rows, "attention", mode)
    mean_r, var_r = ledger.moments_at(rows, "relevance", mode)
    # (K cand, K pos, P); the step's variance terms are written as the
    # ledger accrues them, so the current one cancels from var_a exactly and
    # the replaced variance cannot go below zero
    attn_mean = mean_a[:, None, :] + e * (w_new - w_cur)
    attn_var = var_a[:, None, :] + (
        e * e * w_new * (1.0 - w_new) - e * e * w_cur * (1.0 - w_cur)
    )
    values = _component_values(
        _cost_kind(config), attn_mean, attn_var, None,
        mean_r[:, None, :], var_r[:, None, :], None,
    )
    return values.sum(axis=2)


def _final_w1_matrix(ledger, step0, polarity, rows, config, attention):
    """Final-horizon W1 divergence: this step's sequence entry is replaced.

    Entry [i, j]: the end-of-stream W1 the candidate at dataset position
    ``rows[i]`` would hold if its attention at step ``step0`` came from
    position ``j+1``; the step's entry is deleted and the new value inserted
    in closed form.
    """
    mode = config.polarity_mode
    K = len(rows)
    eta = _query_eta(polarity, ledger.components, mode)
    seq_a = ledger.values_at(rows, "attention", mode)  # (T, K, P)
    base = np.sort(np.delete(seq_a, step0, axis=0), axis=0)
    rel_sorted = np.sort(ledger.values_at(rows, "relevance", mode), axis=0)
    w_new = attention.weights(ledger.dataset.n)[:K]
    return w1_insert_matrix(base, rel_sorted, eta[None, :] * w_new[:, None])


def _profile(ledger, config) -> tuple[float, ...]:
    """The end-of-stream objective profile descent minimizes.

    For min-max objectives it is every individual's divergence sorted
    descending (lexicographic acceptance keeps descent moving across
    plateaus of the maximum); for min-sum it is the summed L1 divergence.
    """
    values = individual_divergences(
        ledger, _cost_kind(config), config.polarity_mode
    ).values()
    if config.objective == "minsum":
        return (float(np.sum(list(values))),)
    return tuple(sorted(values, reverse=True))


def _lex_less(a, b, tol: float) -> bool:
    for x, y in zip(a, b):
        if abs(x - y) <= tol:
            continue
        return x < y
    return False


def _step_options(rel_head, ideal, theta_rho, config: RerankConfig):
    """All quality-feasible orderings of one step as dataset positions, or
    None if too many."""
    K = len(rel_head)
    if math.factorial(K) > PER_STEP_CAP:
        return None
    options = []
    values = rel_head.tolist()
    for order in itertools.permutations(range(K)):
        # k_eval <= k_re, so the head alone decides the DCG
        head = [values[i] for i in order[: config.k_eval]]
        if _dcg(head) >= theta_rho - FEASIBILITY_TOL:
            options.append(_with_head(ideal, list(order)))
    return options


def rerank_offline(
    dataset: Dataset,
    stream: Stream,
    config: RerankConfig,
    max_sweeps: int = 10,
) -> RunResult:
    """Block-coordinate-descent refinement of the online solution.

    Descent works on one ledger holding the current orderings' attention.
    Each round first sweeps the queries in order, re-solving one step's
    assignment against the end-of-stream objective with every other step
    held fixed (quality constraint re-checked per step). A proposal is
    scored by writing its attention row into the ledger and evaluating the
    individual divergences there; a rejected row is put back. When a sweep
    stalls, descent escalates to joint moves over blocks of 1, 2, ... steps,
    enumerating the block's feasible orderings whenever the option sets are
    small enough (product of option counts within ``BLOCK_BUDGET``); on
    desk-scale prefilter depths the blocks are not enumerable and descent
    reduces to plain sweeps. Only strict (lexicographic) improvements are
    accepted, so the final objective never exceeds the online one. Stops
    after ``max_sweeps`` rounds or when no move of any size improves. The
    final orderings are then replayed once for the per-step nDCG and
    objective trace.
    """
    online = rerank_online(dataset, stream, config)
    if max_sweeps <= 0 or len(stream) <= 1 or config.objective == "none":
        return online
    attention = AttentionModel(config.k_att)
    ledger = online.ledger
    steps = [_step_setup(dataset, rel, config) for rel in ledger.relevance]
    orderings = online.orderings.copy()
    best = _profile(ledger, config)
    step_config = config
    if config.objective == "minmax":
        # lex-refined step proposals explore the plateau of the step optimum
        step_config = RerankConfig(**{**config.to_dict(), "objective": "minmax-lex"})
    final_matrix = _final_moment_matrix
    if _cost_kind(config) == DivergenceKind.W1:
        final_matrix = _final_w1_matrix
    options_cache: list | None = None

    def sweep() -> bool:
        nonlocal best
        improved = False
        for step0, (polarity, (ideal, ideal_dcg, rel_head)) in enumerate(
            zip(stream.polarity, steps)
        ):
            if online.fallback[step0]:
                continue
            head = ideal[: len(rel_head)]
            d = final_matrix(ledger, step0, polarity, head, config, attention)
            res = _solve_step(d, rel_head, config.theta * ideal_dcg, step_config)
            if not res.feasible:
                continue
            proposal = _with_head(ideal, np.argsort(res.assignment))
            if np.array_equal(proposal, orderings[step0]):
                continue
            kept = ledger._replace_attention(step0, attention.scatter(proposal))
            trial_profile = _profile(ledger, config)
            if _lex_less(trial_profile, best, IMPROVEMENT_TOL):
                orderings[step0] = proposal
                best = trial_profile
                improved = True
            else:
                ledger._replace_attention(step0, kept)
        return improved

    def escalate() -> bool:
        nonlocal best, options_cache
        if options_cache is None:
            options_cache = []
            for ideal, ideal_dcg, rel_head in steps:
                options = _step_options(rel_head, ideal, config.theta * ideal_dcg, config)
                options_cache.append(
                    None if options is None
                    else [(o, attention.scatter(o)) for o in options]
                )
        T = len(stream)
        for size in range(1, T + 1):
            for block in itertools.combinations(range(T), size):
                counts = []
                for s in block:
                    if online.fallback[s] or options_cache[s] is None:
                        counts = None
                        break
                    counts.append(len(options_cache[s]))
                if counts is None or math.prod(counts) > BLOCK_BUDGET:
                    continue
                block_best = None
                for combo in itertools.product(*(options_cache[s] for s in block)):
                    kept = [
                        ledger._replace_attention(s, row) for s, (_, row) in zip(block, combo)
                    ]
                    profile = _profile(ledger, config)
                    for s, row in zip(block, kept):
                        ledger._replace_attention(s, row)
                    if block_best is None or _lex_less(profile, block_best[0], 0.0):
                        block_best = (profile, combo)
                if block_best and _lex_less(block_best[0], best, IMPROVEMENT_TOL):
                    best = block_best[0]
                    for s, (ordering, row) in zip(block, block_best[1]):
                        orderings[s] = ordering
                        ledger._replace_attention(s, row)
                    return True
        return False

    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        if sweep() or escalate():
            continue
        break

    # replay final orderings for per-step statistics
    final_ledger = Ledger(dataset, stream)
    ndcg, trace = [], []
    positions = np.arange(dataset.n)
    rank_of = np.empty(dataset.n, dtype=np.intp)
    for step0, (rel, polarity, rows, (ideal, ideal_dcg, rel_head)) in enumerate(
        zip(ledger.relevance, stream.polarity, orderings, steps)
    ):
        K = len(rel_head)
        if online.fallback[step0]:
            trace.append(math.nan)
        else:
            d = divergence_matrix(
                final_ledger,
                ideal[:K],
                rel_head,
                polarity,
                attention,
                _cost_kind(config),
                config.polarity_mode,
            )
            # the rank of each head candidate, 0-based, from the inverse
            # permutation of the ordering
            rank_of[rows] = positions
            chosen = rank_of[ideal[:K]]
            values = d[np.arange(K), chosen]
            trace.append(
                float(values.sum() if config.objective == "minsum" else values.max())
            )
        final_ledger.update(rows, attention)
        ndcg.append(_ndcg(rel[rows[: config.k_eval]].tolist(), ideal_dcg))
    return RunResult(
        config,
        list(online.query_ids),
        orderings,
        ndcg,
        list(online.fallback),
        trace,
        final_ledger,
        sweeps=sweeps,
    )


def _check_same_stream(result: RunResult, baseline: RunResult) -> None:
    a, b = result.ledger, baseline.ledger
    differs = [
        what
        for what, same in (
            ("individuals", a.dataset.individuals == b.dataset.individuals),
            ("query ids", result.query_ids == baseline.query_ids),
            ("relevance", np.array_equal(a.relevance, b.relevance)),
            ("polarity", np.array_equal(a.polarity, b.polarity)),
        )
        if not same
    ]
    if differs:
        raise ValidationError(
            f"baseline run ranks another stream (its {', '.join(differs)} differ)"
        )


def evaluate_run(
    result: RunResult,
    dataset: Dataset | None = None,
    baseline: "RunResult | MetricsReport | None" = None,
) -> MetricsReport:
    """Assemble the full metric report for a completed run.

    A baseline ``RunResult`` must rank the same stream: it raises
    ValidationError unless its individuals, query ids, relevance and
    polarity equal the run's. Its report then shares the run's relevance
    side: each polarity mode's relevance is read once, for both reports.
    """
    dataset = dataset or result.ledger.dataset
    if isinstance(baseline, RunResult):
        _check_same_stream(result, baseline)
        report, baseline = _reports(dataset, result.ledger, baseline.ledger)
    else:
        (report,) = _reports(dataset, result.ledger)
    report.mean_ndcg = result.mean_ndcg
    report.fallback_count = result.fallback_count
    report.per_query_ndcg = list(result.ndcg)
    report.objective_trace = list(result.objective_trace)
    if baseline is not None:
        report.improvement = improvement_panel(baseline, report)
    return report
