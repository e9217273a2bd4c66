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
from dataclasses import dataclass

import numpy as np

from .assign import (
    FEASIBILITY_TOL,
    bottleneck_with_quality,
    constrained_min_sum,
    lexicographic_refine,
)
from .core import (
    Assignment,
    AttentionModel,
    Dataset,
    Ledger,
    dcg_at_k,
    ideal_ranking,
    ndcg_at_k,
)
from .divergence import (
    DivergenceKind,
    _component_values,
    _query_eta,
    divergence_matrix,
    w1_insert_matrix,
)
from .errors import LengthMismatchError, StreamOrderError, ValidationError
from .metrics import (
    MetricsReport,
    build_report,
    improvement_panel,
    individual_divergences,
)

OBJECTIVES = ("minmax", "minmax-lex", "minsum", "none")
IMPROVEMENT_TOL = 1e-12


@dataclass(frozen=True)
class RerankConfig:
    """Re-ranking parameters.

    ``theta`` is the fraction of the ideal ranking quality every re-ranked
    query must retain; ``k_re`` the prefilter depth; ``k_att`` the attention
    cutoff; ``k_eval`` the DCG evaluation depth (both capped by ``k_re``).
    """

    kind: DivergenceKind = DivergenceKind.L1
    objective: str = "minmax"
    theta: float = 0.8
    k_re: int = 50
    k_att: int = 10
    k_eval: int = 10
    polarity_mode: str = "agnostic"

    def __post_init__(self):
        object.__setattr__(self, "kind", DivergenceKind(self.kind))
        if self.objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
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


@dataclass
class RunResult:
    """One completed run: per-query rankings, quality, and the final ledger."""

    config: RerankConfig
    query_ids: list[str]
    assignments: list[Assignment]
    ndcg: list[float]
    fallback: list[bool]
    objective_trace: list[float]
    ledger: Ledger
    sweeps: int = 0

    @property
    def fallback_count(self) -> int:
        return sum(self.fallback)

    @property
    def mean_ndcg(self) -> float:
        return float(np.mean(self.ndcg))


def validate_stream(dataset: Dataset, stream) -> int:
    """Check ordering/coverage/polarity-arity invariants; returns P."""
    if not stream:
        raise ValidationError("empty query stream")
    components = stream[0].components
    ids = dataset.index.keys()
    prev_t = 0
    for query in stream:
        if query.t <= prev_t:
            raise StreamOrderError(
                f"query {query.query_id!r}: timestep {query.t} not greater than {prev_t}"
            )
        prev_t = query.t
        if query.relevance.keys() != ids:
            query.validate_coverage(dataset.individuals)
        if query.components != components:
            raise LengthMismatchError(
                f"query {query.query_id!r} has {query.components} polarity "
                f"component(s), expected {components}"
            )
    return components


def _solve_step(d, relevance_head, theta_rho, config):
    """Dispatch one per-query subproblem to the configured solver."""
    if config.objective in ("minmax", "minmax-lex"):
        res = bottleneck_with_quality(d, relevance_head, theta_rho, config.k_eval)
        if res.feasible and config.objective == "minmax-lex":
            res = lexicographic_refine(d, relevance_head, theta_rho, res, config.k_eval)
        return res
    return constrained_min_sum(d, relevance_head, theta_rho, config.k_eval)


def _cost_kind(config: RerankConfig) -> DivergenceKind:
    return DivergenceKind.L1 if config.objective == "minsum" else config.kind


def _step_setup(query, config: RerankConfig):
    """One step's assignment-independent constants: the ideal ordering, its
    head candidates and frozen tail, the quality floor theta*rho and the
    head's relevance."""
    ideal = ideal_ranking(query)
    candidates = ideal[: config.k_re]
    theta_rho = config.theta * dcg_at_k(ideal, query.relevance, config.k_eval)
    rel_head = np.array([query.relevance[c] for c in candidates])
    return ideal, candidates, ideal[config.k_re :], theta_rho, rel_head


def rerank_online(dataset: Dataset, stream, config: RerankConfig) -> RunResult:
    validate_stream(dataset, stream)
    components = stream[0].components
    if config.k_re > dataset.n:
        raise ValidationError(
            f"prefilter depth k_re={config.k_re} exceeds dataset size {dataset.n}"
        )
    attention = AttentionModel(config.k_att)
    ledger = Ledger(dataset, components)
    cost_kind = _cost_kind(config)

    query_ids, assignments, ndcg, fallback, trace = [], [], [], [], []
    for query in stream:
        ideal, candidates, tail, theta_rho, rel_head = _step_setup(query, config)
        if config.objective == "none":
            ordering = ideal
            fell_back = False
            objective_value = math.nan
        else:
            d = divergence_matrix(
                ledger, candidates, query, attention, cost_kind, config.polarity_mode
            )
            res = _solve_step(d, rel_head, theta_rho, config)
            if res.feasible:
                head = tuple(candidates[row] for row in np.argsort(res.assignment))
                ordering = head + tail
                fell_back = False
                objective_value = res.objective
            else:
                ordering = ideal
                fell_back = True
                objective_value = math.nan
        assignment = Assignment(ordering)
        ledger.update(query, assignment, attention)
        query_ids.append(query.query_id)
        assignments.append(assignment)
        ndcg.append(ndcg_at_k(ordering, ideal, query.relevance, config.k_eval))
        fallback.append(fell_back)
        trace.append(objective_value)
    return RunResult(config, query_ids, assignments, ndcg, fallback, trace, ledger)


# -- offline coordinate descent ----------------------------------------------

# joint moves enumerate a block of steps only while the product of their
# feasible-ordering counts stays within BLOCK_BUDGET, and a step's orderings
# only while its head has at most PER_STEP_CAP permutations (k_re <= 6)
BLOCK_BUDGET = 20_000
PER_STEP_CAP = 720


def _final_moment_matrix(ledger, step0, step_query, candidates, config, attention):
    """Final-horizon L1/L2var divergence per candidate x head position.

    Entry [i, j]: the end-of-stream divergence candidate ``i`` would hold if
    its attention at step ``step0`` came from position ``j+1`` instead of
    the one stored in the ledger, everything else unchanged.
    """
    mode = config.polarity_mode
    K = len(candidates)
    e = _query_eta(step_query, ledger.components, mode)[None, None, :]
    rows = [ledger.dataset.index[c] for c in candidates]
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


def _final_w1_matrix(ledger, step0, step_query, candidates, config, attention):
    """Final-horizon W1 divergence: this step's sequence entry is replaced.

    Entry [i, j]: the end-of-stream W1 candidate ``i`` would hold if its
    attention at step ``step0`` came from position ``j+1``; the step's entry
    is deleted and the new value inserted in closed form.
    """
    mode = config.polarity_mode
    K = len(candidates)
    eta = _query_eta(step_query, ledger.components, mode)
    rows = [ledger.dataset.index[c] for c in candidates]
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


def _step_options(query, candidates, tail, theta_rho, config: RerankConfig):
    """All quality-feasible orderings of one step, or None if too many."""
    if math.factorial(len(candidates)) > PER_STEP_CAP:
        return None
    options = []
    for perm in itertools.permutations(candidates):
        ordering = perm + tail
        if (
            dcg_at_k(ordering, query.relevance, config.k_eval)
            >= theta_rho - FEASIBILITY_TOL
        ):
            options.append(ordering)
    return options


def rerank_offline(
    dataset: Dataset,
    stream,
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
    steps = [_step_setup(query, config) for query in stream]
    orderings: list[tuple[str, ...]] = [a.ordering for a in online.assignments]
    ledger = online.ledger
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
        for step0, (query, (_, candidates, tail, theta_rho, rel_head)) in enumerate(
            zip(stream, steps)
        ):
            if online.fallback[step0]:
                continue
            d = final_matrix(ledger, step0, query, candidates, config, attention)
            res = _solve_step(d, rel_head, theta_rho, step_config)
            if not res.feasible:
                continue
            head = tuple(candidates[row] for row in np.argsort(res.assignment))
            proposal = head + tail
            if proposal == orderings[step0]:
                continue
            kept = ledger.replace_attention(
                step0, ledger.attention_values(Assignment(proposal), attention)
            )
            trial_profile = _profile(ledger, config)
            if _lex_less(trial_profile, best, IMPROVEMENT_TOL):
                orderings[step0] = proposal
                best = trial_profile
                improved = True
            else:
                ledger.replace_attention(step0, kept)
        return improved

    def escalate() -> bool:
        nonlocal best, options_cache
        if options_cache is None:
            options_cache = []
            for query, (_, candidates, tail, theta_rho, _) in zip(stream, steps):
                options = _step_options(query, candidates, tail, theta_rho, config)
                options_cache.append(
                    None if options is None else [
                        (o, ledger.attention_values(Assignment(o), attention))
                        for o in options
                    ]
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
                        ledger.replace_attention(s, row) for s, (_, row) in zip(block, combo)
                    ]
                    profile = _profile(ledger, config)
                    for s, row in zip(block, kept):
                        ledger.replace_attention(s, row)
                    if block_best is None or _lex_less(profile, block_best[0], 0.0):
                        block_best = (profile, combo)
                if block_best and _lex_less(block_best[0], best, IMPROVEMENT_TOL):
                    best = block_best[0]
                    for s, (ordering, row) in zip(block, block_best[1]):
                        orderings[s] = ordering
                        ledger.replace_attention(s, row)
                    return True
        return False

    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        if sweep() or escalate():
            continue
        break

    # replay final orderings for per-step statistics
    final_ledger = Ledger(dataset, stream[0].components)
    ndcg, trace = [], []
    for step0, (query, (ideal, candidates, *_)) in enumerate(zip(stream, steps)):
        ordering = orderings[step0]
        if online.fallback[step0]:
            trace.append(math.nan)
        else:
            d = divergence_matrix(
                final_ledger,
                candidates,
                query,
                attention,
                _cost_kind(config),
                config.polarity_mode,
            )
            chosen = [ordering.index(c) for c in candidates]
            values = d[np.arange(len(candidates)), chosen]
            trace.append(
                float(values.sum() if config.objective == "minsum" else values.max())
            )
        final_ledger.update(query, Assignment(ordering), attention)
        ndcg.append(ndcg_at_k(ordering, ideal, query.relevance, config.k_eval))
    return RunResult(
        config,
        list(online.query_ids),
        [Assignment(o) for o in orderings],
        ndcg,
        list(online.fallback),
        trace,
        final_ledger,
        sweeps=sweeps,
    )


def evaluate_run(
    result: RunResult,
    dataset: Dataset | None = None,
    baseline: "RunResult | MetricsReport | None" = None,
) -> MetricsReport:
    """Assemble the full metric report for a completed run."""
    dataset = dataset or result.ledger.dataset
    report = build_report(result.ledger, dataset)
    report.mean_ndcg = result.mean_ndcg
    report.fallback_count = result.fallback_count
    report.per_query_ndcg = list(result.ndcg)
    report.objective_trace = list(result.objective_trace)
    if baseline is not None:
        if isinstance(baseline, RunResult):
            baseline = evaluate_run(baseline, dataset)
        report.improvement = improvement_panel(baseline, report)
    return report
