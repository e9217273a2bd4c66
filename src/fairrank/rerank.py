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

Both engines rank through one step loop, ``_run``, which takes each step's
matching from a callback (online the solver's, offline the final descent
ordering's) and reads the trace from the step's divergence matrix there.
"""

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assign import (
    FEASIBILITY_TOL,
    _all_permutations,
    bottleneck_with_quality,
    constrained_min_sum,
    lexicographic_refine,
)
from .core import (
    Assignment, AttentionModel, Dataset, Ledger, Stream, _dcg_rows, _ndcg_rows, ideal_order
)
from .divergence import (
    DivergenceKind,
    _component_values,
    _query_eta,
    divergence_matrix,
    w1_insert_matrix,
)
from .errors import ValidationError
from .metrics import MetricsReport, _individual_values, _reports, improvement_panel

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
    if config.objective == "minmax":
        return bottleneck_with_quality(d, relevance_head, theta_rho, config.k_eval)
    if config.objective == "minmax-lex":
        return lexicographic_refine(d, relevance_head, theta_rho, config.k_eval)
    return constrained_min_sum(d, relevance_head, theta_rho, config.k_eval)


def _cost_kind(config: RerankConfig) -> DivergenceKind:
    return DivergenceKind.L1 if config.objective == "minsum" else config.kind


def _ideal(dataset: Dataset, relevance: np.ndarray, config: RerankConfig):
    """Each step's assignment-independent constants from the (T, n)
    ``relevance`` (dataset order): the ideal orderings as a (T, n) array of
    dataset positions, the (T, k_re) relevance of each step's head
    candidates and the (T,) ideal DCGs at the evaluation depth."""
    ideal = np.empty(relevance.shape, dtype=np.intp)
    for step, rel in enumerate(relevance):
        ideal[step] = ideal_order(dataset.id_order, rel)
    rel_heads = np.take_along_axis(relevance, ideal[:, : config.k_re], axis=1)
    return ideal, rel_heads, _dcg_rows(rel_heads[:, : config.k_eval])


def _with_head(ideal: np.ndarray, order) -> np.ndarray:
    """The ideal ordering with its head re-ordered: rank ``j+1`` goes to head
    candidate ``order[j]``."""
    rows = ideal.copy()
    rows[: len(order)] = ideal[order]
    return rows


def _run(dataset: Dataset, stream: Stream, config: RerankConfig, choose) -> RunResult:
    """Rank the stream in order, accruing each query into a fresh ledger.

    At each step ``choose(step, d, rel_head, theta_rho)`` gets the head's
    divergence matrix against the ledger so far and returns each head
    candidate's column (0-based rank), or None to emit the ideal ordering as
    a fallback. The trace reads ``d`` at the chosen matching: its sum for
    ``minsum``, its maximum otherwise.
    """
    ledger = Ledger(dataset, stream)
    if config.k_re > dataset.n:
        raise ValidationError(
            f"prefilter depth k_re={config.k_re} exceeds dataset size {dataset.n}"
        )
    attention = AttentionModel(config.k_att)
    cost_kind = _cost_kind(config)
    orderings, rel_heads, ideal_dcg = _ideal(dataset, ledger.relevance, config)
    K = config.k_re
    head_rows = np.arange(K)
    fallback, trace = [], []
    for step, (rows, rel_head, polarity, rho) in enumerate(
        zip(orderings, rel_heads, stream.polarity, ideal_dcg.tolist())
    ):
        cols = None
        if config.objective != "none":
            d = divergence_matrix(
                ledger, rows[:K], rel_head, polarity, attention, cost_kind, config.polarity_mode
            )
            cols = choose(step, d, rel_head, config.theta * rho)
        if cols is None:
            trace.append(math.nan)
        else:
            cols = np.asarray(cols)
            values = d[head_rows, cols]
            trace.append(float(values.sum() if config.objective == "minsum" else values.max()))
            rows[:K] = rows[:K][np.argsort(cols)]
        fallback.append(cols is None and config.objective != "none")
        ledger.update(rows, attention)
    heads = np.take_along_axis(ledger.relevance, orderings[:, : config.k_eval], axis=1)
    ndcg = _ndcg_rows(heads, ideal_dcg).tolist()
    return RunResult(config, list(stream.query_ids), orderings, ndcg, fallback, trace, ledger)


def rerank_online(dataset: Dataset, stream: Stream, config: RerankConfig) -> RunResult:
    def choose(step, d, rel_head, theta_rho):
        try:
            res = _solve_step(d, rel_head, theta_rho, config)
        except ValidationError as exc:
            raise ValidationError(
                f"query {stream.query_ids[step]!r} (polarity {stream.polarity[step].tolist()}): "
                f"{exc}"
            ) from None
        return res.assignment if res.feasible else None

    return _run(dataset, stream, config, choose)


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


def _profile(ledger, config) -> np.ndarray:
    """The end-of-stream objective profile descent minimizes.

    For min-max objectives it is every individual's divergence sorted
    descending (lexicographic acceptance keeps descent moving across
    plateaus of the maximum); for min-sum it is the summed L1 divergence.
    """
    values = _individual_values(ledger, _cost_kind(config), config.polarity_mode)
    if config.objective == "minsum":
        return values.sum(keepdims=True)
    return np.sort(values)[::-1]


def _lex_less(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Whether ``a`` is below ``b`` at their first entries more than ``tol``
    apart."""
    differ = ~(np.abs(a - b) <= tol)
    first = differ.argmax()
    return bool(differ[first] and a[first] < b[first])


def _step_options(rel_head, ideal, theta_rho, config: RerankConfig):
    """All quality-feasible orderings of one step as dataset positions, or
    None if too many."""
    K = len(rel_head)
    if math.factorial(K) > PER_STEP_CAP:
        return None
    orders = _all_permutations(K)
    # k_eval <= k_re, so the head alone decides the DCG
    feasible = _dcg_rows(rel_head[orders[:, : config.k_eval]]) >= theta_rho - FEASIBILITY_TOL
    return [_with_head(ideal, order) for order in orders[feasible]]


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
    small enough (product of option counts within ``BLOCK_BUDGET``), drawing
    in order on the steps that can change the profile: enumerable (``k_re``
    <= 6), not fallen back, with an option besides the current ordering. A
    stall so visits at most sum_{s <= 14} C(m, s) blocks for m steps of two
    or more options, times 2^r for r steps of one (only rounding allows
    those); none at larger ``k_re``. Only strict (lexicographic) improvements
    are accepted, so the final objective never exceeds the online one. Stops
    after ``max_sweeps`` rounds (an integer >= 0, else ValidationError before
    any ranking) or when no move of any size improves. The final orderings
    are then ranked once more through the online step loop, for the per-step
    nDCG and objective trace.
    """
    integral = isinstance(max_sweeps, numbers.Integral) and not isinstance(max_sweeps, bool)
    if not integral or max_sweeps < 0:
        raise ValidationError(f"max_sweeps must be an integer >= 0, got {max_sweeps!r}")
    online = rerank_online(dataset, stream, config)
    if max_sweeps == 0 or len(stream) <= 1 or config.objective == "none":
        return online
    attention = AttentionModel(config.k_att)
    ledger = online.ledger
    ideal, rel_heads, ideal_dcg = _ideal(dataset, ledger.relevance, config)
    floors = (config.theta * ideal_dcg).tolist()
    K = config.k_re
    orderings = online.orderings
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
        for step0, (polarity, rows, rel_head, floor) in enumerate(
            zip(stream.polarity, ideal, rel_heads, floors)
        ):
            if online.fallback[step0]:
                continue
            d = final_matrix(ledger, step0, polarity, rows[:K], config, attention)
            res = _solve_step(d, rel_head, floor, step_config)
            if not res.feasible:
                continue
            proposal = _with_head(rows, np.argsort(res.assignment))
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
            for rows, rel_head, floor in zip(ideal, rel_heads, floors):
                options = _step_options(rel_head, rows, floor, config)
                options_cache.append(
                    None if options is None
                    else [(o, attention.scatter(o)) for o in options]
                )
        # a step with no options leaves nothing to enumerate, and one whose
        # only option is its current ordering leaves every profile as it is
        steps_in = [
            s for s, options in enumerate(options_cache)
            if options and not online.fallback[s]
            and not (len(options) == 1 and np.array_equal(options[0][0], orderings[s]))
        ]
        counts = sorted(len(options_cache[s]) for s in steps_in)
        for size in range(1, len(steps_in) + 1):
            if math.prod(counts[:size]) > BLOCK_BUDGET:
                break  # every block of this size or more is over budget
            for block in itertools.combinations(steps_in, size):
                if math.prod(len(options_cache[s]) for s in block) > BLOCK_BUDGET:
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

    # the final orderings, ranked once more for per-step nDCG and trace
    rank_of = np.empty(dataset.n, dtype=np.intp)
    head_ranks = np.arange(K)

    def replay(step, d, rel_head, theta_rho):
        if online.fallback[step]:
            return None
        rank_of[orderings[step, :K]] = head_ranks
        return rank_of[ideal[step, :K]]

    result = _run(dataset, stream, config, replay)
    result.sweeps = sweeps
    return result


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
