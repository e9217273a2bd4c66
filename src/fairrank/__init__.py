"""Distribution- and polarity-aware amortized fair ranking.

A ranking allocates attention by position; over a stream of queries each
individual accrues a cumulative attention distribution and a cumulative
relevance distribution. This package measures unfairness as divergence
between the two (worst-case across individuals or groups), re-ranks each
incoming query under an exact quality-constrained assignment solver to
shrink that divergence, weights everything by per-query polarity so that
harmful attention counts against an individual rather than for it, and
ships concentration bounds, synthetic benchmarks, and a verification
harness around the whole pipeline.
"""

from .assign import (
    MatchResult,
    bottleneck_with_quality,
    brute_force,
    constrained_min_sum,
    lexicographic_refine,
)
from .bounds import BernoulliStream, chernoff_bound, hoeffding_bound, monte_carlo_tail
from .core import (
    Assignment,
    AttentionModel,
    Dataset,
    Ledger,
    Stream,
    attention_weights,
    ideal_order,
)
from .divergence import DivergenceKind, d_multi, divergence_matrix
from .errors import FairRankError
from .metrics import (
    MetricsReport,
    UNDEFINED,
    build_report,
    dp,
    eur,
    fairwashing_delta,
    group_unfairness,
    iaa,
    individual_unfairness,
    relative_improvement,
)
from .rerank import RerankConfig, RunResult, evaluate_run, rerank_offline, rerank_online
from .synth import (
    SynthSpec,
    fairwashing_scenario,
    gen_random_instance,
    gen_synth_binary,
    gen_synth_cont,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AttentionModel",
    "BernoulliStream",
    "Dataset",
    "DivergenceKind",
    "FairRankError",
    "Ledger",
    "MatchResult",
    "MetricsReport",
    "RerankConfig",
    "RunResult",
    "Stream",
    "SynthSpec",
    "UNDEFINED",
    "attention_weights",
    "bottleneck_with_quality",
    "brute_force",
    "build_report",
    "chernoff_bound",
    "constrained_min_sum",
    "d_multi",
    "divergence_matrix",
    "dp",
    "eur",
    "evaluate_run",
    "fairwashing_delta",
    "fairwashing_scenario",
    "gen_random_instance",
    "gen_synth_binary",
    "gen_synth_cont",
    "group_unfairness",
    "hoeffding_bound",
    "iaa",
    "ideal_order",
    "individual_unfairness",
    "lexicographic_refine",
    "monte_carlo_tail",
    "relative_improvement",
    "rerank_offline",
    "rerank_online",
]
