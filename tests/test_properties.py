"""Seeded properties of the re-rankers over every kind, objective and
polarity mode, on small synthetic streams:

* every step that did not fall back emits a head whose DCG at the
  evaluation depth is at least theta * rho, within ``FEASIBILITY_TOL``;
* offline descent ends on an objective profile never above the online
  run's (lexicographically for the min-max objectives, the summed L1 gap
  for min-sum).
"""

import itertools

import numpy as np
import pytest

from fairrank.assign import FEASIBILITY_TOL
from fairrank.divergence import DivergenceKind
from fairrank.rerank import RerankConfig, rerank_offline, rerank_online
from fairrank.synth import SynthSpec, gen_random_instance, gen_synth_cont

from oracles import dcg_oracle, ideal_ranking_oracle, individual_divergences_oracle, relevance_dicts

KINDS = ("L1", "L2var", "W1")
OBJECTIVES = ("minmax", "minmax-lex", "minsum")
MODES = ("aware", "agnostic")
# profiles closer than this are equal: descent accepts a move only when it
# is lower by more than 1e-12, so a chain of moves may drift by a few of those
PROFILE_TOL = 1e-9


def _streams(rng):
    """One continuous two-group stream (P = 1, alternating polarity) and one
    random grouped stream (P = 2, continuous polarity), both small."""
    yield gen_synth_cont(SynthSpec(n=8, T=4, seed=int(rng.integers(2**31)), variant="continuous"))
    yield gen_random_instance(
        7, 2, 4, "continuous", seed=int(rng.integers(2**31)), components=2
    )


def _configs(rng):
    for kind, objective, mode in itertools.product(KINDS, OBJECTIVES, MODES):
        yield RerankConfig(
            kind=kind, objective=objective, theta=float(rng.uniform(0.6, 0.95)),
            k_re=3, k_att=int(rng.integers(1, 4)), k_eval=int(rng.integers(2, 4)),
            polarity_mode=mode,
        )


def _profile(ledger, config) -> list[float]:
    """The end-of-stream objective, recomputed per individual by the oracle."""
    if config.objective == "minsum":
        values = individual_divergences_oracle(ledger, DivergenceKind.L1, config.polarity_mode)
        return [sum(values.values())]
    values = individual_divergences_oracle(ledger, config.kind, config.polarity_mode)
    return sorted(values.values(), reverse=True)


def _not_above(profile, reference) -> bool:
    for x, y in zip(profile, reference):
        if abs(x - y) > PROFILE_TOL:
            return x < y
    return True


def _cases():
    rng = np.random.default_rng(97)
    for config in _configs(rng):
        for dataset, stream in _streams(rng):
            yield config, dataset, stream


CASES = list(_cases())


@pytest.mark.parametrize("case", range(len(CASES)))
def test_quality_floor_and_offline_never_above_online(case):
    config, dataset, stream = CASES[case]
    online = rerank_online(dataset, stream, config)
    offline = rerank_offline(dataset, stream, config, max_sweeps=2)
    for run in (online, offline):
        for rel, assignment, fell_back in zip(
            relevance_dicts(stream), run.assignments, run.fallback
        ):
            if fell_back:
                continue
            rho = dcg_oracle(ideal_ranking_oracle(rel), rel, config.k_eval)
            got = dcg_oracle(assignment.ordering, rel, config.k_eval)
            assert got >= config.theta * rho - FEASIBILITY_TOL, (config, assignment)
    assert _not_above(_profile(offline.ledger, config), _profile(online.ledger, config)), config
