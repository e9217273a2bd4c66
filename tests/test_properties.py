"""Seeded properties of the re-rankers over every kind, objective and
polarity mode, on small synthetic streams:

* every step that did not fall back emits a head whose DCG at the
  evaluation depth is at least theta * rho, within ``FEASIBILITY_TOL``;
* offline descent ends on an objective profile never above the online
  run's (lexicographically for the min-max objectives, the summed L1 gap
  for min-sum);
* a saved run file loads and replays to the same orderings, relevance
  bytes, nDCG and report, on streams with ties and with several polarity
  components, and a file cut anywhere in its body is rejected;
* every min-sum answer on a near-tight floor clears it and costs what the
  K! oracle's answer costs.
"""

import itertools

import numpy as np
import pytest

from fairrank import io as fio
from fairrank.assign import (
    FEASIBILITY_TOL,
    brute_force,
    constrained_min_sum,
    matching_values,
    position_discounts,
)
from fairrank.core import Dataset, Stream
from fairrank.divergence import DivergenceKind
from fairrank.errors import FairRankError, ValidationError
from fairrank.rerank import RerankConfig, evaluate_run, rerank_offline, rerank_online
from fairrank.synth import SynthSpec, gen_random_instance, gen_synth_binary, gen_synth_cont

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


def _tied_instance(rng):
    """Relevance on a grid of quarters, so most rows tie, with one to three
    polarity components; the dataset lists its ids unsorted, the stream
    sorted."""
    n, T, P = int(rng.integers(4, 10)), int(rng.integers(2, 7)), int(rng.integers(1, 4))
    ids = [f"u{k:02d}" for k in range(n)]
    counts = rng.integers(0, 4, (T, n)).astype(float)
    counts[:, 0] += 1.0
    order = rng.permutation(n)
    dataset = Dataset(
        tuple(ids[k] for k in order), {i: f"g{k % 2}" for k, i in enumerate(ids)}
    )
    stream = Stream(
        [f"q{s}" for s in range(T)],
        np.arange(1, T + 1),
        rng.uniform(-1.0, 1.0, (T, P)),
        tuple(ids),
        counts / counts.sum(axis=1, keepdims=True),
    )
    return dataset, stream


def _round_trip_case(seed):
    rng = np.random.default_rng([31, seed])
    make = seed % 3
    if make == 0:
        dataset, stream = _tied_instance(rng)
    elif make == 1:
        dataset, stream = gen_synth_binary(SynthSpec(n=8, T=4, seed=seed))
    else:
        dataset, stream = gen_random_instance(
            7, 2, 5, "continuous", seed=seed, components=int(rng.integers(2, 4))
        )
    # offline descent escalates to block moves at k_re > 3, seconds per case
    k_re = int(rng.integers(2, 4))
    config = RerankConfig(
        kind=KINDS[int(rng.integers(3))], objective=OBJECTIVES[int(rng.integers(3))],
        theta=float(rng.uniform(0.6, 0.95)), k_re=k_re,
        k_att=int(rng.integers(1, k_re + 1)), k_eval=int(rng.integers(1, k_re + 1)),
        polarity_mode=MODES[int(rng.integers(2))],
    )
    return rng, dataset, stream, config, bool(rng.integers(2))


@pytest.mark.parametrize("seed", range(24))
def test_run_file_round_trip(seed, tmp_path):
    rng, dataset, stream, config, offline = _round_trip_case(seed)
    run = (
        rerank_offline(dataset, stream, config, max_sweeps=2)
        if offline
        else rerank_online(dataset, stream, config)
    )
    base = rerank_online(dataset, stream, RerankConfig(
        kind=config.kind, objective="none", k_re=config.k_re, k_att=config.k_att,
        k_eval=config.k_eval,
    ))
    run_path, base_path = tmp_path / "run.json", tmp_path / "base.json"
    fio.save_run(run_path, run, stream)
    fio.save_run(base_path, base, stream)
    payload = fio.load_run(run_path)
    assert payload["stream"]["relevance"].tobytes() == stream.relevance.tobytes()
    replayed = fio.replay_run(payload, dataset.group_of)
    replayed_base = fio.replay_run(fio.load_run(base_path), dataset.group_of)
    assert [a.ordering for a in replayed.assignments] == [a.ordering for a in run.assignments]
    assert replayed.ndcg == run.ndcg and replayed.fallback == run.fallback
    assert repr(replayed.objective_trace) == repr(run.objective_trace)
    want = fio.canonical_json(evaluate_run(run, baseline=base).to_dict())
    got = fio.canonical_json(evaluate_run(replayed, baseline=replayed_base).to_dict())
    assert got == want
    again = tmp_path / "again.json"
    fio.save_run(again, replayed, stream)
    assert again.read_bytes() == run_path.read_bytes()
    # a body cut anywhere short of its end no longer holds 12 x T x n bytes
    data = run_path.read_bytes()
    body = len(data) - data.index(b"\n") - 1
    run_path.write_bytes(data[: len(data) - int(rng.integers(1, body + 1))])
    with pytest.raises(ValidationError, match="bytes, expected"):
        fio.load_run(run_path)


def _near_tight_min_sum(rng):
    """A K <= 7 min-sum instance whose floor is the gain of a random
    matching raised by 0 to 1e-7 of itself, with relevance scaled by 1e-5
    to 10: the floor binds unless the cost-optimal matching clears it, and
    lies within HiGHS's default feasibility tolerance of a matching's gain."""
    k = int(rng.integers(2, 8))
    costs = rng.integers(0, 5, (k, k)) / 4.0 if rng.random() < 0.3 else rng.random((k, k))
    rel = rng.random(k) * 10.0 ** int(rng.integers(-5, 2))
    depth = None if rng.random() < 0.3 else int(rng.integers(1, k + 1))
    gains = rel[:, None] * position_discounts(k, depth)[None, :]
    floor = float(matching_values(gains, rng.permutation(k)).sum())
    theta_rho = floor * (1.0 + float(rng.choice([0.0, 1e-10, 1e-9, 1e-8, 1e-7])))
    return costs, rel, theta_rho, depth, gains


@pytest.mark.parametrize("seed", range(8))
def test_min_sum_answers_clear_near_tight_floors(seed):
    """A min-sum solve either answers, proven optimal, or raises
    FairRankError. HiGHS holds the DCG row, divided by theta_rho, to a
    relative 1e-7, so where a cheaper matching lies just below the floor the
    solve may raise; nine in ten of these instances must be answered."""
    rng = np.random.default_rng([59, seed])
    answered = 0
    for _ in range(50):
        costs, rel, theta_rho, depth, gains = _near_tight_min_sum(rng)
        try:
            res = constrained_min_sum(costs, rel, theta_rho, depth)
        except FairRankError:
            continue
        answered += 1
        oracle = brute_force("minsum", costs, rel, theta_rho, depth)
        assert res.feasible == oracle.feasible
        if res.feasible:
            assert float(matching_values(gains, res.assignment).sum()) >= theta_rho - FEASIBILITY_TOL
            assert abs(res.objective - oracle.objective) <= 1e-9
    assert answered >= 45
