"""Assignment solvers against hand-enumerated cases and the K! oracle."""

import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import fairrank.assign as assign_mod
from fairrank.assign import (
    FEASIBILITY_TOL,
    bottleneck_with_quality,
    brute_force,
    constrained_min_sum,
    lexicographic_refine,
    matching_values,
    position_discounts,
)
from fairrank.core import AttentionModel, dcg_at_k, ideal_ranking
from fairrank.divergence import DivergenceKind, divergence_matrix
from fairrank.errors import FairRankError, ValidationError
from fairrank.rerank import RerankConfig, rerank_online
from fairrank.synth import SynthSpec, gen_synth
from fairrank.verify import random_subproblem
from oracles import (
    bottleneck_search_oracle,
    hungarian_min_cost,
    lexicographic_refine_oracle,
    max_dcg_matching,
)

LOG3 = 1.0 / math.log2(3)


def ideal_dcg(rel, depth=None):
    disc = position_discounts(len(rel), depth)
    return float(np.sort(np.asarray(rel))[::-1] @ np.sort(disc)[::-1])


def tailed_instance(rng):
    """A K<=12 instance whose columns beyond ``k_att`` repeat one value per
    row (zero attention), with discounts cut at ``depth`` <= K, for a
    third of the instances values and relevance on a coarse grid, and
    for a quarter some rows of zero relevance (columns of equal values
    then have equal gains whatever their discounts)."""
    k = int(rng.integers(1, 13))
    coarse = rng.random() < 0.35

    def draw(*shape):
        if coarse:
            return rng.integers(0, 4, shape) / 4.0
        return rng.random(shape)

    d = draw(k, k)
    k_att = int(rng.integers(1, k + 1))
    d[:, k_att:] = draw(k)[:, None]
    rel = draw(k) + (0.25 if coarse else 0.0)
    if rng.random() < 0.25:
        rel[rng.random(k) < 0.5] = 0.0
    depth = None if rng.random() < 0.2 else int(rng.integers(1, k + 1))
    ideal = ideal_dcg(rel, depth)
    frac = rng.uniform(0.9, 1.0) if rng.random() < 0.6 else rng.random()
    theta_rho = float(frac * ideal)
    if rng.random() < 0.03:
        theta_rho = ideal + 1.0  # infeasible: the base is returned as is
    return d, rel, theta_rho, depth


class TestHungarian:
    def test_symmetric_diagonal(self):
        res = hungarian_min_cost([[1.0, 2.0], [2.0, 1.0]])
        assert res.feasible and res.assignment == (0, 1)
        assert res.objective == pytest.approx(2.0)

    def test_enumerated_two_matchings(self):
        # 0+2=2 vs 1+0=1
        res = hungarian_min_cost([[0.0, 1.0], [0.0, 2.0]])
        assert res.assignment == (1, 0)
        assert res.objective == pytest.approx(1.0)

    def test_all_forbidden_is_infeasible(self):
        res = hungarian_min_cost([[math.inf, math.inf], [math.inf, math.inf]])
        assert not res.feasible

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            hungarian_min_cost([[math.nan, 1.0], [1.0, 1.0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            costs = rng.random((k, k))
            base = hungarian_min_cost(costs)
            rp, cp = rng.permutation(k), rng.permutation(k)
            permuted = hungarian_min_cost(costs[np.ix_(rp, cp)])
            assert permuted.objective == pytest.approx(base.objective, abs=1e-12)
            assert sorted(permuted.assignment) == list(range(k))

    def test_agrees_with_enumeration_under_forbidden_edges(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            costs = rng.random((k, k))
            costs[rng.random((k, k)) < 0.3] = math.inf
            ours = hungarian_min_cost(costs)
            oracle = brute_force("minsum", costs, np.zeros(k), -1.0)
            assert ours.feasible == oracle.feasible
            if ours.feasible:
                assert ours.objective == pytest.approx(oracle.objective, abs=1e-9)


class TestMaxDcg:
    def test_all_edges_allowed(self):
        res = max_dcg_matching(np.ones((2, 2), bool), [0.7, 0.3])
        assert res.assignment == (0, 1)
        assert res.objective == pytest.approx(0.7 + 0.3 * LOG3, abs=1e-12)
        assert res.objective == pytest.approx(0.88928, abs=1e-5)

    def test_forbidden_top_slot(self):
        allowed = np.array([[False, True], [True, True]])
        res = max_dcg_matching(allowed, [0.7, 0.3])
        assert res.assignment == (1, 0)
        assert res.objective == pytest.approx(0.3 + 0.7 * LOG3, abs=1e-12)
        assert res.objective == pytest.approx(0.74165, abs=1e-5)

    def test_single_candidate(self):
        res = max_dcg_matching(np.ones((1, 1), bool), [0.4])
        assert res.assignment == (0,)
        assert res.objective == pytest.approx(0.4)

    def test_infeasible_mask(self):
        res = max_dcg_matching(np.zeros((2, 2), bool), [0.5, 0.5])
        assert not res.feasible


class TestBottleneck:
    def test_enumerated_two_by_two(self):
        d = [[0.5, 0.1], [0.2, 0.6]]
        res = bottleneck_with_quality(d, [0.5, 0.5], 0.0)
        assert res.assignment == (1, 0)
        assert res.objective == pytest.approx(0.2)

    def test_quality_pins_the_ideal_ordering(self):
        d = np.array([[0.9, 0.0], [0.0, 0.9]])  # ideal ordering is expensive
        rel = [0.7, 0.3]
        res = bottleneck_with_quality(d, rel, ideal_dcg(rel))
        assert res.assignment == (0, 1)
        assert res.objective == pytest.approx(0.9)

    def test_constant_matrix_breaks_ties_by_dcg(self):
        res = bottleneck_with_quality(np.full((3, 3), 0.25), [0.2, 0.5, 0.3], 0.0)
        gains = matching_values(
            np.array([0.2, 0.5, 0.3])[:, None] * position_discounts(3)[None, :],
            res.assignment,
        )
        assert gains.sum() == pytest.approx(ideal_dcg([0.2, 0.5, 0.3]), abs=1e-12)

    def test_infeasible_above_ideal(self):
        rel = [0.6, 0.4]
        res = bottleneck_with_quality(np.ones((2, 2)), rel, ideal_dcg(rel) + 0.1)
        assert not res.feasible

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            bottleneck_with_quality([[math.inf, 1.0], [1.0, 1.0]], [0.5, 0.5], 0.0)

    def test_relaxing_theta_never_raises_the_bottleneck(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d, rel, _, depth = random_subproblem(rng)
            ideal = ideal_dcg(rel, depth)
            last = math.inf
            for frac in (1.0, 0.75, 0.5, 0.25, 0.0):
                res = bottleneck_with_quality(d, rel, frac * ideal, depth)
                assert res.feasible
                assert res.objective <= last + 1e-12
                last = res.objective


class TestBottleneckSearch:
    def test_identical_to_binary_search_oracle(self):
        """The bound-first search returns what the binary search over every
        distinct value returns, with a cap below, at or above the row/column
        bound and quality floors the bound often misses."""
        rng = np.random.default_rng(808)
        caps = {"below": 0, "at": 0, "above": 0}
        quality_misses = past_bound = 0
        for _ in range(2500):
            d, rel, theta_rho, depth = tailed_instance(rng)
            gains = rel[:, None] * position_discounts(len(rel), depth)[None, :]
            bound = max(d.min(axis=1).max(), d.min(axis=0).max())
            cap = (math.inf, bound, bound - 0.125, bound + 0.125, rng.choice(d.ravel()))[
                int(rng.integers(0, 5))
            ]
            ours = assign_mod._bottleneck_search(d, gains, theta_rho, cap)
            oracle = bottleneck_search_oracle(d, gains, theta_rho, cap)
            assert ours == oracle
            caps["below" if cap < bound else "at" if cap == bound else "above"] += 1
            at_bound = assign_mod._max_gain_matching(d <= bound, gains)
            if at_bound is not None and at_bound[1] < theta_rho - FEASIBILITY_TOL:
                quality_misses += cap >= bound
                past_bound += ours is not None
        assert min(caps.values()) > 100
        assert quality_misses > 100 and past_bound > 100


class TestLexicographicRefine:
    def test_prefers_smaller_second_largest(self):
        d = np.array([[0.5, 0.5], [0.1, 0.4]])
        rel = [0.7, 0.3]
        base = bottleneck_with_quality(d, rel, 0.0)
        refined = lexicographic_refine(d, rel, 0.0, base)
        assert refined.objective == pytest.approx(base.objective)
        values = sorted(matching_values(d, refined.assignment), reverse=True)
        assert values == pytest.approx([0.5, 0.1])

    def test_unique_optimum_unchanged(self):
        d = np.array([[0.1, 0.9], [0.9, 0.2]])
        rel = [0.5, 0.5]
        base = bottleneck_with_quality(d, rel, 0.0)
        refined = lexicographic_refine(d, rel, 0.0, base)
        assert refined.assignment == base.assignment

    def test_k1_identity(self):
        d = np.array([[0.3]])
        base = bottleneck_with_quality(d, [1.0], 0.0)
        refined = lexicographic_refine(d, [1.0], 0.0, base)
        assert refined.assignment == (0,)

    def test_infeasible_base_returned_as_is(self):
        d = np.ones((2, 2))
        rel = [0.6, 0.4]
        base = bottleneck_with_quality(d, rel, ideal_dcg(rel) + 1.0)
        assert lexicographic_refine(d, rel, ideal_dcg(rel) + 1.0, base) is base

    def test_never_worse_than_base_and_bottleneck_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(80):
            d, rel, theta_rho, depth = random_subproblem(rng)
            base = bottleneck_with_quality(d, rel, theta_rho, depth)
            refined = lexicographic_refine(d, rel, theta_rho, base, depth)
            base_vec = sorted(matching_values(d, base.assignment), reverse=True)
            ref_vec = sorted(matching_values(d, refined.assignment), reverse=True)
            assert ref_vec[0] == pytest.approx(base_vec[0], abs=1e-12)
            assert tuple(ref_vec) <= tuple(base_vec)
            disc = position_discounts(d.shape[0], depth)
            gain = float(matching_values(np.asarray(rel)[:, None] * disc[None, :],
                                         refined.assignment).sum())
            assert gain >= theta_rho - FEASIBILITY_TOL

    def test_identical_to_per_candidate_oracle(self):
        rng = np.random.default_rng(2024)
        fallbacks = 0
        for _ in range(2000):
            d, rel, theta_rho, depth = tailed_instance(rng)
            base = bottleneck_with_quality(d, rel, theta_rho, depth)
            ours = lexicographic_refine(d, rel, theta_rho, base, depth)
            oracle = lexicographic_refine_oracle(d, rel, theta_rho, base, depth)
            assert (ours.assignment, ours.feasible) == (oracle.assignment, oracle.feasible)
            assert ours.objective == oracle.objective or (
                math.isnan(ours.objective) and math.isnan(oracle.objective)
            )
            assert (ours is base) == (oracle is base)
            fallbacks += base.feasible and oracle is base
        assert fallbacks > 0

    @staticmethod
    def _k50_instance():
        """Step 5 of a K=50 L1 online run (synth continuous, n=200, seed 3)."""
        dataset, stream = gen_synth(SynthSpec(n=200, T=8, seed=3, variant="continuous"))
        config = RerankConfig(kind="L1", objective="minmax", theta=0.8, k_re=50,
                              k_att=10, k_eval=10)
        run = rerank_online(dataset, stream[:4], config)
        query = stream[4]
        ideal = ideal_ranking(query)
        candidates = ideal[: config.k_re]
        d = divergence_matrix(run.ledger, candidates, query,
                              AttentionModel(config.k_att), DivergenceKind.L1)
        rel = np.array([query.relevance[c] for c in candidates])
        theta_rho = config.theta * dcg_at_k(ideal, query.relevance, config.k_eval)
        return d, rel, theta_rho, config.k_eval

    def test_one_search_per_distinct_subproblem(self, monkeypatch):
        d, rel, theta_rho, k_eval = self._k50_instance()
        base = bottleneck_with_quality(d, rel, theta_rho, k_eval)

        searches = 0
        search = assign_mod._bottleneck_search

        def counted(*args, **kwargs):
            nonlocal searches
            searches += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(assign_mod, "_bottleneck_search", counted)
        refined = lexicographic_refine(d, rel, theta_rho, base, k_eval)
        assert searches <= len(rel) + 1
        oracle = lexicographic_refine_oracle(d, rel, theta_rho, base, k_eval)
        assert refined.assignment == oracle.assignment

    def test_assignment_solves_on_a_k50_instance(self, monkeypatch):
        # scipy assignment solves on this instance: the binary search over
        # every distinct value made 10 (bottleneck) and 281 (refinement);
        # probing the row/column bound first makes 1 and 94
        d, rel, theta_rho, k_eval = self._k50_instance()
        solves = 0
        lsa = assign_mod.linear_sum_assignment

        def counted(*args, **kwargs):
            nonlocal solves
            solves += 1
            return lsa(*args, **kwargs)

        monkeypatch.setattr(assign_mod, "linear_sum_assignment", counted)
        base = bottleneck_with_quality(d, rel, theta_rho, k_eval)
        assert solves <= 2
        solves = 0
        lexicographic_refine(d, rel, theta_rho, base, k_eval)
        assert solves <= 120


class TestConstrainedMinSum:
    def test_inactive_constraint_equals_hungarian(self):
        rng = np.random.default_rng(23)
        costs = rng.random((4, 4))
        plain = hungarian_min_cost(costs)
        res = constrained_min_sum(costs, rng.random(4), 0.0)
        assert res.objective == pytest.approx(plain.objective, abs=1e-12)

    def test_quality_forces_the_expensive_matching(self):
        costs = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = [1.0, 0.0]
        res = constrained_min_sum(costs, rel, 0.8)
        assert res.feasible and res.assignment == (0, 1)
        assert res.objective == pytest.approx(2.0)

    def test_infeasible_above_ideal(self):
        rel = [0.6, 0.4]
        res = constrained_min_sum(np.ones((2, 2)), rel, ideal_dcg(rel) + 0.1)
        assert not res.feasible

    def test_solution_respects_quality(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            d, rel, theta_rho, depth = random_subproblem(rng)
            res = constrained_min_sum(d, rel, theta_rho, depth)
            assert res.feasible
            disc = position_discounts(d.shape[0], depth)
            gain = float(
                matching_values(np.asarray(rel)[:, None] * disc[None, :], res.assignment).sum()
            )
            assert gain >= theta_rho - FEASIBILITY_TOL
            assert sorted(res.assignment) == list(range(d.shape[0]))



class TestMinSumMilp:
    """When the Lagrangian dual gap stays open, the binary assignment MILP
    finishes the search with a proven optimum."""

    def test_agrees_with_enumeration(self, monkeypatch):
        milp_calls = 0
        finish = assign_mod._min_sum_milp

        def counted(*args):
            nonlocal milp_calls
            milp_calls += 1
            return finish(*args)

        monkeypatch.setattr(assign_mod, "_min_sum_milp", counted)
        rng = np.random.default_rng(37)
        for _ in range(2000):
            k = int(rng.integers(3, 9))
            coarse = rng.random() < 0.5
            costs = rng.integers(0, 5, (k, k)) / 4.0 if coarse else rng.random((k, k))
            rel = rng.random(k)
            if rng.random() < 0.3:
                rel[rng.random(k) < 0.4] = 0.0
            depth = None if rng.random() < 0.3 else int(rng.integers(1, k + 1))
            theta = 1.0 if rng.random() < 0.1 else rng.uniform(0.7, 1.0)
            theta_rho = theta * ideal_dcg(rel, depth)
            oracle = brute_force("minsum", costs, rel, theta_rho, depth)
            res = constrained_min_sum(costs, rel, theta_rho, depth)
            assert res.feasible == oracle.feasible
            if oracle.feasible:
                assert abs(res.objective - oracle.objective) <= 1e-9
        assert milp_calls > 1000

    @staticmethod
    def _k50_theta09_instance():
        """Step 7 of a K=50 L1 min-sum run at theta=0.9 (synth continuous,
        n=200, T=16, seed 0, agnostic)."""
        dataset, stream = gen_synth(SynthSpec(n=200, T=16, seed=0, variant="continuous"))
        config = RerankConfig(kind="L1", objective="minsum", theta=0.9, k_re=50,
                              k_att=10, k_eval=10, polarity_mode="agnostic")
        run = rerank_online(dataset, stream[:6], config)
        query = stream[6]
        ideal = ideal_ranking(query)
        candidates = ideal[: config.k_re]
        d = divergence_matrix(run.ledger, candidates, query,
                              AttentionModel(config.k_att), DivergenceKind.L1, "agnostic")
        rel = np.array([query.relevance[c] for c in candidates])
        theta_rho = config.theta * dcg_at_k(ideal, query.relevance, config.k_eval)
        return d, rel, theta_rho, config.k_eval

    def test_k50_beats_the_budgeted_branch_and_bound(self):
        # a depth-first branch-and-bound stopped at 200k nodes returned
        # 2.6496116485214967 on this instance
        d, rel, theta_rho, k_eval = self._k50_theta09_instance()
        res = constrained_min_sum(d, rel, theta_rho, k_eval)
        assert res.feasible
        assert res.objective < 2.6496116485214967
        disc = position_discounts(len(rel), k_eval)
        gain = float(matching_values(rel[:, None] * disc[None, :], res.assignment).sum())
        assert gain >= theta_rho - FEASIBILITY_TOL

    @pytest.mark.parametrize(
        "status,match", [(1, "did not prove"), (0, "below the quality floor")]
    )
    def test_unproven_or_infeasible_finish_raises(self, monkeypatch, status, match):
        # the dual gap stays open here; the optimum (2, 0, 1) costs 1.5, and
        # the identity a stub returns misses the quality floor
        costs = np.array([[1.0, 0.5, 1.0], [0.25, 1.0, 0.75], [0.0, 0.25, 1.0]])
        rel = np.array([0.0, 0.7, 0.2])
        theta_rho = 0.96 * ideal_dcg(rel)
        res = constrained_min_sum(costs, rel, theta_rho)
        assert res.assignment == (2, 0, 1) and res.objective == 1.5

        def stub(*args, **kwargs):
            return OptimizeResult(status=status, x=np.eye(3).ravel(), message="stub")

        monkeypatch.setattr(assign_mod, "milp", stub)
        with pytest.raises(FairRankError, match=match):
            constrained_min_sum(costs, rel, theta_rho)


class TestBruteForce:
    def test_size_limit(self):
        with pytest.raises(ValidationError):
            brute_force("minmax", np.ones((9, 9)), np.ones(9), 0.0)

    def test_unknown_objective(self):
        with pytest.raises(ValidationError):
            brute_force("max", np.ones((2, 2)), np.ones(2), 0.0)

    def test_any_two_by_two_agrees_with_solvers(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = rng.random((2, 2))
            rel = rng.random(2)
            theta_rho = float(rng.random() * ideal_dcg(rel))
            assert brute_force("minmax", d, rel, theta_rho).objective == pytest.approx(
                bottleneck_with_quality(d, rel, theta_rho).objective, abs=1e-12
            )
            assert brute_force("minsum", d, rel, theta_rho).objective == pytest.approx(
                constrained_min_sum(d, rel, theta_rho).objective, abs=1e-12
            )

    def test_k5_bottleneck_agreement(self):
        rng = np.random.default_rng(37)
        d = rng.random((5, 5))
        rel = rng.random(5)
        theta_rho = 0.5 * ideal_dcg(rel)
        assert brute_force("minmax", d, rel, theta_rho).objective == pytest.approx(
            bottleneck_with_quality(d, rel, theta_rho).objective, abs=1e-9
        )

    def test_infeasible_verdict(self):
        rel = [0.5, 0.5]
        res = brute_force("minmax", np.ones((2, 2)), rel, ideal_dcg(rel) + 1.0)
        assert not res.feasible
