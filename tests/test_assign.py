"""Assignment solvers against hand-enumerated cases and the K! oracle."""

import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import fairrank.assign as assign_mod
import fairrank.rerank as rerank_mod
from fairrank.assign import (
    FEASIBILITY_TOL,
    bottleneck_with_quality,
    brute_force,
    constrained_min_sum,
    lexicographic_refine,
    matching_values,
    position_discounts,
)
from fairrank.core import AttentionModel, Ledger
from fairrank.divergence import DivergenceKind, divergence_matrix
from fairrank.errors import FairRankError, ValidationError
from fairrank.rerank import RerankConfig, rerank_offline, rerank_online
from fairrank.synth import SynthSpec, gen_synth
from fairrank.verify import random_subproblem
from oracles import (
    bottleneck_search_oracle,
    hungarian_min_cost,
    lexicographic_refine_dense,
    lexicographic_refine_oracle,
    max_dcg_matching,
    max_gain_matching,
    dcg_oracle,
    ideal_ranking_oracle,
    relevance_dicts,
    rows_of,
)

LOG3 = 1.0 / math.log2(3)


def ideal_dcg(rel, depth=None):
    disc = position_discounts(len(rel), depth)
    return float(np.sort(np.asarray(rel))[::-1] @ np.sort(disc)[::-1])


def same_result(ours, reference) -> bool:
    """Equal by value: assignment, feasibility and objective (NaN equals
    NaN)."""
    return (ours.assignment, ours.feasible) == (reference.assignment, reference.feasible) and (
        ours.objective == reference.objective
        or math.isnan(ours.objective) and math.isnan(reference.objective)
    )


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


def k50_minsum_instance(heads):
    """The subproblem of a K=50 L1 min-sum run at theta=0.9 (synth
    continuous, n=200, T=32, seed 0, k_att = k_eval = 10, agnostic) at the
    step after ``heads``: the ledger records each head (the dataset
    positions of ranks 1-10; no attention reaches the ranks beyond)."""
    dataset, stream = gen_synth(SynthSpec(n=200, T=32, seed=0, variant="continuous"))
    ledger = Ledger(dataset, stream)
    attention = AttentionModel(10)
    for head in heads:
        ledger.update(np.concatenate([head, np.setdiff1d(np.arange(200), head)]), attention)
    step = len(heads)
    query = relevance_dicts(stream)[step]
    ideal = ideal_ranking_oracle(query)
    candidates = ideal[:50]
    rel = np.array([query[c] for c in candidates])
    d = divergence_matrix(ledger, rows_of(dataset, candidates), rel, stream.polarity[step],
                          attention, DivergenceKind.L1, "agnostic")
    return d, rel, 0.9 * dcg_oracle(ideal, query, 10), 10


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
            at_bound = max_gain_matching(d <= bound, gains)
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
        refined = lexicographic_refine(d, rel, 0.0)
        assert refined.objective == pytest.approx(base.objective)
        values = sorted(matching_values(d, refined.assignment), reverse=True)
        assert values == pytest.approx([0.5, 0.1])

    def test_unique_optimum_unchanged(self):
        d = np.array([[0.1, 0.9], [0.9, 0.2]])
        rel = [0.5, 0.5]
        base = bottleneck_with_quality(d, rel, 0.0)
        refined = lexicographic_refine(d, rel, 0.0)
        assert refined.assignment == base.assignment

    def test_k1_identity(self):
        d = np.array([[0.3]])
        refined = lexicographic_refine(d, [1.0], 0.0)
        assert refined.assignment == (0,)

    def test_infeasible_search_returns_infeasible(self):
        d = np.ones((2, 2))
        rel = [0.6, 0.4]
        refined = lexicographic_refine(d, rel, ideal_dcg(rel) + 1.0)
        assert same_result(refined, assign_mod.MatchResult.infeasible())

    def test_never_worse_than_base_and_bottleneck_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(80):
            d, rel, theta_rho, depth = random_subproblem(rng)
            base = bottleneck_with_quality(d, rel, theta_rho, depth)
            refined = lexicographic_refine(d, rel, theta_rho, depth)
            base_vec = sorted(matching_values(d, base.assignment), reverse=True)
            ref_vec = sorted(matching_values(d, refined.assignment), reverse=True)
            assert ref_vec[0] == pytest.approx(base_vec[0], abs=1e-12)
            assert tuple(ref_vec) <= tuple(base_vec)
            disc = position_discounts(d.shape[0], depth)
            gain = float(matching_values(np.asarray(rel)[:, None] * disc[None, :],
                                         refined.assignment).sum())
            assert gain >= theta_rho - FEASIBILITY_TOL

    @staticmethod
    def _count_closures(monkeypatch):
        """Record the first column of every sub-problem closed by one sort."""
        closed = []
        closes = assign_mod._closes_by_sort

        def counted(sub_d, *args):
            result = closes(sub_d, *args)
            if result:
                closed.append(sub_d[:, 0].copy())
            return result

        monkeypatch.setattr(assign_mod, "_closes_by_sort", counted)
        return closed

    def test_identical_to_per_candidate_oracle(self, monkeypatch):
        closed = self._count_closures(monkeypatch)
        rng = np.random.default_rng(2024)
        fallbacks = closures = tied = 0
        for _ in range(2000):
            d, rel, theta_rho, depth = tailed_instance(rng)
            base = bottleneck_with_quality(d, rel, theta_rho, depth)
            closed.clear()
            ours = lexicographic_refine(d, rel, theta_rho, depth)
            closures += len(closed)
            tied += any(np.unique(rows).size < rows.size for rows in closed)
            oracle = lexicographic_refine_oracle(d, rel, theta_rho, base, depth)
            assert same_result(ours, oracle)
            fallbacks += base.feasible and oracle is base
        assert fallbacks > 0
        # the closing sort runs (781 of the 2,000 instances), also on rows of
        # tied values from the coarse grids (59)
        assert closures > 500 and tied > 30

    @staticmethod
    def _k50_instance():
        """Step 5 of a K=50 L1 online run (synth continuous, n=200, seed 3)."""
        dataset, stream = gen_synth(SynthSpec(n=200, T=8, seed=3, variant="continuous"))
        config = RerankConfig(kind="L1", objective="minmax", theta=0.8, k_re=50,
                              k_att=10, k_eval=10)
        run = rerank_online(dataset, stream[:4], config)
        query = relevance_dicts(stream)[4]
        ideal = ideal_ranking_oracle(query)
        candidates = ideal[: config.k_re]
        rel = np.array([query[c] for c in candidates])
        d = divergence_matrix(run.ledger, rows_of(dataset, candidates), rel, stream.polarity[4],
                              AttentionModel(config.k_att), DivergenceKind.L1)
        theta_rho = config.theta * dcg_oracle(ideal, query, config.k_eval)
        return d, rel, theta_rho, config.k_eval

    def test_k50_tied_tail_matches_the_oracle(self, monkeypatch):
        # the tail values rounded to 3 decimals: the sub-problem closed by
        # one sort has 32 rows of 4 distinct values, so the stable sort's
        # row order decides the ties
        closed = self._count_closures(monkeypatch)
        d, rel, theta_rho, k_eval = self._k50_instance()
        d[:, k_eval:] = np.round(d[:, k_eval:], 3)
        base = bottleneck_with_quality(d, rel, theta_rho, k_eval)
        refined = lexicographic_refine(d, rel, theta_rho, k_eval)
        assert len(closed) == 1 and np.unique(closed[0]).size < closed[0].size
        oracle = lexicographic_refine_oracle(d, rel, theta_rho, base, k_eval)
        assert refined == oracle and refined.assignment != base.assignment

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
        refined = lexicographic_refine(d, rel, theta_rho, k_eval)
        # 8: the full problem's search and one per level down to the
        # zero-gain tail that the carried matching does not settle (50, one
        # per level, then 19 with the tail closed by one sort, 13 with the
        # max-gain matching carried, 8 once a near-lexicographic one is)
        assert searches <= 8
        oracle = lexicographic_refine_oracle(d, rel, theta_rho, base, k_eval)
        assert refined.assignment == oracle.assignment

    def test_assignment_solves_on_a_k50_instance(self, monkeypatch):
        # scipy assignment solves on this instance: the binary search over
        # every distinct value made 10 (bottleneck) and 281 (refinement);
        # probing the row/column bound first makes 1 and 94, closing the
        # zero-gain tail by one sort 1 and 63, settling forced levels from
        # the carried matching 1 and 49, and carrying a near-lexicographic
        # matching from the first level it does not settle 1 and 33
        d, rel, theta_rho, k_eval = self._k50_instance()
        solves = 0
        lsa = assign_mod.linear_sum_assignment

        def counted(*args, **kwargs):
            nonlocal solves
            solves += 1
            return lsa(*args, **kwargs)

        monkeypatch.setattr(assign_mod, "linear_sum_assignment", counted)
        bottleneck_with_quality(d, rel, theta_rho, k_eval)
        assert solves <= 2
        solves = 0
        lexicographic_refine(d, rel, theta_rho, k_eval)
        assert solves <= 33


class TestCarriedMatching:
    """Forced levels settle from the matching carried over from the last
    search; a search runs only where that matching cannot prove the level
    value."""

    @staticmethod
    def _count_solves(monkeypatch):
        costs = []
        lsa = assign_mod.linear_sum_assignment

        def counted(matrix):
            costs.append(matrix)
            return lsa(matrix)

        monkeypatch.setattr(assign_mod, "linear_sum_assignment", counted)
        return costs

    def test_gain_inside_the_margin_still_solves(self, monkeypatch):
        # level 0 is forced at 0.5 (cell (0, 0)); the carried matching leaves
        # cell (1, 1), whose gain is the reduced problem's whole gain
        d = np.array([[0.5, 0.1], [0.1, 0.2]])
        rel = np.array([1.0, 0.5])
        gains = rel[:, None] * position_discounts(2)[None, :]
        carried = gains[1, 1]
        # theta_rho a few ulps either side of the level-0 matching's gain
        theta_rho = float(gains[0, 0] + gains[1, 1] + FEASIBILITY_TOL)
        margins = {}
        for _ in range(100):
            theta_rho = float(np.nextafter(theta_rho, 0.0))
            floor = (theta_rho - (0.0 + gains[0, 0])) - FEASIBILITY_TOL
            margins[theta_rho] = carried - floor
        inside = [th for th, gap in margins.items()
                  if 0.0 <= gap <= assign_mod._SUM_ERROR * 2 * carried]
        clear = [th for th, gap in margins.items() if gap > 1e-14]
        assert inside and clear
        costs = self._count_solves(monkeypatch)
        refine = assign_mod._refine

        def counted_from_the_levels(*args):
            # the solves of the full problem's search come before the levels
            costs.clear()
            return refine(*args)

        monkeypatch.setattr(assign_mod, "_refine", counted_from_the_levels)
        for theta_rho, solves in ((inside[0], 1), (clear[0], 0)):
            base = bottleneck_with_quality(d, rel, theta_rho)
            assert base.feasible and base.objective == 0.5
            refined = lexicographic_refine(d, rel, theta_rho)
            assert len(costs) == solves
            assert same_result(refined, lexicographic_refine_dense(d, rel, theta_rho, base))

    def test_proven_threshold_bounds_the_probes(self, monkeypatch):
        """Where the carried matching's largest edge t lies above the
        reduced problem's bound, every probe is below t and the search
        returns the threshold of a search without the certificate."""
        costs = self._count_solves(monkeypatch)
        search = assign_mod._bottleneck_search
        proven_searches = settled_at_t = 0

        def checked(d, gains, theta_rho, cap=math.inf, proven=None):
            nonlocal proven_searches, settled_at_t
            first = len(costs)
            found = search(d, gains, theta_rho, cap, proven)
            if proven is not None:
                proven_searches += 1
                # the certificate is a matching of this problem with largest
                # edge t that passes the quality floor
                rows, cols = np.arange(len(d)), np.asarray(proven[1])
                assert sorted(cols.tolist()) == rows.tolist()
                assert d[rows, cols].max() == proven[0] <= cap
                assert gains[rows, cols].sum() >= theta_rho - FEASIBILITY_TOL
                probes = [d[np.isfinite(c)].max() for c in costs[first:]]
                assert all(z < proven[0] for z in probes)
                assert found[0] == bottleneck_search_oracle(d, gains, theta_rho, cap)[0]
                settled_at_t += found[0] == proven[0]
            return found

        monkeypatch.setattr(assign_mod, "_bottleneck_search", checked)
        rng = np.random.default_rng(4)
        for _ in range(600):
            d, rel, theta_rho, depth = tailed_instance(rng)
            base = bottleneck_with_quality(d, rel, theta_rho, depth)
            ours = lexicographic_refine(d, rel, theta_rho, depth)
            assert same_result(ours, lexicographic_refine_dense(d, rel, theta_rho, base, depth))
        assert proven_searches > 100 and settled_at_t > 10

    @staticmethod
    def _spy_lex_carry(monkeypatch):
        """Record every ``_lex_carry`` call's arguments and result."""
        calls = []
        lex_carry = assign_mod._lex_carry

        def spied(sub_d, sub_gains, t, floor):
            calls.append((sub_d, sub_gains, t, floor, lex_carry(sub_d, sub_gains, t, floor)))
            return calls[-1][-1]

        monkeypatch.setattr(assign_mod, "_lex_carry", spied)
        return calls

    def test_lex_carry_once_per_refinement(self, monkeypatch):
        """The near-lexicographic matching is solved at most once per
        refinement, only where the carried matching certifies the level's
        floor but its largest edge t lies above the reduced problem's bound,
        and is carried only when it certifies the floor too."""
        calls = self._spy_lex_carry(monkeypatch)
        rng = np.random.default_rng(4)
        refinements = swapped = settled = 0
        for _ in range(600):
            d, rel, theta_rho, depth = tailed_instance(rng)
            base = bottleneck_with_quality(d, rel, theta_rho, depth)
            calls.clear()
            ours = lexicographic_refine(d, rel, theta_rho, depth)
            assert same_result(ours, lexicographic_refine_dense(d, rel, theta_rho, base, depth))
            assert len(calls) <= 1
            refinements += len(calls)
            for sub_d, sub_gains, t, floor, cols in calls:
                rows = np.arange(len(sub_d))
                bound = max(sub_d.min(axis=1).max(), sub_d.min(axis=0).max())
                assert t > bound and t in sub_d
                # a matching over the edges <= t clears the floor
                best = max_gain_matching(sub_d <= t, sub_gains)
                assert best is not None and best[1] >= floor - FEASIBILITY_TOL
                if cols is not None:
                    assert sorted(cols.tolist()) == rows.tolist()
                    assert sub_d[rows, cols].max() <= t
                    assert sub_gains[rows, cols].sum() >= floor - FEASIBILITY_TOL
                    swapped += 1
                    settled += sub_d[rows, cols].max() <= bound
        # of the 600 refinements 175 solve it, 75 of those carry the result
        # (the rest miss a tight floor) and 14 settle their level at the bound
        assert refinements > 150 and swapped > 50 and settled > 10

    def test_lex_carry_that_misses_the_floor_is_not_carried(self, monkeypatch):
        """At a tight floor the least-squares matching can miss it: the
        level is then searched below the carried matching's t and the
        refinement equals the dense level loop. Carrying the miss would
        settle the level at an infeasible bound and fall back to the base."""
        d = np.array([
            [0.1, 0.8, 0.9, 0.8],
            [0.4, 0.1, 0.5, 0.5],
            [0.5, 0.7, 0.1, 0.4],
            [0.6, 0.8, 0.4, 0.1],
        ])
        rel = np.array([0.2, 0.2, 0.5, 0.5])
        gains = rel[:, None] * position_discounts(4)[None, :]
        # the floor is the gain of the lexicographic optimum
        theta_rho = float(matching_values(gains, (3, 2, 1, 0)).sum())
        calls = self._spy_lex_carry(monkeypatch)
        base = bottleneck_with_quality(d, rel, theta_rho)
        refined = lexicographic_refine(d, rel, theta_rho)
        # level 2 of 4: rows 2, 3 and columns 0, 1 remain; the carried
        # matching (0.6, 0.5) clears the floor, the least-squares one
        # (0.4, 0.4) meets the bound 0.4 but misses the floor
        ((sub_d, _, t, _, cols),) = calls
        assert sub_d.tolist() == [[0.4, 0.5], [0.6, 0.4]] and t == 0.6 and cols is None
        assert base.assignment == (3, 2, 0, 1) and refined.assignment == (3, 2, 1, 0)
        assert same_result(refined, lexicographic_refine_dense(d, rel, theta_rho, base))

    def test_offline_k50_inputs_match_the_dense_loop(self, monkeypatch):
        """Every minmax-lex step of a seeded K=50 offline run (synth
        continuous, n=200, T=8) equals the dense level loop."""
        inputs = []
        refine = rerank_mod.lexicographic_refine

        def captured(d, relevance, theta_rho, dcg_depth=None):
            inputs.append((d.copy(), relevance.copy(), theta_rho, dcg_depth))
            return refine(d, relevance, theta_rho, dcg_depth)

        monkeypatch.setattr(rerank_mod, "lexicographic_refine", captured)
        dataset, stream = gen_synth(SynthSpec(n=200, T=8, seed=5, variant="continuous"))
        config = RerankConfig(kind="L1", objective="minmax-lex", theta=0.8, k_re=50,
                              k_att=10, k_eval=10)
        rerank_offline(dataset, stream, config, max_sweeps=2)
        assert len(inputs) >= 16 and all(len(rel) == 50 for _, rel, _, _ in inputs)
        for d, rel, theta_rho, depth in inputs:
            base = bottleneck_with_quality(d, rel, theta_rho, depth)
            reference = lexicographic_refine_dense(d, rel, theta_rho, base, depth)
            assert same_result(lexicographic_refine(d, rel, theta_rho, depth), reference)


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
    """When neither quick exit settles an instance, the class MILP proves
    the optimum."""

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

    # the heads the run emitted at steps 1-6 under the Lagrangian-bisection
    # solver, after which the bound below was measured; steps 3-6 have tied
    # optima, so another optimal solver may emit other heads there
    PREFIX_HEADS = (
        (79, 91, 41, 66, 89, 48, 47, 39, 74, 62),
        (25, 59, 42, 70, 11, 19, 95, 71, 44, 33),
        (133, 52, 114, 3, 32, 100, 24, 57, 43, 142),
        (49, 75, 94, 67, 65, 164, 97, 23, 7, 5),
        (50, 20, 18, 179, 195, 46, 101, 104, 35, 116),
        (51, 64, 87, 28, 55, 169, 109, 177, 144, 151),
    )

    @classmethod
    def _k50_theta09_instance(cls):
        return k50_minsum_instance(cls.PREFIX_HEADS)

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
        # neither quick exit settles this instance; the optimum (2, 0, 1)
        # costs 1.5, and the identity a stub returns misses the quality floor
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

    def test_finish_that_does_not_fill_its_classes_raises(self, monkeypatch):
        # every row in the first column's class, which holds one column
        x = np.zeros((3, 3))
        x[:, 0] = 1.0
        costs = np.array([[1.0, 0.5, 1.0], [0.25, 1.0, 0.75], [0.0, 0.25, 1.0]])
        rel = np.array([0.0, 0.7, 0.2])

        def stub(*args, **kwargs):
            return OptimizeResult(status=0, x=x.ravel(), message="stub")

        monkeypatch.setattr(assign_mod, "milp", stub)
        with pytest.raises(FairRankError, match="does not fill every class"):
            constrained_min_sum(costs, rel, 0.96 * ideal_dcg(rel))


class TestMinSumNearTight:
    """Step 28 of the theta=0.9 agnostic min-sum run: the floor binds with
    theta_rho near 0.03, where HiGHS's absolute feasibility tolerance (1e-7)
    is wide. With the DCG row unscaled, the MILP answered a matching 1.9e-7
    below the floor here; divided by theta_rho, the row must clear it."""

    HEADS = (
        (79, 91, 41, 66, 89, 48, 47, 39, 74, 62),
        (25, 59, 42, 70, 11, 19, 95, 71, 44, 33),
        (32, 133, 52, 142, 24, 43, 3, 57, 114, 100),
        (75, 67, 49, 65, 94, 97, 164, 5, 7, 23),
        (20, 18, 50, 179, 195, 46, 104, 101, 35, 116),
        (51, 64, 87, 28, 55, 169, 109, 177, 144, 151),
        (90, 98, 2, 31, 107, 187, 88, 172, 183, 161),
        (34, 96, 86, 127, 40, 190, 130, 167, 134, 54),
        (15, 12, 10, 6, 106, 162, 166, 148, 112, 143),
        (36, 37, 188, 17, 123, 21, 192, 22, 124, 129),
        (27, 93, 72, 138, 165, 105, 120, 152, 170, 155),
        (8, 13, 80, 185, 61, 99, 163, 117, 141, 180),
        (77, 160, 132, 171, 196, 174, 178, 118, 29, 0),
        (22, 14, 153, 156, 184, 198, 121, 189, 115, 9),
        (45, 154, 168, 85, 159, 182, 58, 76, 108, 78),
        (38, 53, 191, 126, 119, 135, 30, 111, 82, 95),
        (9, 175, 1, 149, 194, 4, 181, 16, 71, 102),
        (83, 128, 193, 176, 186, 63, 73, 44, 23, 54),
        (43, 197, 139, 69, 155, 48, 144, 151, 101, 161),
        (1, 62, 157, 92, 60, 29, 11, 19, 172, 100),
        (37, 173, 158, 84, 137, 140, 110, 103, 27, 152),
        (68, 26, 145, 192, 0, 33, 114, 180, 116, 141),
        (21, 131, 143, 178, 82, 170, 167, 74, 148, 5),
        (70, 125, 47, 88, 115, 57, 169, 16, 108, 164),
        (17, 136, 147, 150, 6, 162, 182, 177, 112, 134),
        (56, 122, 65, 89, 124, 7, 103, 189, 99, 110),
        (30, 81, 39, 135, 97, 76, 46, 104, 78, 166),
    )

    def test_answer_clears_the_floor(self):
        d, rel, theta_rho, k_eval = k50_minsum_instance(self.HEADS)
        gains = rel[:, None] * position_discounts(len(rel), k_eval)[None, :]
        cheapest = hungarian_min_cost(d).assignment
        assert matching_values(gains, cheapest).sum() < theta_rho  # the floor binds
        res = constrained_min_sum(d, rel, theta_rho, k_eval)
        assert res.feasible
        assert float(matching_values(gains, res.assignment).sum()) >= theta_rho - FEASIBILITY_TOL


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


class TestInputChecks:
    """Every solver rejects a non-square or non-finite matrix and a relevance
    vector that is not K finite, non-negative entries, before solving."""

    D = np.array([[0.4, 0.1, 0.3, 0.2], [0.2, 0.5, 0.1, 0.3],
                  [0.3, 0.2, 0.6, 0.1], [0.1, 0.4, 0.2, 0.7]])
    REL = np.array([0.4, 0.3, 0.2, 0.1])

    @staticmethod
    def _solvers():
        assert bottleneck_with_quality(TestInputChecks.D, TestInputChecks.REL, 0.5).feasible
        return {
            "bottleneck": lambda d, rel: bottleneck_with_quality(d, rel, 0.5),
            "refine": lambda d, rel: lexicographic_refine(d, rel, 0.5),
            "min-sum": lambda d, rel: constrained_min_sum(d, rel, 0.5),
            "brute-force": lambda d, rel: brute_force("minmax", d, rel, 0.5),
        }

    def _bad_inputs(self):
        nan_cell = self.D.copy()
        nan_cell[1, 2] = math.nan
        nan_rel = self.REL.copy()
        nan_rel[2] = math.nan
        inf_rel = self.REL.copy()
        inf_rel[0] = math.inf
        return {
            "nan cell": (nan_cell, self.REL),
            "not square": (self.D[:3], self.REL),
            "not a matrix": (self.D.ravel(), self.REL),
            "empty": (np.zeros((0, 0)), np.zeros(0)),
            "short relevance": (self.D, self.REL[:3]),
            "long relevance": (self.D, np.append(self.REL, 0.0)),
            "relevance matrix": (self.D, self.REL[:, None]),
            "nan relevance": (self.D, nan_rel),
            "inf relevance": (self.D, inf_rel),
            "negative relevance": (self.D, self.REL - 0.2),
        }

    @pytest.mark.parametrize("solver", ["bottleneck", "refine", "min-sum", "brute-force"])
    def test_bad_input_raises_validation_error(self, solver):
        solve = self._solvers()[solver]
        for name, (d, rel) in self._bad_inputs().items():
            with pytest.raises(ValidationError):
                solve(d, rel)
                pytest.fail(f"{solver} accepted {name}")

    def test_infinite_cells(self):
        # +inf marks a forbidden edge only for the enumeration oracle
        d = self.D.copy()
        d[0, 0] = math.inf
        for solver, solve in self._solvers().items():
            if solver == "brute-force":
                assert solve(d, self.REL).assignment[0] != 0
            else:
                with pytest.raises(ValidationError):
                    solve(d, self.REL)

    def test_valid_lists_accepted(self):
        for solve in self._solvers().values():
            assert solve(self.D.tolist(), self.REL.tolist()).feasible
