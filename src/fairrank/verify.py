"""Randomized verification suites behind ``fairrank verify``.

Each suite runs a batch of randomized checks against an independent oracle
or analytic bound and reports structured per-check diagnostics:

* ``groupbound`` — group unfairness never exceeds individual unfairness
  (exact inequality for L1; empirically checked for L2var and W1);
* ``bounds``   — Monte Carlo tail estimates never exceed the analytic
  concentration bounds beyond sampling error;
* ``solver``   — the bottleneck and constrained min-sum solvers match the
  K!-enumeration oracle on objective value and feasibility verdict;
* ``w1``       — the full-sequence W1 the metrics use and the closed-form
  insertion kernel behind prospective W1 matrices equal a
  min-cost-matching transport oracle on random sequences.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assign import (
    bottleneck_with_quality,
    brute_force,
    constrained_min_sum,
    lexicographic_refine,
    matching_values,
    position_discounts,
)
from .bounds import BernoulliStream, chernoff_bound, hoeffding_bound, monte_carlo_tail
from .core import AttentionModel, Ledger
from .divergence import DivergenceKind, _component_values, w1_insert_matrix
from .metrics import group_unfairness, individual_unfairness
from .synth import gen_random_instance

SUITES = ("groupbound", "bounds", "solver", "w1")


@dataclass
class VerifyReport:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        out = [f"[{self.name}] checks={self.checks} failures={len(self.failures)} {verdict}"]
        out.extend(f"  FAIL {msg}" for msg in self.failures)
        out.extend(f"  note {msg}" for msg in self.notes)
        return out


def random_ledger(rng: np.random.Generator):
    """Random dataset/stream processed under random assignments."""
    n = int(rng.integers(2, 21))
    G = int(rng.integers(1, min(5, n) + 1))
    T = int(rng.integers(1, 11))
    dataset, stream = gen_random_instance(
        n, G, T, "signed", seed=int(rng.integers(2**31))
    )
    attention = AttentionModel(int(rng.integers(1, n + 1)))
    ledger = Ledger(dataset, stream)
    for _ in range(T):
        ledger.update(rng.permutation(n), attention)
    return dataset, ledger


def run_group_bound(instances: int = 500, seed: int = 0) -> VerifyReport:
    report = VerifyReport("groupbound")
    rng = np.random.default_rng(seed)
    for case in range(instances):
        dataset, ledger = random_ledger(rng)
        for kind in DivergenceKind:
            for mode in ("aware", "agnostic"):
                report.checks += 1
                gu = group_unfairness(ledger, kind, mode, dataset)
                iu = individual_unfairness(ledger, kind, mode)
                if gu > iu + 1e-9:
                    report.failures.append(
                        f"instance {case} kind={kind.value} mode={mode}: "
                        f"group {gu!r} > individual {iu!r} "
                        f"(n={dataset.n}, G={len(dataset.groups)}, T={ledger.t})"
                    )
    return report


def run_bounds(trials: int = 100_000, seed: int = 0) -> VerifyReport:
    report = VerifyReport("bounds")
    case = 0
    for T in (5, 20, 50):
        for p in (0.1, 0.5):
            expected = T * p
            unit = BernoulliStream.unit([p] * T)
            ones = [1.0] * T
            for delta in (0.3, 0.5, 1.0, 2.0):
                case += 1
                report.checks += 1
                emp = monte_carlo_tail(
                    unit, ones, delta, "relative", trials, seed=seed + case
                )
                bound = chernoff_bound(expected, delta)
                se = math.sqrt(max(emp * (1 - emp), 0.0) / trials)
                if emp > bound + 3 * se:
                    report.failures.append(
                        f"relative T={T} p={p} delta={delta}: "
                        f"empirical {emp} > bound {bound} + 3se {3 * se}"
                    )
            polarities = [1.0 if t % 2 == 0 else -1.0 for t in range(T)]
            ranges = tuple((0.0, 1.0) if e > 0 else (-1.0, 0.0) for e in polarities)
            signed = BernoulliStream(tuple([p] * T), ranges)
            for scale in (0.5, 1.0, 1.5):
                case += 1
                report.checks += 1
                delta = scale * math.sqrt(T)
                emp = monte_carlo_tail(
                    signed, polarities, delta, "absolute", trials, seed=seed + case
                )
                bound = hoeffding_bound(ranges, delta)
                se = math.sqrt(max(emp * (1 - emp), 0.0) / trials)
                if emp > bound + 3 * se:
                    report.failures.append(
                        f"absolute T={T} p={p} delta={delta:.4f}: "
                        f"empirical {emp} > bound {bound} + 3se {3 * se}"
                    )
    return report


def random_subproblem(rng: np.random.Generator):
    """One random per-step instance: (d, relevance, theta_rho, dcg_depth)."""
    k = int(rng.integers(2, 8))
    d = rng.random((k, k))
    rel = rng.random(k)
    depth = None if rng.random() < 0.5 else int(rng.integers(1, k + 1))
    disc = position_discounts(k, depth)
    ideal = float(np.sort(rel)[::-1] @ np.sort(disc)[::-1])
    theta_rho = float(rng.random() * ideal)
    return d, rel, theta_rho, depth


def run_solver(instances: int = 200, seed: int = 0) -> VerifyReport:
    report = VerifyReport("solver")
    rng = np.random.default_rng(seed)
    lex_mismatches = 0
    for case in range(instances):
        d, rel, theta_rho, depth = random_subproblem(rng)
        if case % 17 == 0:
            theta_rho = float(theta_rho + np.sum(rel) + 1.0)  # force infeasibility

        oracle_mm = brute_force("minmax", d, rel, theta_rho, depth)
        ours_mm = bottleneck_with_quality(d, rel, theta_rho, depth)
        report.checks += 1
        if oracle_mm.feasible != ours_mm.feasible:
            report.failures.append(f"minmax case {case}: feasibility verdicts differ")
        elif oracle_mm.feasible and abs(oracle_mm.objective - ours_mm.objective) > 1e-9:
            report.failures.append(
                f"minmax case {case}: oracle {oracle_mm.objective!r} "
                f"!= solver {ours_mm.objective!r}"
            )

        oracle_ms = brute_force("minsum", d, rel, theta_rho, depth)
        ours_ms = constrained_min_sum(d, rel, theta_rho, depth)
        report.checks += 1
        if oracle_ms.feasible != ours_ms.feasible:
            report.failures.append(f"minsum case {case}: feasibility verdicts differ")
        elif oracle_ms.feasible and abs(oracle_ms.objective - ours_ms.objective) > 1e-9:
            report.failures.append(
                f"minsum case {case}: oracle {oracle_ms.objective!r} "
                f"!= solver {ours_ms.objective!r}"
            )

        if ours_mm.feasible:
            report.checks += 1
            refined = lexicographic_refine(d, rel, theta_rho, depth)
            base_vec = tuple(np.sort(matching_values(d, ours_mm.assignment))[::-1])
            ref_vec = tuple(np.sort(matching_values(d, refined.assignment))[::-1])
            if abs(ref_vec[0] - ours_mm.objective) > 1e-12:
                report.failures.append(f"lex case {case}: bottleneck not preserved")
            elif ref_vec > base_vec:
                report.failures.append(f"lex case {case}: refinement worsened the vector")
            else:
                oracle_lex = brute_force("lexmax", d, rel, theta_rho, depth)
                oracle_vec = tuple(
                    np.sort(matching_values(d, oracle_lex.assignment))[::-1]
                )
                if any(abs(a - b) > 1e-9 for a, b in zip(ref_vec, oracle_vec)):
                    lex_mismatches += 1
    if lex_mismatches:
        report.notes.append(
            f"greedy lexicographic refinement differed from the lexmax oracle on "
            f"{lex_mismatches}/{instances} instances (bottleneck preserved in all)"
        )
    return report


def w1_transport_oracle(a, r) -> float:
    """Min-cost perfect matching between two equal-weight empirical measures."""
    a = np.asarray(a, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    costs = np.abs(a[:, None] - r[None, :])
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / a.size)


def run_w1(instances: int = 200, seed: int = 0) -> VerifyReport:
    report = VerifyReport("w1")
    rng = np.random.default_rng(seed)
    for case in range(instances):
        T = int(rng.integers(1, 9))
        a = rng.normal(size=T)
        r = rng.normal(size=T)
        report.checks += 1
        # the metrics' full-sequence W1, on (T, 1, P=1) sequences
        ours = float(
            _component_values(
                DivergenceKind.W1, None, None, a[:, None, None], None, None, r[:, None, None]
            )[0, 0]
        )
        oracle = w1_transport_oracle(a, r)
        if abs(ours - oracle) > 1e-9:
            report.failures.append(
                f"case {case} T={T}: sort formula {ours!r} != transport {oracle!r}"
            )
    for case in range(instances):
        m, K, P = (int(x) for x in rng.integers((0, 1, 1), (9, 5, 3)))
        # a coarse grid in half the cases makes inserted values tie with the base
        grid = case % 2 == 1
        base, rel, values = (
            rng.integers(-2, 3, shape) / 2.0 if grid else rng.normal(size=shape)
            for shape in ((m, K, P), (m + 1, K, P), (K, P))
        )
        base, rel = np.sort(base, axis=0), np.sort(rel, axis=0)
        ours = w1_insert_matrix(base, rel, values)
        report.checks += 1
        for i, j in itertools.product(range(K), range(K)):
            oracle = sum(
                w1_transport_oracle(np.append(base[:, i, p], values[j, p]), rel[:, i, p])
                for p in range(P)
            )
            if abs(ours[i, j] - oracle) > 1e-9:
                report.failures.append(
                    f"insert case {case} m={m} cell ({i}, {j}): "
                    f"kernel {ours[i, j]!r} != transport {oracle!r}"
                )
                break
    return report


def run_suite(name: str, instances: int | None = None, seed: int = 0) -> VerifyReport:
    if name == "groupbound":
        return run_group_bound(instances or 500, seed)
    if name == "bounds":
        return run_bounds(instances or 100_000, seed)
    if name == "solver":
        return run_solver(instances or 200, seed)
    if name == "w1":
        return run_w1(instances or 200, seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
