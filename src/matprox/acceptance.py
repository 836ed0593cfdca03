"""The acceptance suite: nine certificate-style criteria, each deterministic.

Every criterion pins its tolerances and sample counts here and reports one
pass/fail line.  Where the CLI computes a quantity, the criterion checks it
through the same library routine: the Leibniz suites, the reach
certificate, the Dirac table and the fixed-point sweep.  The suite doubles
as the CLI ``selftest`` subcommand and as the final test module; both call
:func:`run_all`.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, TextIO

import numpy as np

from . import oracles
from .bridge import (
    beta_delta_over_n,
    certify_reach,
    convergence_experiment,
    estimate_reach_lower,
)
from .fixed_point import (
    AveragingExpectation,
    FuzzyTorus,
    LengthFunction,
    TorusSubgroup,
    action_lip_seminorms,
    enumerate_subgroups,
    fixed_point_sweep,
    mean_distance,
)
from .lseminorm import ApproximationPair, l_seminorms, leibniz_suites
from .matrix_algebra import (
    identity,
    jordan_lie,
    operator_norms,
    pinch,
    random_hermitian_stack,
    trace_state,
)
from .metric_core import (
    TAU,
    Circle,
    FiniteMetricSpace,
    Interval,
    dirac_distances,
    epsilon_net,
    lipschitz_seminorms,
    min_separation,
    mk_distance,
    random_cloud_space,
)

EXACT = 1e-12
LOOSE = 1e-9


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    elapsed_s: float
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} criterion {self.criterion}: {self.name} ({self.elapsed_s:.2f}s)"
        if self.failures:
            msg += " :: " + "; ".join(self.failures[:4])
            if len(self.failures) > 4:
                msg += f"; and {len(self.failures) - 4} more"
        return msg


CRITERIA: list[Callable[[], CheckResult]] = []


def _criterion(number: int, name: str, budget_s: float | None = None):
    """Register a criterion whose body yields one message per failure.

    The registered runner times the body, adds a failure when it reaches its
    runtime budget, and returns the :class:`CheckResult`."""

    def register(body: Callable[[], Iterator[str]]) -> Callable[[], CheckResult]:
        def run() -> CheckResult:
            start = time.perf_counter()
            failures = list(body())
            elapsed = time.perf_counter() - start
            if budget_s is not None and elapsed >= budget_s:
                failures.append(f"runtime {elapsed:.2f}s exceeds {budget_s:g}s")
            return CheckResult(number, name, not failures, elapsed, failures)

        CRITERIA.append(run)
        return run

    return register


def _standard_configs(seed: int = 1001, count: int = 20) -> list[ApproximationPair]:
    """The shared random-configuration pool: Euclidean clouds, beta = delta."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(2, 17))
        space = random_cloud_space(rng, n)
        pairs.append(ApproximationPair(space, min_separation(space)))
    return pairs


# ---------------------------------------------------------------------------
# Criterion 1: the seminorm restricted to the diagonal is the Lipschitz one.
# ---------------------------------------------------------------------------


@_criterion(1, "diagonal recovery of the Lipschitz seminorm", budget_s=10.0)
def criterion_1() -> Iterator[str]:
    rng = np.random.default_rng(11)
    for idx, pair in enumerate(_standard_configs()):
        fs = rng.uniform(-1.0, 1.0, size=(100, pair.dim))
        lips = lipschitz_seminorms(pair.space, fs)
        diag_stack = np.zeros((100, pair.dim, pair.dim), dtype=complex)
        rows = np.arange(pair.dim)
        diag_stack[:, rows, rows] = fs
        got = l_seminorms(pair, diag_stack)
        worst = float(np.max(np.abs(got - lips)))
        if worst > EXACT:
            yield f"config {idx}: |L(diag f) - Lip f| = {worst:.3e}"


# ---------------------------------------------------------------------------
# Criterion 2: Leibniz-type inequality for Jordan and Lie products.
# ---------------------------------------------------------------------------


@_criterion(2, "quasi-Leibniz residuals (constants 2 and 4)", budget_s=60.0)
def criterion_2() -> Iterator[str]:
    rng = np.random.default_rng(22)
    total_pairs = 10_000
    sizes = list(range(2, 9))
    per_size = -(-total_pairs // len(sizes))
    for ratio, expected_d in ((1.0, 2.0), (3.0, 4.0)):
        worst = np.inf
        for _, pair, jres, lres in leibniz_suites(rng, sizes, [ratio], per_size):
            if abs(pair.leibniz_constant - expected_d) > EXACT:
                yield f"ratio {ratio}: constant {pair.leibniz_constant} != {expected_d}"
            worst = min(worst, float(np.min(jres)), float(np.min(lres)))
        if worst < -LOOSE:
            yield f"ratio {ratio}: residual {worst:.3e} below -1e-9"


# ---------------------------------------------------------------------------
# Criterion 3: reach certificates are sound on every unit-ball sample.
# ---------------------------------------------------------------------------


@_criterion(3, "reach certificate soundness")
def criterion_3() -> Iterator[str]:
    configs = _standard_configs()
    for idx, pair in enumerate(configs):
        for samples, seed in ((500, 300 + idx), (64, 900 + idx)):
            worst = oracles.sampled_reach_witness(pair, samples, seed)
            if worst > pair.beta + EXACT:
                yield f"config {idx}: witness bridge norm {worst:.12g} > beta={pair.beta:.12g}"
        cert = certify_reach(pair)
        i, j = cert.witness
        w = np.zeros((pair.dim, pair.dim), dtype=complex)
        w[i, j] = w[j, i] = pair.beta
        if cert.reach != pair.beta or i == j or l_seminorms(pair, w[None])[0] != 1.0:
            yield f"config {idx}: certificate {cert} does not match beta={pair.beta!r}"
    for idx, pair in enumerate(p for p in configs if p.dim <= 6):
        lower = estimate_reach_lower(pair, iters=6, seed=77 + idx)
        if lower > pair.beta + LOOSE:
            yield f"small config {idx}: sampled lower {lower:.12g} > beta + 1e-9"


# ---------------------------------------------------------------------------
# Criterion 4: the convergence pipeline on the circle.
# ---------------------------------------------------------------------------


@_criterion(4, "circle convergence pipeline", budget_s=5.0)
def criterion_4() -> Iterator[str]:
    sizes = [4, 8, 16, 32, 64]
    report = convergence_experiment(Circle(TAU), sizes, beta_delta_over_n)
    # The equispaced n-net of the circle of length 2*pi lies at Hausdorff
    # distance pi/n from it and has minimum separation delta = 2*pi/n, so
    # beta = delta/n = 2*pi/n^2 and the bound Haus + beta is pi*(n+2)/n^2.
    # Doubling n multiplies it by (n+1)/(2*(n+2)) < 1/2: the rate check below
    # is how the bound is seen to go to zero (pi/64 + 2*pi/64^2 = 0.050621,
    # so no fixed threshold near 0.05 can hold together with the closed form).
    for row in report.rows:
        expected = np.pi / row.n + 2.0 * np.pi / row.n**2
        if abs(row.certified_bound - expected) > EXACT:
            yield f"n={row.n}: bound {row.certified_bound!r} != pi/n + 2pi/n^2"
    if not report.strictly_decreasing:
        yield "bounds are not strictly decreasing"
    for r1, r2 in zip(report.rows, report.rows[1:]):
        if not r2.certified_bound <= r1.certified_bound / 2.0:
            yield (
                f"n={r1.n}->{r2.n}: bound {r2.certified_bound:.6f} is not <= "
                f"half of {r1.certified_bound:.6f}"
            )


# ---------------------------------------------------------------------------
# Criterion 5: conditional expectation axioms, pinching and averaging.
# ---------------------------------------------------------------------------


def _expectation_residuals(
    expect: Callable[[np.ndarray], np.ndarray],
    seminorms: Callable[[np.ndarray], np.ndarray],
    stack: np.ndarray,
) -> dict[str, float]:
    """The largest residual of each conditional expectation axiom of
    ``expect`` over a (count, n, n) stack, with L-contraction measured in
    ``seminorms``: an expectation meets the axioms when none exceeds
    rounding."""
    n = stack.shape[-1]
    image = expect(stack)
    return {
        "idempotence": float(np.max(np.abs(expect(image) - image))),
        "unitality": float(np.max(np.abs(expect(identity(n)) - identity(n)))),
        "trace preservation": float(
            np.max(np.abs(np.trace(image, axis1=1, axis2=2) - np.trace(stack, axis1=1, axis2=2))) / n
        ),
        "contractivity": float(np.max(operator_norms(image) - operator_norms(stack))),
        "L-contraction": float(np.max(seminorms(image) - seminorms(stack))),
    }


@_criterion(5, "conditional expectation axiom suite")
def criterion_5() -> Iterator[str]:
    rng = np.random.default_rng(55)
    residuals = {}
    for n in (4, 9, 16):
        space = random_cloud_space(rng, n)
        pair = ApproximationPair(space, min_separation(space))
        stack = random_hermitian_stack(rng, 1000, n)
        checks = _expectation_residuals(pinch, functools.partial(l_seminorms, pair), stack)
        # Pinching is also a bimodule map over the diagonal: E(f a g) = f E(a) g.
        f = rng.uniform(-1.0, 1.0, size=n)
        g = rng.uniform(-1.0, 1.0, size=n)
        checks["bimodule"] = float(np.max(np.abs(pinch(f[:, None] * stack * g) - f[:, None] * pinch(stack) * g)))
        residuals[f"pinching n={n}"] = checks
    instances = [
        (FuzzyTorus(6, 1), TorusSubgroup.cyclic_first_factor(6, 3)),
        (FuzzyTorus(8, 3), TorusSubgroup.from_generators(8, (1, 1))),
        (FuzzyTorus(12, 5), TorusSubgroup.full(12)),
    ]
    for torus, subgroup in instances:
        ell = LengthFunction.max_arc(torus.q)
        stack = random_hermitian_stack(rng, 1000, torus.q)
        residuals[f"averaging q={torus.q},|H|={subgroup.order}"] = _expectation_residuals(
            AveragingExpectation(torus, subgroup), functools.partial(action_lip_seminorms, torus, ell), stack
        )
    for tag, checks in residuals.items():
        for name, value in checks.items():
            if value > EXACT:
                yield f"{tag}: {name} residual {value:.3e}"


# ---------------------------------------------------------------------------
# Criterion 6: LP transport distances against the enumeration oracle.
# ---------------------------------------------------------------------------


def _mk_corpus() -> list[FiniteMetricSpace]:
    rng = np.random.default_rng(66)
    spaces = [
        FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]])),
        FiniteMetricSpace(
            ("a", "b", "c"),
            np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        ),
        FiniteMetricSpace.from_points(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])),
        epsilon_net(Circle(TAU), 3)[0],
        epsilon_net(Circle(TAU), 5)[0],
        epsilon_net(Circle(TAU), 6)[0],
        epsilon_net(Interval(1.0), 2)[0],
        epsilon_net(Interval(1.0), 5)[0],
        FiniteMetricSpace.from_points(rng.normal(size=(4, 2))),
        FiniteMetricSpace.from_points(rng.normal(size=(5, 3))),
        FiniteMetricSpace.from_points(rng.normal(size=(6, 2))),
    ]
    star = np.full((5, 5), 2.0)
    star[0, :] = star[:, 0] = 1.0
    np.fill_diagonal(star, 0.0)
    spaces.append(FiniteMetricSpace(tuple("cabde"), star))
    return spaces


@_criterion(6, "transport LP against vertex enumeration")
def criterion_6() -> Iterator[str]:
    rng = np.random.default_rng(660)
    for space in _mk_corpus():
        n = space.n_points
        vertices = oracles.enumerate_lipschitz_vertices(space)
        eye = np.eye(n)
        dirac = dirac_distances(space)
        solved = [(dirac[i, j], eye[i], eye[j]) for i, j in zip(*np.triu_indices(n, k=1))]
        measure_pairs = [(np.full(n, 1.0 / n), eye[0])]
        for _ in range(2):
            w1 = rng.uniform(0.1, 1.0, size=n)
            w2 = rng.uniform(0.1, 1.0, size=n)
            measure_pairs.append((w1 / w1.sum(), w2 / w2.sum()))
        solved += [(mk_distance(space, p, q), p, q) for p, q in measure_pairs]
        for lp, p, q in solved:
            combinatorial = oracles.mk_by_enumeration(space, p, q, vertices)
            if abs(lp - combinatorial) > LOOSE:
                yield f"{n}-point space: LP {lp:.12g} vs enumeration {combinatorial:.12g}"


# ---------------------------------------------------------------------------
# Criterion 7: fuzzy torus structure across orders.
# ---------------------------------------------------------------------------

_TWISTS = {2: 1, 3: 2, 4: 3, 5: 2, 6: 5, 7: 3, 8: 3, 9: 2, 10: 3, 11: 7, 12: 5}


def _leibniz_min_residual(
    torus: FuzzyTorus, ell: LengthFunction, rng: np.random.Generator, pairs: int
) -> float:
    worst = np.inf
    chunk = 16
    for lo in range(0, pairs, chunk):
        count = min(chunk, pairs - lo)
        a = random_hermitian_stack(rng, count, torus.q)
        b = random_hermitian_stack(rng, count, torus.q)
        jordan, lie = jordan_lie(a, b)
        stacked = np.concatenate([a, b, jordan, lie])
        values = action_lip_seminorms(torus, ell, stacked)
        la, lb, lj, ll = np.split(values, 4)
        bound = la + lb  # operator norms are one after normalization
        worst = min(worst, float(np.min(bound - lj)), float(np.min(bound - ll)))
    return worst


@_criterion(7, "fuzzy torus structure (orders 2..12)")
def criterion_7() -> Iterator[str]:
    rng = np.random.default_rng(77)
    for q in range(2, 13):
        torus = FuzzyTorus(q, _TWISTS[q])
        ell = LengthFunction.max_arc(q)
        weyl_gap = float(
            np.max(
                np.abs(
                    torus.shift @ torus.clock
                    - torus.omega * torus.clock @ torus.shift
                )
            )
        )
        if weyl_gap > EXACT:
            yield f"q={q}: commutation defect {weyl_gap:.3e}"
        if oracles.action_kernel_dimension(torus) != 1:
            yield f"q={q}: seminorm kernel is not one-dimensional"
        nontrivial = np.divmod(np.arange(1, q * q), q)
        for sample_idx in range(4):
            a = random_hermitian_stack(rng, 1, q)
            base = action_lip_seminorms(torus, ell, a)[0]
            moved = torus.dual_action(nontrivial, np.repeat(a, q * q - 1, axis=0))
            gap = float(np.max(np.abs(action_lip_seminorms(torus, ell, moved) - base)))
            if gap > EXACT:
                yield f"q={q} sample {sample_idx}: action invariance off by {gap:.3e}"
        residual = _leibniz_min_residual(torus, ell, rng, 1000)
        if residual < -LOOSE:
            yield f"q={q}: Leibniz residual {residual:.3e} below -1e-9"
        full = AveragingExpectation(torus, TorusSubgroup.full(q))
        for _ in range(5):
            a = random_hermitian_stack(rng, 1, q)[0]
            gap = float(
                np.max(np.abs(full(a) - trace_state(a) * identity(q)))
            )
            if gap > EXACT:
                yield f"q={q}: full average is not the trace ({gap:.3e})"


# ---------------------------------------------------------------------------
# Criterion 8: fixed-point continuity modulus along the divisor chain.
# ---------------------------------------------------------------------------


@_criterion(8, "fixed-point continuity modulus (q=12 chain)", budget_s=60.0)
def criterion_8() -> Iterator[str]:
    q = 12
    rows = fixed_point_sweep([q], count=64, seed=88)
    chain = [row["m"] for row in rows]
    if chain != [1, 2, 3, 4, 6, 12]:
        yield f"the sweep runs the chain {chain}, not the divisors of 12"
    if rows[-1]["gap_sampled"] != 0.0:
        yield f"gap at the limit subgroup is {rows[-1]['gap_sampled']!r}, not exactly 0"
    for prev, row in zip(rows, rows[1:]):
        if row["haus_ell"] > prev["haus_ell"] + EXACT:
            yield f"Hausdorff values not weakly decreasing at m={row['m']}"
        if row["gap_sampled"] > prev["gap_sampled"] + EXACT:
            yield (
                f"gaps not weakly decreasing at m={row['m']}: "
                f"{prev['gap_sampled']:.6f} -> {row['gap_sampled']:.6f}"
            )
    torus = FuzzyTorus(q, 1)
    for sub in enumerate_subgroups(q):
        dim = AveragingExpectation(torus, sub).fixed_dimension
        if dim * sub.order != q * q:
            yield f"subgroup of order {sub.order}: fixed dimension {dim} fails duality"


# ---------------------------------------------------------------------------
# Criterion 9: commutative cross-check on the six-point circle.
# ---------------------------------------------------------------------------


@_criterion(9, "commutative orbit-averaging cross-check")
def criterion_9() -> Iterator[str]:
    # Net point i is the group element (i, 0), so the rotations of order m
    # are the subgroup Z_m of the first factor and the orbits its cosets.
    space = epsilon_net(Circle(TAU), 6)[0]
    for order in (1, 2, 3, 6):
        sub = TorusSubgroup.cyclic_first_factor(6, order)
        labels = sub.cosets()[:, 0]
        orbits = [np.flatnonzero(labels == c) for c in np.unique(labels)]
        reach = mean_distance(LengthFunction.max_arc(6), TorusSubgroup.trivial(6), sub)
        sampled, violation = oracles.sampled_orbit_reach(space, orbits, count=1000, seed=99)
        expected_dim = 6 // order
        if len(orbits) != expected_dim:
            yield f"order {order}: fixed dimension {len(orbits)} != {expected_dim}"
        if sub.a != expected_dim:
            yield f"order {order}: quotient size {sub.a} != {expected_dim}"
        if violation > EXACT:
            yield f"order {order}: Lipschitz contraction violated by {violation:.3e}"
        if sampled > reach + EXACT:
            yield f"order {order}: sampled reach {sampled!r} exceeds the exact reach {reach!r}"
        # The samples hold every d(i, .), and d(0, .) attains the exact reach.
        if sampled < reach - EXACT:
            yield f"order {order}: sampled reach {sampled!r} falls short of the exact reach {reach!r}"


def run_all(stream: TextIO = sys.stdout) -> list[CheckResult]:
    results = []
    for runner in CRITERIA:
        result = runner()
        results.append(result)
        print(result.line(), file=stream)
        stream.flush()
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
