"""The acceptance suite: nine certificate-style criteria, each deterministic.

Every criterion pins its tolerances and sample counts here and reports one
pass/fail line.  The suite doubles as the CLI ``selftest`` subcommand and
as the final test module; both call :func:`run_all`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from . import oracles
from .bridge import (
    UnitPivotBridge,
    beta_delta_over_n,
    certify_reach_upper,
    convergence_experiment,
    estimate_reach_lower,
)
from .fixed_point import (
    AveragingExpectation,
    FuzzyTorus,
    LengthFunction,
    TorusSubgroup,
    action_kernel_dimension,
    action_lip_seminorms,
    commutative_fixed_point_check,
    cyclic_rotation_group,
    enumerate_subgroups,
    expectation_gap,
    subgroup_hausdorff,
)
from .lseminorm import (
    ApproximationPair,
    l_seminorms,
    sample_unit_ball,
    unit_leibniz_residuals,
)
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


def criterion_1() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
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
            failures.append(f"config {idx}: |L(diag f) - Lip f| = {worst:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    return CheckResult(1, "diagonal recovery of the Lipschitz seminorm", not failures, elapsed, failures)


# ---------------------------------------------------------------------------
# Criterion 2: Leibniz-type inequality for Jordan and Lie products.
# ---------------------------------------------------------------------------


def criterion_2() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(22)
    total_pairs = 10_000
    sizes = list(range(2, 9))
    per_size = -(-total_pairs // len(sizes))
    for ratio, expected_d in ((1.0, 2.0), (3.0, 4.0)):
        worst = np.inf
        for n in sizes:
            space = random_cloud_space(rng, n)
            delta = min_separation(space)
            pair = ApproximationPair(
                space, ratio * delta, corollary_mode=ratio <= 1.0
            )
            if abs(pair.leibniz_constant - expected_d) > EXACT:
                failures.append(
                    f"ratio {ratio}: constant {pair.leibniz_constant} != {expected_d}"
                )
            a = random_hermitian_stack(rng, per_size, n)
            b = random_hermitian_stack(rng, per_size, n)
            jres, lres = unit_leibniz_residuals(pair, a, b)
            worst = min(worst, float(np.min(jres)), float(np.min(lres)))
        if worst < -LOOSE:
            failures.append(f"ratio {ratio}: residual {worst:.3e} below -1e-9")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s")
    return CheckResult(2, "quasi-Leibniz residuals (constants 2 and 4)", not failures, elapsed, failures)


# ---------------------------------------------------------------------------
# Criterion 3: reach certificates are sound on every unit-ball sample.
# ---------------------------------------------------------------------------


def criterion_3() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    configs = _standard_configs()
    for idx, pair in enumerate(configs):
        bridge = UnitPivotBridge(pair)
        worst = 0.0
        for a in sample_unit_ball(pair, 500, seed=300 + idx):
            f = np.diagonal(a).real
            worst = max(worst, bridge.norm(a, f))
        if worst > pair.beta + EXACT:
            failures.append(
                f"config {idx}: witness bridge norm {worst:.12g} > beta={pair.beta:.12g}"
            )
        cert = certify_reach_upper(pair, samples=64, seed=900 + idx)
        if cert.upper_bound != pair.beta:
            failures.append(f"config {idx}: certificate bound mismatch")
    for idx, pair in enumerate(p for p in configs if p.dim <= 6):
        lower = estimate_reach_lower(pair, iters=6, seed=77 + idx)
        if lower > pair.beta + LOOSE:
            failures.append(
                f"small config {idx}: sampled lower {lower:.12g} > beta + 1e-9"
            )
    elapsed = time.perf_counter() - start
    return CheckResult(3, "reach certificate soundness", not failures, elapsed, failures)


# ---------------------------------------------------------------------------
# Criterion 4: the convergence pipeline on the circle.
# ---------------------------------------------------------------------------


def criterion_4() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
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
            failures.append(
                f"n={row.n}: bound {row.certified_bound!r} != pi/n + 2pi/n^2"
            )
    if not report.strictly_decreasing:
        failures.append("bounds are not strictly decreasing")
    for r1, r2 in zip(report.rows, report.rows[1:]):
        if not r2.certified_bound <= r1.certified_bound / 2.0:
            failures.append(
                f"n={r1.n}->{r2.n}: bound {r2.certified_bound:.6f} is not <= "
                f"half of {r1.certified_bound:.6f}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    return CheckResult(4, "circle convergence pipeline", not failures, elapsed, failures)


# ---------------------------------------------------------------------------
# Criterion 5: conditional expectation axioms, pinching and averaging.
# ---------------------------------------------------------------------------


def _check_pinching_instance(
    pair: ApproximationPair, rng: np.random.Generator, failures: list[str], tag: str
) -> None:
    n = pair.dim
    stack = random_hermitian_stack(rng, 1000, n)
    diags = np.diagonal(stack, axis1=1, axis2=2)
    pinched = np.zeros_like(stack)
    rows = np.arange(n)
    pinched[:, rows, rows] = diags
    checks = {
        "idempotence": float(
            np.max(np.abs(np.diagonal(pinched, axis1=1, axis2=2) - diags))
        ),
        "unitality": float(np.max(np.abs(pinch(identity(n)) - identity(n)))),
        "trace preservation": float(
            np.max(np.abs(np.mean(diags, axis=1) - np.trace(stack, axis1=1, axis2=2) / n))
        ),
        "contractivity": float(
            np.max(np.max(np.abs(diags), axis=1) - operator_norms(stack))
        ),
        "L-contraction": float(
            np.max(l_seminorms(pair, pinched) - l_seminorms(pair, stack))
        ),
    }
    f = rng.uniform(-1.0, 1.0, size=n)
    g = rng.uniform(-1.0, 1.0, size=n)
    sandwich = f[None, :, None] * stack * g[None, None, :]
    lhs = np.zeros_like(sandwich)
    lhs[:, rows, rows] = np.diagonal(sandwich, axis1=1, axis2=2)
    rhs = f[None, :, None] * pinched * g[None, None, :]
    checks["bimodule"] = float(np.max(np.abs(lhs - rhs)))
    for name, value in checks.items():
        if value > EXACT:
            failures.append(f"pinching {tag}: {name} residual {value:.3e}")


def _check_averaging_instance(
    torus: FuzzyTorus,
    subgroup: TorusSubgroup,
    rng: np.random.Generator,
    failures: list[str],
    tag: str,
) -> None:
    ell = LengthFunction.max_arc(torus.q)
    expect = AveragingExpectation(torus, subgroup)
    stack = random_hermitian_stack(rng, 1000, torus.q)
    averaged = expect(stack)
    twice = expect(averaged)
    checks = {
        "idempotence": float(np.max(np.abs(twice - averaged))),
        "unitality": float(np.max(np.abs(expect(identity(torus.q)) - identity(torus.q)))),
        "trace preservation": float(
            np.max(
                np.abs(
                    np.trace(averaged, axis1=1, axis2=2)
                    - np.trace(stack, axis1=1, axis2=2)
                )
            )
            / torus.q
        ),
        "contractivity": float(
            np.max(operator_norms(averaged) - operator_norms(stack))
        ),
    }
    checks["L-contraction"] = float(
        np.max(
            action_lip_seminorms(torus, ell, averaged)
            - action_lip_seminorms(torus, ell, stack)
        )
    )
    for name, value in checks.items():
        if value > EXACT:
            failures.append(f"averaging {tag}: {name} residual {value:.3e}")


def criterion_5() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(55)
    for n in (4, 9, 16):
        space = random_cloud_space(rng, n)
        pair = ApproximationPair(space, min_separation(space))
        _check_pinching_instance(pair, rng, failures, f"n={n}")
    instances = [
        (FuzzyTorus(6, 1), TorusSubgroup.cyclic_first_factor(6, 3)),
        (FuzzyTorus(8, 3), TorusSubgroup.from_generators(8, (1, 1))),
        (FuzzyTorus(12, 5), TorusSubgroup.full(12)),
    ]
    for torus, subgroup in instances:
        _check_averaging_instance(
            torus, subgroup, rng, failures, f"q={torus.q},|H|={subgroup.order}"
        )
    elapsed = time.perf_counter() - start
    return CheckResult(5, "conditional expectation axiom suite", not failures, elapsed, failures)


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


def criterion_6() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(660)
    for space in _mk_corpus():
        n = space.n_points
        vertices = oracles.enumerate_lipschitz_vertices(space)
        measure_pairs = []
        eye = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                measure_pairs.append((eye[i], eye[j]))
        measure_pairs.append((np.full(n, 1.0 / n), eye[0]))
        for _ in range(2):
            w1 = rng.uniform(0.1, 1.0, size=n)
            w2 = rng.uniform(0.1, 1.0, size=n)
            measure_pairs.append((w1 / w1.sum(), w2 / w2.sum()))
        for p, q in measure_pairs:
            lp = mk_distance(space, p, q)
            combinatorial = oracles.mk_by_enumeration(space, p, q, vertices)
            if abs(lp - combinatorial) > LOOSE:
                failures.append(
                    f"{n}-point space: LP {lp:.12g} vs enumeration {combinatorial:.12g}"
                )
    elapsed = time.perf_counter() - start
    return CheckResult(6, "transport LP against vertex enumeration", not failures, elapsed, failures)


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


def criterion_7() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
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
            failures.append(f"q={q}: commutation defect {weyl_gap:.3e}")
        if action_kernel_dimension(torus) != 1:
            failures.append(f"q={q}: seminorm kernel is not one-dimensional")
        nontrivial = np.divmod(np.arange(1, q * q), q)
        for sample_idx in range(4):
            a = random_hermitian_stack(rng, 1, q)
            base = action_lip_seminorms(torus, ell, a)[0]
            moved = torus.dual_action(nontrivial, np.repeat(a, q * q - 1, axis=0))
            gap = float(np.max(np.abs(action_lip_seminorms(torus, ell, moved) - base)))
            if gap > EXACT:
                failures.append(f"q={q} sample {sample_idx}: action invariance off by {gap:.3e}")
        residual = _leibniz_min_residual(torus, ell, rng, 1000)
        if residual < -LOOSE:
            failures.append(f"q={q}: Leibniz residual {residual:.3e} below -1e-9")
        full = AveragingExpectation(torus, TorusSubgroup.full(q))
        for _ in range(5):
            a = random_hermitian_stack(rng, 1, q)[0]
            gap = float(
                np.max(np.abs(full(a) - trace_state(a) * identity(q)))
            )
            if gap > EXACT:
                failures.append(f"q={q}: full average is not the trace ({gap:.3e})")
    elapsed = time.perf_counter() - start
    return CheckResult(7, "fuzzy torus structure (orders 2..12)", not failures, elapsed, failures)


# ---------------------------------------------------------------------------
# Criterion 8: fixed-point continuity modulus along the divisor chain.
# ---------------------------------------------------------------------------


def criterion_8() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    q = 12
    torus = FuzzyTorus(q, 1)
    ell = LengthFunction.max_arc(q)
    chain = [1, 2, 3, 4, 6, 12]
    limit = TorusSubgroup.cyclic_first_factor(q, q)
    haus_values = []
    gap_values = []
    for m in chain:
        sub = TorusSubgroup.cyclic_first_factor(q, m)
        haus_values.append(subgroup_hausdorff(ell, sub, limit))
        gap_values.append(expectation_gap(torus, ell, sub, limit, count=64, seed=88))
    if gap_values[-1] != 0.0:
        failures.append(f"gap at the limit subgroup is {gap_values[-1]!r}, not exactly 0")
    for i in range(len(chain) - 1):
        if haus_values[i + 1] > haus_values[i] + EXACT:
            failures.append(
                f"Hausdorff values not weakly decreasing at m={chain[i + 1]}"
            )
        if gap_values[i + 1] > gap_values[i] + EXACT:
            failures.append(
                f"gaps not weakly decreasing at m={chain[i + 1]}: "
                f"{gap_values[i]:.6f} -> {gap_values[i + 1]:.6f}"
            )
    for sub in enumerate_subgroups(q):
        dim = AveragingExpectation(torus, sub).fixed_dimension
        if dim * sub.order != q * q:
            failures.append(
                f"subgroup of order {sub.order}: fixed dimension {dim} fails duality"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s")
    return CheckResult(8, "fixed-point continuity modulus (q=12 chain)", not failures, elapsed, failures)


# ---------------------------------------------------------------------------
# Criterion 9: commutative cross-check on the six-point circle.
# ---------------------------------------------------------------------------


def criterion_9() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    space = epsilon_net(Circle(TAU), 6)[0]
    group = cyclic_rotation_group(6)
    for order in (1, 2, 3, 6):
        subgroup = [group[(6 // order) * t] for t in range(order)]
        report = commutative_fixed_point_check(
            space, group, subgroup, count=1000, seed=99
        )
        expected_dim = 6 // order
        if report.fixed_dimension != expected_dim:
            failures.append(
                f"order {order}: fixed dimension {report.fixed_dimension} != {expected_dim}"
            )
        if report.quotient.n_points != expected_dim:
            failures.append(f"order {order}: quotient has wrong size")
        if report.lip_contraction_violation > EXACT:
            failures.append(
                f"order {order}: Lipschitz contraction violated by "
                f"{report.lip_contraction_violation:.3e}"
            )
        if not report.reach_within_geometry:
            failures.append(f"order {order}: sampled reach exceeds the orbit bound")
    elapsed = time.perf_counter() - start
    return CheckResult(9, "commutative orbit-averaging cross-check", not failures, elapsed, failures)


CRITERIA: list[Callable[[], CheckResult]] = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
]


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
