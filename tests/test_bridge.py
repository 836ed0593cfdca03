import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import matprox.bridge
from matprox import (
    ApproximationPair,
    Circle,
    FiniteMetricSpace,
    FlatTorus,
    Interval,
    PointCloud,
    TAU,
    approximate_compact_space,
    beta_delta_over_n,
    beta_fixed,
    beta_fraction_of_delta,
    certify_reach_upper,
    convergence_experiment,
    epsilon_net,
    estimate_reach_lower,
    hausdorff_distance,
    identity,
    l_seminorms,
    lipschitz_seminorm,
    min_separation,
    operator_norm,
    sample_unit_ball,
)
from matprox.errors import ConfigError, CorollaryModeViolation


def two_point_pair(beta: float = 0.5) -> ApproximationPair:
    space = FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return ApproximationPair(space, beta)


def bridge_norm(a: np.ndarray, f: np.ndarray) -> float:
    """||a - diag(f)||, the bridge norm ``certify_reach_upper`` takes."""
    return operator_norm(a - np.diag(f.astype(complex)))


# ---------------------------------------------------------------------------
# Bridge norms.
# ---------------------------------------------------------------------------


def test_bridge_norm_of_matching_diagonal_is_zero():
    f = np.array([0.3, -1.2])
    assert bridge_norm(np.diag(f.astype(complex)), f) == 0.0


def test_bridge_norm_unit_against_zero():
    assert bridge_norm(identity(2), np.zeros(2)) == 1.0


# ---------------------------------------------------------------------------
# Reach certificates.
# ---------------------------------------------------------------------------


def test_certificate_value_is_beta_and_witnesses_hold():
    rng = np.random.default_rng(40)
    for n in (2, 4, 7):
        space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
        pair = ApproximationPair(space, 0.5 * min_separation(space))
        cert = certify_reach_upper(pair, samples=200, seed=n)
        assert cert.upper_bound == pair.beta
        assert cert.worst_forward <= pair.beta + 1e-12
        assert cert.worst_backward == 0.0
        assert cert.certified


def test_unit_lipschitz_functions_embed_into_the_unit_ball():
    pair = two_point_pair()
    f = pair.space.dist[0]
    assert lipschitz_seminorm(pair.space, f) == 1.0
    assert l_seminorms(pair, np.diag(f.astype(complex))[None])[0] <= 1.0


def test_reach_lower_estimate_is_dominated_by_certificate():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5):
        space = FiniteMetricSpace.from_points(rng.normal(size=(n, 2)))
        pair = ApproximationPair(space, 0.7 * min_separation(space))
        lower = estimate_reach_lower(pair, iters=8, seed=n)
        assert lower <= pair.beta + 1e-9


def test_reach_lower_vanishes_with_beta():
    pair = two_point_pair(beta=1e-9)
    assert estimate_reach_lower(pair, iters=4, seed=1) <= 1e-9 + 1e-12


def test_two_point_reach_interval_is_reported_not_asserted():
    # Exploratory: across seeds the sampled value lands inside [0, beta];
    # only the certified upper bound is asserted.
    pair = two_point_pair(beta=0.5)
    values = [estimate_reach_lower(pair, iters=8, seed=s) for s in range(3)]
    assert all(0.0 <= v <= 0.5 + 1e-9 for v in values)


@pytest.mark.parametrize(
    "generator,expected",
    [
        (Circle(TAU), 0.004391314908010322),
        (Interval(1.0), 0.0006988993439762562),
        (FlatTorus((1.0, 1.0)), 0.0034944972802837147),
    ],
    ids=["circle", "interval", "torus"],
)
def test_reach_lower_estimate_is_pinned(generator, expected):
    # The coordinate descent follows the exact path of its objective values,
    # so these values pin the single-matrix norm to the eigvalsh path of
    # operator_norms.  When that norm moved from the SVD to eigvalsh (about
    # 1e-15 apart) they moved by 3.7e-9 to 1.3e-8 relative.
    pair, _ = approximate_compact_space(generator, 25, beta_delta_over_n)
    assert estimate_reach_lower(pair, iters=1, seed=1) == pytest.approx(
        expected, rel=1e-12, abs=0.0
    )


def _reference_descent(pair, a, start, steps=200, tol=1e-9, solves=None):
    """The descent as first written: every evaluation rebuilds a - diag(g)
    and takes operator_norm of it, and every section with room to move runs
    the minimiser.  ``solves``, a list, gains one entry per run."""
    n = pair.dim
    dist = pair.space.dist
    f = start.astype(float).copy()

    def objective(values):
        return operator_norm(a - np.diag(values.astype(complex)))

    current = objective(f)
    used = 0
    while used < steps:
        sweep_start = current
        for i in range(n):
            if used >= steps:
                break
            others = np.delete(np.arange(n), i)
            lo = float(np.max(f[others] - dist[i, others]))
            hi = float(np.min(f[others] + dist[i, others]))
            if hi - lo <= 0.0:
                used += 1
                continue

            def section(t):
                g = f.copy()
                g[i] = t
                return objective(g)

            res = minimize_scalar(
                section, bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-10},
            )
            if solves is not None:
                solves.append(i)
            used += 1
            if res.fun < current:
                f[i] = float(res.x)
                current = float(res.fun)
        if sweep_start - current < tol:
            break
    return current


@pytest.mark.parametrize(
    "generator,n",
    [
        (Circle(TAU), 25),
        (Circle(TAU), 32),
        (Interval(1.0), 25),
        (Interval(1.0), 32),
        # Torus nets are square grids, so 36 points stand in for 32.
        (FlatTorus((1.0, 1.0)), 25),
        (FlatTorus((1.0, 1.0)), 36),
    ],
    ids=["circle-25", "circle-32", "interval-25", "interval-32", "torus-25", "torus-36"],
)
def test_reach_descent_matches_the_rebuilt_objective_bitwise(generator, n):
    pair, _ = approximate_compact_space(generator, n, beta_delta_over_n)
    for seed in (1, 2):
        (a,) = sample_unit_ball(pair, 1, seed)
        expected = _reference_descent(pair, a, np.diagonal(a).real)
        assert estimate_reach_lower(pair, iters=1, seed=seed) == expected


@pytest.mark.parametrize(
    "generator,n,seed",
    [(FlatTorus((1.0, 1.0)), 36, 1610351860), (Circle(TAU), 32, 681998894)],
    ids=["torus-36", "circle-32"],
)
def test_reach_descent_skips_stale_sections_bitwise(generator, n, seed, monkeypatch):
    # Benchmark-sized jobs in which some sections are rerun with no section
    # accepted since their last run.  The descent skips them, so it runs the
    # minimiser fewer times than the reference, and ends on the same bits.
    pair, _ = approximate_compact_space(generator, n, beta_delta_over_n)
    (a,) = sample_unit_ball(pair, 1, seed)
    reference_solves = []
    expected = _reference_descent(pair, a, np.diagonal(a).real, solves=reference_solves)
    solves = []

    def counting_minimize(fun, *args, **kwargs):
        solves.append(1)
        return minimize_scalar(fun, *args, **kwargs)

    monkeypatch.setattr(matprox.bridge, "minimize_scalar", counting_minimize)
    assert estimate_reach_lower(pair, iters=1, seed=seed) == expected
    assert 0 < len(solves) < len(reference_solves)


def test_reach_descent_takes_one_norm_per_evaluation(monkeypatch):
    # A tracer that rebinds bridge.operator_norm and bridge.minimize_scalar
    # sees one operator_norm per sample, at the start of its descent; each
    # call of a section by the scalar minimiser takes one eigenvalue norm.
    counts = {"norms": 0, "eigenvalue_norms": 0, "evals": 0}

    def counting_norm(m):
        counts["norms"] += 1
        return operator_norm(m)

    def counting_eigenvalue_norms(m):
        counts["eigenvalue_norms"] += 1
        return eigenvalue_norms(m)

    def counting_minimize(fun, *args, **kwargs):
        def counted(t):
            counts["evals"] += 1
            return fun(t)

        return minimize_scalar(counted, *args, **kwargs)

    eigenvalue_norms = matprox.bridge._eigenvalue_norms
    monkeypatch.setattr(matprox.bridge, "operator_norm", counting_norm)
    monkeypatch.setattr(matprox.bridge, "_eigenvalue_norms", counting_eigenvalue_norms)
    monkeypatch.setattr(matprox.bridge, "minimize_scalar", counting_minimize)
    pair, _ = approximate_compact_space(Circle(TAU), 12, beta_delta_over_n)
    samples = 3
    estimate_reach_lower(pair, iters=samples, seed=4)
    assert counts["evals"] > 0
    assert counts["eigenvalue_norms"] == counts["evals"]
    assert counts["norms"] == samples


def test_reach_descent_rejects_a_matrix_one_ulp_from_self_adjoint():
    # The descent tests self-adjointness once, on its sample, and takes every
    # later norm by eigenvalues; a sample that fails the test raises rather
    # than being read as its Hermitian part.
    pair, _ = approximate_compact_space(Circle(TAU), 8, beta_delta_over_n)
    (a,) = sample_unit_ball(pair, 1, 0)
    a[0, 1] = np.nextafter(a[0, 1].real, np.inf) + 1j * a[0, 1].imag
    with pytest.raises(ValueError, match="self-adjoint"):
        matprox.bridge._coordinate_descent_inf(pair, a, np.diagonal(a).real)


@pytest.mark.parametrize(
    "generator,n",
    [
        (Circle(TAU), 12),
        (Interval(1.0), 10),
        (FlatTorus((1.0, 1.0)), 16),
        (PointCloud(np.random.default_rng(7).normal(size=(9, 3))), 9),
    ],
    ids=["circle", "interval", "torus", "cloud"],
)
def test_unit_ball_samples_are_bitwise_self_adjoint(generator, n):
    # The reach descent's guard holds on every sample the CLI can draw.
    pair, _ = approximate_compact_space(generator, n, beta_delta_over_n)
    for a in sample_unit_ball(pair, 16, 5):
        assert np.array_equal(a, a.conj().T)


@pytest.mark.parametrize(
    "generator,n",
    [(Circle(TAU), 12), (Interval(1.0), 32), (FlatTorus((1.0, 1.0)), 36)],
    ids=["circle-12", "interval-32", "torus-36"],
)
def test_reach_norms_take_no_svd(generator, n, monkeypatch):
    # Every matrix whose norm the reach descent and the witness check take is
    # bitwise self-adjoint, so operator_norm takes eigvalsh on each.  A matrix
    # that stopped being so would fall back to the SVD and fail here.
    def no_svd(*args, **kwargs):
        raise AssertionError("a reach norm took the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    pair, _ = approximate_compact_space(generator, n, beta_delta_over_n)
    assert 0.0 < estimate_reach_lower(pair, iters=2, seed=3) <= pair.beta + 1e-9
    assert certify_reach_upper(pair, samples=8, seed=3).upper_bound == pair.beta


# ---------------------------------------------------------------------------
# Pipeline.
# ---------------------------------------------------------------------------


def test_circle_pipeline_closed_form():
    for n in (4, 8, 16):
        pair, row = approximate_compact_space(Circle(TAU), n, beta_delta_over_n)
        assert row.certified_bound == pytest.approx(np.pi / n + 2 * np.pi / n**2, abs=1e-15)
        assert pair.delta == pytest.approx(TAU / n, abs=1e-15)


def test_maximal_corollary_mode_beta_equals_delta():
    pair, row = approximate_compact_space(
        Circle(TAU), 6, beta_fraction_of_delta(1.0)
    )
    assert pair.leibniz_constant == 2.0
    assert row.certified_bound == pytest.approx(np.pi / 6 + TAU / 6, abs=1e-15)


def test_finite_generator_bound_shrinks_with_beta():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(5, 2))
    cloud = PointCloud(points)
    for beta in (1e-3, 1e-6, 1e-9):
        pair, row = approximate_compact_space(cloud, 5, beta_fixed(beta))
        assert row.certified_bound == pytest.approx(beta, abs=1e-15)  # haus is exactly zero


def test_corollary_mode_violation_and_theorem_mode_fallback():
    with pytest.raises(CorollaryModeViolation):
        approximate_compact_space(Circle(TAU), 4, beta_fixed(10.0))
    pair, row = approximate_compact_space(
        Circle(TAU), 4, beta_fixed(10.0), corollary_mode=False
    )
    assert pair.leibniz_constant == pytest.approx(1.0 + 10.0 / pair.delta)
    assert row.certified_bound == pytest.approx(np.pi / 4 + 10.0)


def test_convergence_rows_strictly_decreasing_on_circle():
    report = convergence_experiment(Circle(TAU), [4, 8, 16, 32], beta_delta_over_n)
    assert report.strictly_decreasing and report.nonincreasing
    csv = report.to_csv()
    assert csv.splitlines()[0] == "n,delta,beta,haus,certified_bound"
    assert len(csv.splitlines()) == 5


def test_convergence_on_interval_with_dense_haus_oracle():
    report = convergence_experiment(Interval(1.0), [2, 4, 8], beta_delta_over_n)
    assert report.strictly_decreasing
    for row in report.rows:
        positions = (np.arange(row.n) + 0.5) / row.n
        ts = np.linspace(0.0, 1.0, 20001)
        sampled = float(np.max(np.min(np.abs(ts[:, None] - positions[None, :]), axis=1)))
        assert sampled <= row.haus + 1e-12
        assert row.haus == pytest.approx(1.0 / (2 * row.n), abs=1e-15)


def test_convergence_requires_increasing_sizes():
    with pytest.raises(ConfigError):
        convergence_experiment(Circle(TAU), [8, 4], beta_delta_over_n)


def test_nested_net_triangle_assembly():
    # The certified bound via a coarse net never beats the bound via a finer
    # net plus the Hausdorff leg between the two nets.
    for n in (4, 8, 16):
        coarse_pair, coarse_row = approximate_compact_space(
            Circle(TAU), n, beta_delta_over_n
        )
        fine_pair, fine_row = approximate_compact_space(
            Circle(TAU), 2 * n, beta_delta_over_n
        )
        fine_net, _ = epsilon_net(Circle(TAU), 2 * n)
        nets_leg = hausdorff_distance(
            fine_net, range(0, 2 * n, 2), range(2 * n)
        )
        assert coarse_row.certified_bound <= fine_row.certified_bound + nets_leg + 1e-12


def test_beta_rule_validation():
    with pytest.raises(ConfigError):
        beta_fixed(-1.0)
    with pytest.raises(ConfigError):
        beta_fraction_of_delta(1.5)


def test_sampled_estimates_never_exceed_certificates_across_configs():
    rng = np.random.default_rng(43)
    for trial in range(4):
        n = int(rng.integers(2, 7))
        space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
        pair = ApproximationPair(space, min_separation(space))
        cert = certify_reach_upper(pair, samples=64, seed=trial)
        lower = estimate_reach_lower(pair, iters=5, seed=trial)
        assert lower <= cert.upper_bound + 1e-9


def test_witness_values_on_unit_ball_samples_stay_under_beta():
    pair = two_point_pair(beta=0.3)
    for a in sample_unit_ball(pair, 300, seed=9):
        f = np.diagonal(a).real
        assert bridge_norm(a, f) <= pair.beta + 1e-12
