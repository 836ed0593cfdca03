
import numpy as np
import pytest

from matprox import (
    Circle,
    FiniteMetricSpace,
    FlatTorus,
    Interval,
    PointCloud,
    TAU,
    diameter,
    epsilon_net,
    hausdorff_distance,
    lipschitz_seminorm,
    min_separation,
    mk_distance,
    space_from_dict,
)
from matprox.errors import (
    ConfigError,
    DegenerateSpaceError,
    EmptySetError,
    InputShapeError,
    MetricAxiomError,
)
from matprox.metric_core import lipschitz_constraints


def two_point(d: float = 1.0) -> FiniteMetricSpace:
    return FiniteMetricSpace(("a", "b"), np.array([[0.0, d], [d, 0.0]]))


def circle_net(n: int) -> FiniteMetricSpace:
    return epsilon_net(Circle(TAU), n)[0]


# ---------------------------------------------------------------------------
# Construction and validation.
# ---------------------------------------------------------------------------


def test_rejects_asymmetric_matrix():
    with pytest.raises(MetricAxiomError):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_rejects_zero_offdiagonal():
    with pytest.raises(MetricAxiomError):
        FiniteMetricSpace(("a", "b"), np.zeros((2, 2)))


def test_rejects_triangle_violation():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(MetricAxiomError):
        FiniteMetricSpace(("a", "b", "c"), bad)


def test_rejects_label_count_mismatch():
    with pytest.raises(InputShapeError):
        FiniteMetricSpace(("a",), np.zeros((2, 2)))


def test_from_points_builds_euclidean_metric():
    space = FiniteMetricSpace.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert space.dist[0, 1] == 5.0


# ---------------------------------------------------------------------------
# min_separation / diameter.
# ---------------------------------------------------------------------------


def test_min_separation_two_points():
    assert min_separation(two_point()) == 1.0


def test_min_separation_circle_four():
    assert min_separation(circle_net(4)) == pytest.approx(np.pi / 2, abs=1e-15)


def test_min_separation_single_point_raises():
    single = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(DegenerateSpaceError):
        min_separation(single)


def test_diameter_values():
    single = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    assert diameter(single) == 0.0
    assert diameter(two_point()) == 1.0
    assert diameter(circle_net(5)) == pytest.approx(4 * np.pi / 5, abs=1e-15)


# ---------------------------------------------------------------------------
# Lipschitz seminorm.
# ---------------------------------------------------------------------------


def test_lipschitz_constant_function_is_zero():
    space = circle_net(6)
    assert lipschitz_seminorm(space, np.full(6, 2.7)) == 0.0


def test_lipschitz_two_points():
    assert lipschitz_seminorm(two_point(), np.array([0.0, 3.0])) == 3.0


def test_lipschitz_of_distance_function_is_one():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 9):
        space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
        for base in range(n):
            f = space.dist[base]
            assert lipschitz_seminorm(space, f) == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_single_point_convention():
    single = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    assert lipschitz_seminorm(single, np.array([4.2])) == 0.0


def test_lipschitz_kernel_is_exactly_constants():
    rng = np.random.default_rng(1)
    space = FiniteMetricSpace.from_points(rng.normal(size=(5, 2)))
    for _ in range(50):
        f = rng.uniform(-1, 1, size=5)
        is_constant = np.max(f) == np.min(f)
        assert (lipschitz_seminorm(space, f) == 0.0) == is_constant


# ---------------------------------------------------------------------------
# Monge-Kantorovich distance.
# ---------------------------------------------------------------------------


def test_mk_equal_measures_is_zero():
    space = circle_net(5)
    uniform = np.full(5, 0.2)
    assert mk_distance(space, uniform, uniform) == 0.0


def test_mk_dirac_pairs_recover_ground_metric():
    rng = np.random.default_rng(2)
    for space in (two_point(), circle_net(4), FiniteMetricSpace.from_points(rng.normal(size=(6, 3)))):
        n = space.n_points
        eye = np.eye(n)
        for i in range(n):
            for j in range(n):
                got = mk_distance(space, eye[i], eye[j])
                assert got == pytest.approx(space.dist[i, j], abs=1e-9)


def test_mk_uniform_vs_dirac_two_points():
    assert mk_distance(two_point(), np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(
        0.5, abs=1e-12
    )


def test_mk_symmetry_is_exact_and_triangle_holds():
    rng = np.random.default_rng(3)
    space = FiniteMetricSpace.from_points(rng.normal(size=(5, 2)))
    for _ in range(10):
        raw = rng.uniform(0.05, 1.0, size=(3, 5))
        p, q, r = (w / w.sum() for w in raw)
        assert mk_distance(space, p, q) == mk_distance(space, q, p)
        residual = mk_distance(space, p, r) + mk_distance(space, r, q) - mk_distance(space, p, q)
        assert residual >= -1e-9


def test_mk_dimension_mismatch():
    with pytest.raises(InputShapeError):
        mk_distance(two_point(), np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0]))


def test_mk_invalid_measure():
    with pytest.raises(ValueError):
        mk_distance(two_point(), np.array([0.9, 0.3]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        mk_distance(two_point(), np.array([np.nan, 1.0]), np.array([1.0, 0.0]))


def test_mk_state_space_diameter_matches_ground_diameter():
    # The sup defining the distance of the farthest Dirac pair is attained
    # by a distance function, so the transport diameter is the metric one.
    for n in (3, 4, 6):
        space = circle_net(n)
        eye = np.eye(n)
        worst = max(
            mk_distance(space, eye[i], eye[j])
            for i in range(n)
            for j in range(n)
        )
        assert worst == pytest.approx(diameter(space), abs=1e-9)


def test_lipschitz_constraints_match_the_pairwise_loop():
    # The LP solver sees the rows in this order, so order is part of the
    # contract: pairs i < j row-major, each +row before its -row.
    rng = np.random.default_rng(17)
    for space in (two_point(), circle_net(5), FiniteMetricSpace.from_points(rng.normal(size=(7, 2)))):
        n = space.n_points
        rows, rhs = [], []
        for i in range(n):
            for j in range(i + 1, n):
                row = np.zeros(n)
                row[i], row[j] = 1.0, -1.0
                rows += [row, -row]
                rhs += [space.dist[i, j]] * 2
        a_ub, b_ub = lipschitz_constraints(space)
        assert np.array_equal(a_ub, np.asarray(rows))
        assert np.array_equal(b_ub, np.asarray(rhs))


# ---------------------------------------------------------------------------
# Hausdorff distance.
# ---------------------------------------------------------------------------


def test_hausdorff_identical_sets():
    space = circle_net(6)
    assert hausdorff_distance(space, [0, 2, 4], [0, 2, 4]) == 0.0


def test_hausdorff_subset_is_directed_value():
    space = circle_net(6)
    subset = [0, 2, 4]
    everything = range(6)
    directed = max(
        min(space.dist[t, s] for s in subset) for t in range(6)
    )
    assert hausdorff_distance(space, subset, everything) == pytest.approx(directed, abs=1e-15)


def test_hausdorff_three_vs_six_circle_points():
    assert hausdorff_distance(circle_net(6), [0, 2, 4], range(6)) == pytest.approx(
        np.pi / 3, abs=1e-12
    )


def test_hausdorff_empty_subset_raises():
    with pytest.raises(EmptySetError):
        hausdorff_distance(circle_net(4), [], [0, 1])


def test_hausdorff_zero_iff_equal_sets():
    space = circle_net(5)
    assert hausdorff_distance(space, [0, 1], [1, 0]) == 0.0
    assert hausdorff_distance(space, [0, 1], [0, 2]) > 0.0


# ---------------------------------------------------------------------------
# Built-in nets.
# ---------------------------------------------------------------------------


def _dense_circle_gap(circumference: float, net_positions: np.ndarray, samples: int = 40001) -> float:
    ts = np.linspace(0.0, circumference, samples, endpoint=False)
    raw = np.abs(ts[:, None] - net_positions[None, :])
    arc = np.minimum(raw, circumference - raw)
    return float(np.max(np.min(arc, axis=1)))


def test_circle_net_haus_bound_matches_dense_sampling():
    net, bound = epsilon_net(Circle(TAU), 4)
    assert bound == pytest.approx(np.pi / 4, abs=1e-15)
    positions = TAU * np.arange(4) / 4
    sampled = _dense_circle_gap(TAU, positions)
    assert sampled <= bound + 1e-12
    assert bound - sampled <= TAU / 40001


def test_single_point_circle_net():
    net, bound = epsilon_net(Circle(TAU), 1)
    assert net.n_points == 1
    assert bound == pytest.approx(np.pi, abs=1e-15)


def test_interval_net_two_points():
    net, bound = epsilon_net(Interval(1.0), 2)
    assert bound == pytest.approx(0.25, abs=1e-15)
    assert net.dist[0, 1] == pytest.approx(0.5, abs=1e-15)
    positions = np.array([0.25, 0.75])
    ts = np.linspace(0.0, 1.0, 40001)
    sampled = float(np.max(np.min(np.abs(ts[:, None] - positions[None, :]), axis=1)))
    assert sampled <= bound + 1e-12
    assert bound - sampled <= 1.0 / 40000


def test_torus_net_is_grid_with_max_metric():
    net, bound = epsilon_net(FlatTorus((TAU, TAU)), 9)
    assert net.n_points == 9
    assert bound == pytest.approx(np.pi / 3, abs=1e-15)
    assert min_separation(net) == pytest.approx(TAU / 3, abs=1e-15)
    with pytest.raises(ConfigError):
        epsilon_net(FlatTorus((TAU, TAU)), 8)


def test_point_cloud_net_full_and_partial():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(7, 2))
    cloud = PointCloud(points)
    net, bound = epsilon_net(cloud, 7)
    assert net.n_points == 7
    assert bound == 0.0
    net3, bound3 = epsilon_net(cloud, 3)
    full = FiniteMetricSpace.from_points(points)
    selected = [full.labels.index(lab) for lab in net3.labels]
    exact = max(min(full.dist[i, s] for s in selected) for i in range(7))
    assert bound3 == pytest.approx(exact, abs=1e-15)


def test_unknown_generator_rejected():
    with pytest.raises(ConfigError):
        epsilon_net("circle", 4)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Text input format.
# ---------------------------------------------------------------------------


def test_space_from_dict_with_matrix_and_points():
    by_matrix = space_from_dict({"labels": ["x", "y"], "dist": [[0, 2], [2, 0]]})
    assert by_matrix.dist[0, 1] == 2.0
    by_points = space_from_dict({"points": [[0, 0], [1, 0], [0, 1]]})
    assert by_points.n_points == 3


def test_space_from_dict_rejects_bad_payloads():
    with pytest.raises(ConfigError):
        space_from_dict({"labels": ["a"]})
    with pytest.raises(MetricAxiomError):
        space_from_dict({"dist": [[0, 1], [2, 0]]})
