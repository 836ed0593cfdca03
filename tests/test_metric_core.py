import math
import re

import numpy as np
import pytest

from matprox import (
    Circle,
    FiniteMetricSpace,
    FlatTorus,
    Interval,
    TAU,
    epsilon_net,
    lipschitz_seminorms,
    min_separation,
    mk_distance,
    space_from_dict,
)
from matprox.acceptance import LOOSE
from matprox.errors import (
    ConfigError,
    DegenerateSpaceError,
    InputShapeError,
    MetricAxiomError,
)
from matprox.metric_core import (
    BLOCK_BYTES,
    blocks,
    dirac_distances,
    lipschitz_constraints,
    random_cloud_space,
)


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


def test_triangle_check_over_row_blocks_reports_the_worst_excess():
    # 120 points take two blocks of rows; the violated triangles sit in both.
    dist = FiniteMetricSpace.from_points(np.random.default_rng(4).normal(size=(120, 2))).dist.copy()
    dist[0, 1] = dist[1, 0] = dist[0, 1] + 0.5
    dist[118, 119] = dist[119, 118] = dist[118, 119] + 2.0
    worst = float(np.max(dist - (dist[:, :, None] + dist[None, :, :]).min(axis=1)))
    with pytest.raises(MetricAxiomError, match=re.escape(f"triangle inequality violated by {worst:.3e}") + "$"):
        FiniteMetricSpace(tuple(f"p{i}" for i in range(120)), dist)


def test_blocks_cover_the_count_in_order_within_the_budget():
    assert list(blocks(0, 8)) == []
    # An item larger than the budget still gets a slice of its own.
    assert list(blocks(3, 2 * BLOCK_BYTES)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert list(blocks(6, BLOCK_BYTES // 3)) == [slice(0, 3), slice(3, 6)]
    for count, item_bytes in ((1, 8), (10, BLOCK_BYTES // 4), (1000, 16 * 64 * 64), (7, BLOCK_BYTES + 1)):
        slices = list(blocks(count, item_bytes))
        assert [i for block in slices for i in range(count)[block]] == list(range(count))
        assert all(block.stop - block.start == max(1, BLOCK_BYTES // item_bytes) for block in slices[:-1])
        assert 0 < slices[-1].stop - slices[-1].start <= max(1, BLOCK_BYTES // item_bytes)


def test_rejects_label_count_mismatch():
    with pytest.raises(InputShapeError):
        FiniteMetricSpace(("a",), np.zeros((2, 2)))


def test_from_points_builds_euclidean_metric():
    space = FiniteMetricSpace.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert space.dist[0, 1] == 5.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "points,distance",
    [
        ([[0.0], [1e-200]], 1e-200),
        ([[0.0], [1e200]], 1e200),
        ([[0.0, 0.0], [3e-161, 4e-161]], 5e-161),
        ([[0.0], [1.5e308]], 1.5e308),
        ([[1e308, 1e308], [0.0, 0.0]], math.sqrt(2.0) * 1e308),
    ],
)
def test_from_points_is_right_far_from_unit_scale(points, distance):
    # The squared differences underflowed or overflowed: the first two were
    # refused (coincident points, non-finite distances), the third built at
    # 4.99997e-161, and the sums of the last two overflowed in validation.
    space = FiniteMetricSpace.from_points(np.array(points))
    assert space.dist[0, 1] == space.dist[1, 0] == pytest.approx(distance, rel=1e-15, abs=0.0)


def test_from_points_keeps_the_bits_of_the_plain_formula_at_unit_scale():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(2, 10), rng.integers(1, 5)
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        diff = points[:, None, :] - points[None, :, :]
        plain = np.sqrt(np.sum(diff * diff, axis=-1))
        assert np.array_equal(FiniteMetricSpace.from_points(points).dist, plain), seed


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
    # The diameter is the largest entry of the distance matrix; callers take
    # np.max(space.dist), which reads zero for a single point.
    single = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    assert np.max(single.dist) == 0.0
    assert np.max(two_point().dist) == 1.0
    assert np.max(circle_net(5).dist) == pytest.approx(4 * np.pi / 5, abs=1e-15)


# ---------------------------------------------------------------------------
# Lipschitz seminorm.
# ---------------------------------------------------------------------------


def test_lipschitz_constant_function_is_zero():
    space = circle_net(6)
    assert lipschitz_seminorms(space, np.full(6, 2.7)[None])[0] == 0.0


def test_lipschitz_two_points():
    assert lipschitz_seminorms(two_point(), np.array([0.0, 3.0])[None])[0] == 3.0


def test_lipschitz_of_distance_function_is_one():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 9):
        space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
        for base in range(n):
            f = space.dist[base]
            assert lipschitz_seminorms(space, f[None])[0] == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_single_point_convention():
    single = FiniteMetricSpace(("a",), np.zeros((1, 1)))
    assert lipschitz_seminorms(single, np.array([4.2])[None])[0] == 0.0


def test_lipschitz_kernel_is_exactly_constants():
    rng = np.random.default_rng(1)
    space = FiniteMetricSpace.from_points(rng.normal(size=(5, 2)))
    for _ in range(50):
        f = rng.uniform(-1, 1, size=5)
        is_constant = np.max(f) == np.min(f)
        assert (lipschitz_seminorms(space, f[None])[0] == 0.0) == is_constant


def _ordered_pairs_lipschitz(space, fs):
    """The Lipschitz seminorms over all ordered pairs i != j."""
    n = space.n_points
    if n < 2:
        return np.zeros(fs.shape[0])
    num = np.abs(fs[:, :, None] - fs[:, None, :])
    mask = ~np.eye(n, dtype=bool)
    return np.max(num[:, mask] / space.dist[mask][None, :], axis=1)


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_lipschitz_over_pairs_i_lt_j_is_the_ordered_pairs_maximum_bit_for_bit(n, kind):
    rng = np.random.default_rng(100 + n)
    # Distances from coordinates, so that they are not round numbers.
    space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 1)))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0, np.nan])
    rows = [rng.normal(size=(40, n)), np.zeros((1, n)), np.full((1, n), -0.0), rng.choice(special, size=(30, n))]
    fs = np.concatenate(rows)
    if kind == "complex":
        fs = fs + 1j * np.concatenate([rng.normal(size=(40, n))] + rows[1:])[::-1]
    got, expected = lipschitz_seminorms(space, fs), _ordered_pairs_lipschitz(space, fs)
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


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


def test_dirac_table_is_the_symmetric_table_of_pairwise_transport_distances():
    space = FiniteMetricSpace.from_points(np.random.default_rng(3).normal(size=(5, 2)))
    table = dirac_distances(space)
    eye = np.eye(5)
    assert np.array_equal(table, table.T) and not np.any(np.diag(table))
    for i, j in zip(*np.triu_indices(5, k=1)):
        assert table[i, j] == mk_distance(space, eye[i], eye[j])
    assert np.max(np.abs(table - space.dist)) <= 1e-9


# Powers of two far from one, and decimal scales near the float limits and
# past 1e20, which the LP solver reads as infinite.
_MK_SCALES = [2.0**-600, 2.0**-30, 2.0**30, 2.0**600, 1e-9, 1e-300, 1e19, 1e200]


@pytest.mark.parametrize("scale", _MK_SCALES)
def test_mk_dirac_table_is_the_ground_metric_at_any_scale(scale):
    # At the input's own scale 1e200 ended in "transport LP failed: The
    # problem is unbounded", and 1e-9 missed by up to 136% of a distance.
    space = FiniteMetricSpace.from_points(np.random.default_rng(1).normal(size=(6, 2)) * scale)
    table = dirac_distances(space)
    assert np.max(np.abs(table - space.dist)) <= LOOSE * np.max(space.dist)


@pytest.mark.parametrize("scale", _MK_SCALES)
def test_mk_scales_with_the_cloud(scale):
    rng = np.random.default_rng(4)
    points = rng.normal(size=(7, 2))
    p, q = (w / w.sum() for w in rng.uniform(0.05, 1.0, size=(2, 7)))
    unit = mk_distance(FiniteMetricSpace.from_points(points), p, q)
    scaled = mk_distance(FiniteMetricSpace.from_points(points * scale), p, q)
    if math.frexp(scale)[0] == 0.5:
        # A power of two scales every distance exactly, and so the LP's value.
        assert scaled == unit * scale
    else:
        assert scaled == pytest.approx(unit * scale, rel=LOOSE, abs=0.0)


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
        assert worst == pytest.approx(np.max(space.dist), abs=1e-9)


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
# The Hausdorff distance from a point cloud to its net.
# ---------------------------------------------------------------------------


# The subset Hausdorff distance the library computes is the one from a point
# cloud to its farthest-point net, a subset of it; ``epsilon_net`` returns it.


def _cloud_haus(space: FiniteMetricSpace, n: int) -> float:
    return epsilon_net(space, n)[1]


def test_hausdorff_identical_sets():
    assert _cloud_haus(circle_net(6), 6) == 0.0


def test_hausdorff_subset_is_directed_value():
    space = circle_net(6)
    net, haus = epsilon_net(space, 3)
    subset = [space.labels.index(label) for label in net.labels]
    directed = max(min(space.dist[t, s] for s in subset) for t in range(6))
    assert haus == directed


def test_hausdorff_three_vs_six_circle_points():
    assert _cloud_haus(circle_net(6), 3) == pytest.approx(np.pi / 3, abs=1e-12)


def test_hausdorff_empty_subset_raises():
    with pytest.raises(ConfigError):
        _cloud_haus(circle_net(4), 0)


def test_hausdorff_zero_iff_equal_sets():
    space = circle_net(5)
    assert _cloud_haus(space, 5) == 0.0
    assert all(_cloud_haus(space, n) > 0.0 for n in range(1, 5))


@pytest.mark.parametrize("seed", range(6))
def test_cloud_net_hausdorff_is_the_brute_force_value(seed):
    # For every net size of a random cloud: the net is the cloud's distance
    # matrix on the selected points, and its value is max_x min_{y in net}
    # d(x, y) exactly, zero just when the net is the whole cloud.
    rng = np.random.default_rng(seed)
    total = int(rng.integers(2, 12))
    full = random_cloud_space(rng, total)
    for n in range(1, total + 1):
        net, haus = epsilon_net(full, n)
        selected = [full.labels.index(label) for label in net.labels]
        assert selected == sorted(set(selected)) and len(selected) == n
        assert np.array_equal(net.dist, full.dist[np.ix_(selected, selected)])
        assert haus == max(min(full.dist[x, y] for y in selected) for x in range(total))
        assert (haus == 0.0) == (n == total)


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


def _line_net_formula(extent: float, n: int, wrap: bool) -> tuple[np.ndarray, float]:
    # How circle and interval nets were built before every net became a grid
    # of one or more axes: (extent / n) times the integer index gaps.
    gaps = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    if wrap:
        gaps = np.minimum(gaps, n - gaps)
    return (extent / n) * gaps, extent / (2 * n)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 32, 36, 64])
def test_grid_nets_are_the_line_formula_bit_for_bit(n):
    labels = tuple(f"p{i}" for i in range(n))
    for extent in (TAU, 1.0, 0.1, 3.0, 7.5, 1e-3, 1e5):
        for generator, wrap in ((Circle(extent), True), (FlatTorus((extent,)), True), (Interval(extent), False)):
            net, haus = epsilon_net(generator, n)
            dist, bound = _line_net_formula(extent, n, wrap)
            assert net.dist.tobytes() == dist.tobytes() and haus == bound and net.labels == labels
        m = math.isqrt(n)
        if m * m == n:
            # A square torus net: row r is the grid point (r // m, r % m), and
            # its distance is the larger of the two wrapped axis distances.
            sizes = (extent, 2.0 * extent / 3.0)
            net, haus = epsilon_net(FlatTorus(sizes), n)
            axes = np.divmod(np.arange(n), m)
            lines = [_line_net_formula(c, m, True) for c in sizes]
            dist = np.maximum(*(d[np.ix_(a, a)] for (d, _), a in zip(lines, axes)))
            assert net.dist.tobytes() == dist.tobytes() and net.labels == labels
            assert haus == max(bound for _, bound in lines)


def test_point_cloud_net_full_and_partial():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(7, 2))
    cloud = FiniteMetricSpace.from_points(points)
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


@pytest.mark.parametrize("labels", [(1, 2), (True, None), ("a", 2.5), ("a", b"b")])
def test_labels_must_be_strings(labels):
    # Each was passed through str(), so (1, 2) became ("1", "2").
    with pytest.raises(ConfigError):
        FiniteMetricSpace(labels, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_space_from_dict_rejects_bad_payloads():
    with pytest.raises(ConfigError):
        space_from_dict({"labels": ["a"]})
    for labels in ("ab", None, {"a": 0}):
        with pytest.raises(ConfigError):
            space_from_dict({"labels": labels, "dist": [[0, 1], [1, 0]]})
    with pytest.raises(InputShapeError):
        space_from_dict({"points": 5})
    with pytest.raises(MetricAxiomError):
        space_from_dict({"dist": [[0, 1], [2, 0]]})
