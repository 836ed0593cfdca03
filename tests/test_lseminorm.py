import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matprox import (
    ApproximationPair,
    FiniteMetricSpace,
    identity,
    l_seminorms,
    min_separation,
    operator_norm,
    operator_norms,
    random_hermitian,
    sample_unit_ball,
    trace_state,
    unit_leibniz_residuals,
)
from matprox import lseminorm, metric_core
from matprox.errors import (
    ConfigError,
    CorollaryModeViolation,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from matprox.matrix_algebra import jordan_lie, random_hermitian_stack
from matprox.metric_core import (
    TAU,
    Circle,
    FlatTorus,
    Interval,
    epsilon_net,
    lipschitz_seminorms,
    random_cloud_space,
)
from matprox.oracles import kernel_dimension, lip_ball_sup_norm_by_lp, unscreened_l_seminorms


def two_point_pair(beta: float = 1.0) -> ApproximationPair:
    space = FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return ApproximationPair(space, beta)


def cloud_pair(n: int, seed: int = 0, ratio: float = 1.0) -> ApproximationPair:
    rng = np.random.default_rng(seed)
    space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
    return ApproximationPair(
        space, ratio * min_separation(space), corollary_mode=ratio <= 1.0
    )


def l_seminorm(pair: ApproximationPair, a: np.ndarray) -> float:
    """The seminorm of one self-adjoint element, as the README tour takes it."""
    return float(l_seminorms(pair, np.asarray(a, dtype=complex)[None])[0])


def embed(f: np.ndarray) -> np.ndarray:
    """A function on the space as its diagonal matrix."""
    return np.diag(np.asarray(f).astype(complex))


def solved_residuals(pair: ApproximationPair, a: np.ndarray, b: np.ndarray):
    """D (||a|| L(b) + ||b|| L(a)) - L(product) for the Jordan and Lie
    products, with both norms solved: the residuals of any self-adjoint pair,
    drawn at norm one or not."""
    jordan, lie = jordan_lie(a, b)
    bound = pair.leibniz_constant * (
        operator_norms(a) * l_seminorms(pair, b) + operator_norms(b) * l_seminorms(pair, a)
    )
    return bound - l_seminorms(pair, jordan), bound - l_seminorms(pair, lie)


def radius_bound(pair: ApproximationPair) -> float:
    """Norm bound beta + B for the centered unit ball of the seminorm.

    B = max_i sum_j w_j d(i, j), with w the trace state pulled back to the
    space (uniform weights on a full matrix algebra), is the largest sup
    norm of a function f with Lipschitz seminorm at most one and
    sum_j w_j f_j = 0.  Proof: for such f, f_i = sum_j w_j (f_i - f_j) <=
    sum_j w_j d(i, j), and likewise for -f_i; the function
    f = c - d(i, .) with c = sum_j w_j d(i, j) is 1-Lipschitz, has zero
    mean and takes the value c at i.  Every self-adjoint a with L(a) <= 1
    and tau(a) = 0 then satisfies ||a|| <= ||a - E(a)|| + ||E(a)|| <= beta + B,
    since E(a) is the diagonal of such an f.
    """
    return pair.beta + float(np.max(pair.space.dist @ np.full(pair.dim, 1.0 / pair.dim)))


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def test_pair_requires_positive_beta():
    with pytest.raises(ConfigError):
        two_point_pair(beta=0.0)


def test_corollary_mode_rejects_large_beta():
    with pytest.raises(CorollaryModeViolation):
        two_point_pair(beta=1.5)
    pair = ApproximationPair(
        two_point_pair().space, 1.5, corollary_mode=False
    )
    assert pair.leibniz_constant == pytest.approx(2.5)


def test_leibniz_constant_is_two_in_corollary_mode():
    for n in (2, 5, 9):
        pair = cloud_pair(n)
        assert pair.leibniz_constant == 2.0


# ---------------------------------------------------------------------------
# Seminorm values.
# ---------------------------------------------------------------------------


def test_identity_is_in_the_kernel():
    pair = cloud_pair(5)
    assert l_seminorm(pair, identity(5)) == 0.0


def test_diagonal_elements_recover_lipschitz_exactly():
    rng = np.random.default_rng(20)
    for n in (2, 4, 8):
        pair = cloud_pair(n, seed=n)
        for _ in range(100):
            f = rng.uniform(-3, 3, size=n)
            assert l_seminorm(pair, embed(f)) == lipschitz_seminorms(pair.space, f[None])[0]


def test_offdiagonal_element_scaled_by_beta():
    beta = 0.5
    pair = two_point_pair(beta=beta)
    hollow = beta * np.array([[0, 1], [1, 0]], dtype=complex)
    assert l_seminorm(pair, hollow) == pytest.approx(1.0, abs=1e-15)


def test_homogeneity_exact_for_binary_scales():
    pair = cloud_pair(4, seed=3)
    rng = np.random.default_rng(21)
    a = random_hermitian(rng, 4)
    base = l_seminorm(pair, a)
    for scale in (2.0, -4.0, 0.5):
        assert l_seminorm(pair, scale * a) == abs(scale) * base
    assert l_seminorm(pair, 3.7 * a) == pytest.approx(3.7 * base, rel=1e-12)


def test_subadditivity_residual_nonnegative():
    pair = cloud_pair(5, seed=4)
    rng = np.random.default_rng(22)
    for _ in range(200):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        residual = l_seminorm(pair, a) + l_seminorm(pair, b) - l_seminorm(pair, a + b)
        assert residual >= -1e-12


def test_batch_seminorms_match_single_evaluations():
    pair = cloud_pair(6, seed=5)
    rng = np.random.default_rng(23)
    stack = np.stack([random_hermitian(rng, 6) for _ in range(40)])
    batched = l_seminorms(pair, stack)
    singles = [l_seminorm(pair, a) for a in stack]
    assert np.allclose(batched, singles, atol=1e-13)


# ---------------------------------------------------------------------------
# The Lipschitz screen in l_seminorms.
# ---------------------------------------------------------------------------


def _screened_counts(pair, stack, monkeypatch):
    """Assert l_seminorms equals the unscreened formula bit for bit; return
    how many elements it solved and how many it screened out."""
    seen = []

    def spy(s):
        assert len(s) > 0
        seen.append(len(s))
        return operator_norms(s)

    monkeypatch.setattr(lseminorm, "operator_norms", spy)
    assert np.array_equal(l_seminorms(pair, stack), unscreened_l_seminorms(pair, stack))
    assert len(seen) <= 1
    return sum(seen), len(stack) - sum(seen)


def test_screened_seminorms_equal_the_unscreened_formula_bitwise(monkeypatch):
    rng = np.random.default_rng(27)
    solved = screened = 0
    for n in [*range(2, 9), 64]:
        for ratio in (1e-3, 0.1, 1.0, 10.0, 1e3):
            pair = cloud_pair(n, seed=300 + n, ratio=ratio)
            a = random_hermitian_stack(rng, 20, n)
            b = random_hermitian_stack(rng, 20, n)
            for stack in (a, b, *jordan_lie(a, b)):
                done, skipped = _screened_counts(pair, stack, monkeypatch)
                solved, screened = solved + done, screened + skipped
    # Both branches fire.
    assert solved > 0 and screened > 0


@pytest.mark.parametrize("n", [2, 5, 64])
def test_screen_on_diagonal_scalar_and_zero_stacks(n, monkeypatch):
    pair = cloud_pair(n, seed=400 + n)
    rng = np.random.default_rng(28)
    diagonal = np.stack([embed(rng.uniform(-2, 2, size=n)) for _ in range(6)])
    scalar = np.stack([c * identity(n) for c in (0.0, 1.0, -3.5)])
    zero = np.zeros((4, n, n), dtype=complex)
    # Off-diagonal parts vanish: every nonconstant diagonal is screened out,
    # and the scalars (Lipschitz term 0) are solved, as zeros.
    assert _screened_counts(pair, diagonal, monkeypatch) == (0, 6)
    assert _screened_counts(pair, scalar, monkeypatch) == (3, 0)
    assert _screened_counts(pair, zero, monkeypatch) == (4, 0)
    assert np.all(l_seminorms(pair, zero) == 0.0)


@st.composite
def _screen_cases(draw):
    n = draw(st.integers(2, 8))
    count = draw(st.integers(1, 5))
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    re = draw(arrays(float, (count, n, n), elements=entries))
    im = draw(arrays(float, (count, n, n), elements=entries))
    g = (re + 1j * im) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    idx = np.arange(n)
    g[:, idx, idx] *= draw(st.sampled_from([0.0, 1.0, 1e3]))
    ratio = 10.0 ** draw(st.integers(-3, 3))
    return n, np.add(g, np.swapaxes(g, 1, 2).conj()) / 2.0, ratio


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_screen_cases())
def test_screen_is_exact_on_generated_stacks(case):
    n, stack, ratio = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _screened_counts(cloud_pair(n, seed=n, ratio=ratio), stack, monkeypatch)


def test_screen_overflow_reads_as_not_screened():
    # Random signs at n = 64: the row sums (63) are about four times the
    # norm, so at this beta the screen's bound overflows and the deviation
    # does not.  The CLI runs the seminorms with overflow raising.
    n = 64
    rng = np.random.default_rng(29)
    signs = np.triu(rng.choice([-1.0, 1.0], size=(n, n)), 1)
    stack = (signs + signs.T).astype(complex)[None]
    space = FiniteMetricSpace.from_points(np.arange(n, dtype=float)[:, None])
    pair = ApproximationPair(space, 2e-307)
    with np.errstate(over="raise"):
        values = l_seminorms(pair, stack)
    assert np.isfinite(values[0]) and 63.0 / pair.beta == np.inf
    assert np.array_equal(values, unscreened_l_seminorms(pair, stack))


# ---------------------------------------------------------------------------
# Quasi-Leibniz residuals.
# ---------------------------------------------------------------------------


def test_residuals_vanish_on_identity_pair():
    pair = cloud_pair(3, seed=6)
    jres, lres = unit_leibniz_residuals(pair, identity(3)[None], identity(3)[None])
    assert jres[0] == 0.0 and lres[0] == 0.0


def test_diagonal_pairs_satisfy_classical_leibniz_at_constant_one():
    pair = cloud_pair(5, seed=7)
    rng = np.random.default_rng(24)
    for _ in range(100):
        f = rng.uniform(-1, 1, size=5)
        g = rng.uniform(-1, 1, size=5)
        df, dg = embed(f), embed(g)
        classical = (
            operator_norm(df) * l_seminorm(pair, dg)
            + operator_norm(dg) * l_seminorm(pair, df)
            - l_seminorm(pair, embed(f * g))
        )
        assert classical >= -1e-12


@pytest.mark.parametrize("ratio,expected_d", [(1.0, 2.0), (3.0, 4.0)])
def test_random_residual_suite(ratio, expected_d):
    rng = np.random.default_rng(25)
    for n in range(2, 9):
        pair = cloud_pair(n, seed=100 + n, ratio=ratio)
        assert pair.leibniz_constant == pytest.approx(expected_d, abs=1e-12)
        for _ in range(60):
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            jres, lres = solved_residuals(pair, a[None], b[None])
            assert jres[0] >= -1e-9 and lres[0] >= -1e-9


@pytest.mark.parametrize("ratio", [1.0, 3.0])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_batched_residuals_equal_per_pair_residuals_exactly(n, ratio, monkeypatch):
    pair = cloud_pair(n, seed=200 + n, ratio=ratio)
    rng = np.random.default_rng(26)
    a = random_hermitian_stack(rng, 40, n)
    b = random_hermitian_stack(rng, 40, n)
    # Reference: the products formed as a@b and b@a separately.
    bound = pair.leibniz_constant * (
        operator_norms(a) * l_seminorms(pair, b) + operator_norms(b) * l_seminorms(pair, a)
    )
    jref = bound - l_seminorms(pair, (a @ b + b @ a) / 2.0)
    lref = bound - l_seminorms(pair, (a @ b - b @ a) / 2.0j)
    seen = []

    def spy(p, stack):
        seen.append(stack)
        return l_seminorms(p, stack)

    monkeypatch.setattr(lseminorm, "l_seminorms", spy)
    jres, lres = unit_leibniz_residuals(pair, a, b)
    # b, a, then the Jordan and Lie stacks: all bitwise self-adjoint.
    assert len(seen) == 4
    for stack in seen:
        assert np.array_equal(stack, np.swapaxes(stack, 1, 2).conj())
    np.testing.assert_allclose(jres, jref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(lres, lref, rtol=1e-12, atol=0.0)
    singles = [unit_leibniz_residuals(pair, x[None], y[None]) for x, y in zip(a, b)]
    assert jres.tolist() == [float(j[0]) for j, _ in singles]
    assert lres.tolist() == [float(l[0]) for _, l in singles]


def test_unit_residuals_agree_with_solved_norms_on_drawn_stacks():
    rng = np.random.default_rng(30)
    for n in (2, 5, 8, 64):
        for ratio in (0.01, 1.0, 3.0, 100.0):
            pair = cloud_pair(n, seed=500 + n, ratio=ratio)
            a = random_hermitian_stack(rng, 30, n)
            b = random_hermitian_stack(rng, 30, n)
            for unit, solved in zip(unit_leibniz_residuals(pair, a, b), solved_residuals(pair, a, b)):
                np.testing.assert_allclose(unit, solved, rtol=1e-13, atol=0.0)


def test_unit_residuals_of_a_zero_element_are_zero():
    pair = cloud_pair(4, seed=31)
    rng = np.random.default_rng(31)
    a = random_hermitian_stack(rng, 3, 4)
    b = random_hermitian_stack(rng, 3, 4)
    a[1] = 0.0
    b[2] = 0.0
    jres, lres = unit_leibniz_residuals(pair, a, b)
    assert jres[1] == lres[1] == jres[2] == lres[2] == 0.0
    assert jres[0] > 0.0 and lres[0] > 0.0


@pytest.mark.parametrize("ratio", [0.01, 1.0, 1e3])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_batched_unit_residuals_equal_per_pair_residuals_exactly(n, ratio):
    pair = cloud_pair(n, seed=600 + n, ratio=ratio)
    rng = np.random.default_rng(32)
    a = random_hermitian_stack(rng, 40, n)
    b = random_hermitian_stack(rng, 40, n)
    jres, lres = unit_leibniz_residuals(pair, a, b)
    singles = [unit_leibniz_residuals(pair, x[None], y[None]) for x, y in zip(a, b)]
    assert jres.tolist() == [float(j[0]) for j, _ in singles]
    assert lres.tolist() == [float(l[0]) for _, l in singles]


# ---------------------------------------------------------------------------
# Kernel.
# ---------------------------------------------------------------------------


def test_kernel_check_accepts_scalars_and_rejects_distance_function():
    pair = cloud_pair(4, seed=8)
    assert l_seminorm(pair, 3.0 * identity(4)) == 0.0
    f = pair.space.dist[0]
    assert l_seminorm(pair, embed(f)) > 0.0


def test_kernel_dimension_is_one():
    for n in (2, 3, 5, 8):
        assert kernel_dimension(cloud_pair(n, seed=9 + n)) == 1


# ---------------------------------------------------------------------------
# Unit-ball radius bound and sampling.
# ---------------------------------------------------------------------------


def test_radius_bound_two_points():
    pair = two_point_pair(beta=0.25)
    assert radius_bound(pair) == pytest.approx(0.25 + 0.5, abs=1e-9)


def test_radius_bound_dominated_by_diameter():
    for n in (3, 5, 8):
        pair = cloud_pair(n, seed=30 + n)
        bound = radius_bound(pair)
        assert bound - pair.beta <= np.max(pair.space.dist) + 1e-9


def test_circle_net_radius_bound_is_half_diameter_for_two_points():
    net, _ = epsilon_net(Circle(TAU), 2)
    pair = ApproximationPair(net, 0.1)
    assert radius_bound(pair) == pytest.approx(
        0.1 + np.max(net.dist) / 2, abs=1e-9
    )


def test_radius_bound_matches_the_lp_oracle():
    # The closed form against 2n LPs: for the uniform weights the bound uses,
    # and for random weights, for which its proof holds as well.
    rng = np.random.default_rng(31)
    spaces = [random_cloud_space(rng, n) for n in range(2, 20)]
    for generator, n in ((Circle(TAU), 12), (Interval(1.0), 9), (FlatTorus((1.0, 2.0)), 16)):
        spaces.append(epsilon_net(generator, n)[0])
    for space in spaces:
        n = space.n_points
        pair = ApproximationPair(space, min_separation(space))
        expected = pair.beta + lip_ball_sup_norm_by_lp(space, np.full(n, 1.0 / n))
        assert radius_bound(pair) == pytest.approx(expected, rel=1e-12, abs=0.0)
        weights = rng.uniform(0.1, 1.0, size=n)
        weights /= weights.sum()
        assert float(np.max(space.dist @ weights)) == pytest.approx(
            lip_ball_sup_norm_by_lp(space, weights), rel=1e-12, abs=0.0
        )


def test_samples_live_in_the_unit_ball_and_are_deterministic():
    pair = cloud_pair(5, seed=11)
    first = sample_unit_ball(pair, 50, seed=42)
    second = sample_unit_ball(pair, 50, seed=42)
    assert len(first) == 50
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    values = l_seminorms(pair, np.stack(first))
    assert np.max(values) <= 1.0 + 1e-12


def test_single_sample_and_count_validation():
    pair = cloud_pair(3, seed=12)
    assert len(sample_unit_ball(pair, 1, seed=0)) == 1
    with pytest.raises(ConfigError):
        sample_unit_ball(pair, 0, seed=0)


def test_centered_samples_respect_radius_bound():
    pair = cloud_pair(4, seed=13)
    bound = radius_bound(pair)
    for a in sample_unit_ball(pair, 200, seed=7):
        centered = a - trace_state(a) * identity(4)
        assert operator_norm(centered) <= bound + 1e-9


def test_extreme_sample_attains_seminorm_one():
    pair = two_point_pair(beta=0.5)
    f = pair.space.dist[0]
    hollow = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    extreme = embed(f) + hollow
    assert l_seminorm(pair, extreme) == pytest.approx(1.0, abs=1e-15)


def test_leibniz_suites_draw_each_ratio_then_each_size_from_one_generator(monkeypatch):
    suites = list(lseminorm.leibniz_suites(np.random.default_rng(5), [2, 4], [1.0, 3.0], 7))
    # 128 bytes hold two 2x2 elements and less than one 4x4: the residuals
    # then go in blocks of two pairs and of one, with the same bits.
    monkeypatch.setattr(metric_core, "BLOCK_BYTES", 128)
    blocked = list(lseminorm.leibniz_suites(np.random.default_rng(5), [2, 4], [1.0, 3.0], 7))
    for (_, _, jres, lres), (_, _, jblock, lblock) in zip(suites, blocked):
        assert jres.tobytes() == jblock.tobytes() and lres.tobytes() == lblock.tobytes()
    assert [(ratio, pair.dim) for ratio, pair, _, _ in suites] == [(1.0, 2), (1.0, 4), (3.0, 2), (3.0, 4)]
    rng = np.random.default_rng(5)
    for ratio, pair, jres, lres in suites:
        space = random_cloud_space(rng, pair.dim)
        assert np.array_equal(space.dist, pair.space.dist)
        assert pair.beta == ratio * min_separation(space)
        assert pair.corollary_mode == (ratio <= 1.0)
        a = random_hermitian_stack(rng, 7, pair.dim)
        b = random_hermitian_stack(rng, 7, pair.dim)
        expected = unit_leibniz_residuals(pair, a, b)
        assert jres.tobytes() == expected[0].tobytes() and lres.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("ratio,error", [(5e-324, ScaleUnderflowError), (1e308, ScaleOverflowError)])
def test_leibniz_suites_refuse_ratios_outside_the_float_range(ratio, error):
    with pytest.raises(error, match=re.escape(f"ratio {ratio!r} at size 3")):
        list(lseminorm.leibniz_suites(np.random.default_rng(0), [3], [ratio], 4))
