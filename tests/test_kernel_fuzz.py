"""The certified kernels against their slow references, on hypothesis inputs.

Each element is scaled by 2^k, k in [-1000, 1000], with k kept where no
nonzero real or imaginary part of an entry is subnormal.  The inputs mix
random self-adjoint draws, zero and scalar elements, symmetric sums of
monomials (whose displacements tie exactly across many g), and length
tables nudged by an ulp, so that the top two ratios differ by one ulp.

The metric layer is fuzzed too: every generated net is a metric space at
its documented Hausdorff value, and the transport LP matches vertex
enumeration and is exactly symmetric in its two measures.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matprox import (
    ApproximationPair,
    Circle,
    FiniteMetricSpace,
    FlatTorus,
    FuzzyTorus,
    Interval,
    LengthFunction,
    action_lip_seminorms,
    epsilon_net,
    l_seminorms,
    mk_distance,
    operator_norms,
)
from matprox import fixed_point
from matprox.matrix_algebra import hermitian_part
from matprox.metric_core import random_cloud_space
from matprox.oracles import (
    _structured_lines,
    action_seminorm_by_conjugation,
    enumerate_lipschitz_vertices,
    mk_by_enumeration,
    unscreened_l_seminorms,
)

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# The smallest normal float is 2^-1022.
_NORMAL_EXPONENT = -1022
# Unit-scale coefficients; the scale comes from 2^k alone.
_COEFFICIENTS = st.floats(-4.0, 4.0).filter(lambda c: abs(c) >= 1 / 16)


def _clear_of_subnormals(stack: np.ndarray, k: int) -> int:
    """k, raised just enough that 2^k times every nonzero real and imaginary
    part of ``stack`` is a normal float."""
    parts = np.abs(stack.view(float))
    tiny = parts[parts > 0.0]
    if tiny.size == 0:
        return k
    return max(k, _NORMAL_EXPONENT + 1 - int(np.frexp(tiny.min())[1]))


def _scaled(stack: np.ndarray, k: int) -> np.ndarray:
    return np.ldexp(np.ascontiguousarray(stack).view(float), k).view(complex)


@st.composite
def _torus_elements(draw):
    """(torus, ell, a (count, q, q) self-adjoint stack at unit scale)."""
    q = draw(st.integers(2, 9))
    p = draw(st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1] or [1]))
    torus = FuzzyTorus(q, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["draws", "monomials", "scalar", "zero"]))
    count = draw(st.integers(1, 3))
    if kind == "draws":
        stack = hermitian_part(rng.normal(size=(count, q, q)) + 1j * rng.normal(size=(count, q, q)))
    elif kind == "monomials":
        terms = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1), _COEFFICIENTS,
                                        st.booleans()), min_size=1, max_size=4))
        stack = np.zeros((count, q, q), dtype=complex)
        for m, n, c, imaginary in terms:
            x = torus.monomial(m, n)
            line = 1j * (x - x.conj().T) if imaginary else x + x.conj().T
            stack += c * hermitian_part(line)
    elif kind == "scalar":
        stack = np.stack([draw(_COEFFICIENTS) * np.eye(q, dtype=complex)] * count)
    else:
        stack = np.zeros((count, q, q), dtype=complex)
    values = LengthFunction.max_arc(q).values.copy()
    if draw(st.booleans()):
        # Nudge the lengths of some g and -g together by one ulp: the ratios
        # they carry then differ from their ties by an ulp.
        for j, k in draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=6)):
            if (j, k) != (0, 0):
                nudged = np.nextafter(values[j, k], np.inf if (j + k) % 2 else 0.0)
                values[j, k] = values[-j % q, -k % q] = nudged
    return torus, LengthFunction(q, values), np.ascontiguousarray(stack)


@FUZZ
@given(_torus_elements(), st.integers(-1000, 1000))
def test_action_seminorms_are_the_brute_maximum_at_every_scale(case, k):
    torus, ell, stack = case
    k = _clear_of_subnormals(stack, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = action_lip_seminorms(torus, ell, stack)
        scaled = action_lip_seminorms(torus, ell, _scaled(stack, k))
    # The kernel scales each element by a power of two, exactly, so 2^k
    # moves its bits by exactly 2^k.
    assert np.array_equal(scaled, np.ldexp(unit, k))
    for a, value in zip(stack, unit):
        brute = action_seminorm_by_conjugation(torus, ell, a)
        size = np.abs(a).max() / ell.values.ravel()[1:].min()
        assert abs(value - brute) <= 1e-12 * (brute + size)


@st.composite
def _pairs_and_stacks(draw):
    """(pair, stack): a random cloud or circle net, beta up to delta, and
    self-adjoint elements whose off-diagonal part is scaled by 2^j, so that
    both sides of the Lipschitz screen occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    space = random_cloud_space(rng, n)
    pair = ApproximationPair(space, draw(st.floats(1e-3, 1.0)) * float(np.min(space.dist[space.dist > 0])))
    count = draw(st.integers(1, 6))
    stack = hermitian_part(rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n)))
    off_scale = np.ldexp(1.0, draw(st.integers(-30, 4)))
    diagonal = np.diagonal(stack, axis1=1, axis2=2).copy()
    stack = stack * off_scale
    idx = np.arange(n)
    stack[:, idx, idx] = diagonal
    if draw(st.booleans()):
        # An element at the screen's edge: the row sums of its off-diagonal
        # part c (J - I) equal its norm |c| (n - 1), and its diagonal puts its
        # Lipschitz term at that norm over beta, times 1 + t for a t of
        # either sign from 2^-50 to 2^-6.
        c = draw(_COEFFICIENTS)
        t = np.ldexp(draw(st.integers(-4, 4)), draw(st.integers(-50, -8)))
        f = np.zeros(n)
        f[0] = abs(c) * (n - 1) / pair.beta * np.min(space.dist[0, 1:]) * (1.0 + t)
        stack[0] = c * (np.ones((n, n)) - np.eye(n)) + np.diag(f)
    if draw(st.booleans()):
        stack[-1] = 0.0
    return pair, np.ascontiguousarray(stack)


@FUZZ
@given(_pairs_and_stacks(), st.integers(-1000, 1000))
def test_l_seminorms_are_their_unscreened_maximum_bit_for_bit(case, k):
    pair, stack = case
    if stack.any():
        # Kept where the deviations ||off a|| / beta stay finite.
        k = min(k, int(np.log2(1e300 * pair.beta / (pair.dim * np.abs(stack).max()))))
    stack = _scaled(stack, _clear_of_subnormals(stack, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = l_seminorms(pair, stack)
        want = unscreened_l_seminorms(pair, stack)
    assert np.array_equal(got, want)


@st.composite
def _square_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    count = draw(st.integers(1, 4))
    stack = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    kind = draw(st.sampled_from(["general", "self-adjoint", "zero"]))
    if kind == "self-adjoint":
        stack = hermitian_part(stack)
    elif kind == "zero":
        stack = np.zeros_like(stack)
    return stack


@FUZZ
@given(_square_stacks(), st.integers(-1000, 1000))
def test_operator_norms_agree_with_the_svd_at_every_scale(stack, k):
    stack = _scaled(stack, _clear_of_subnormals(stack, k))
    norms = operator_norms(stack)
    svd = np.array([np.linalg.svd(m, compute_uv=False)[0] for m in stack])
    assert np.all(np.abs(norms - svd) <= 1e-13 * svd)
    if not np.array_equal(stack, np.swapaxes(stack, -1, -2).conj()):
        assert np.array_equal(norms, svd)


@st.composite
def _exponent_sets(draw):
    q = draw(st.integers(2, 12))
    p = draw(st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1] or [1]))
    exponents = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                              min_size=1, max_size=12))
    return FuzzyTorus(q, p), np.array(exponents)


@FUZZ
@given(_exponent_sets())
def test_closed_form_lines_match_their_matrices(case):
    torus, exponents = case
    q = torus.q
    ell = LengthFunction.max_arc(q)
    # One exponent per pair {(m, n), (-m, -n)}, in the order of first
    # appearance, which is the order of the oracle's lines.
    keys = np.minimum(exponents @ [q, 1], ((-exponents) % q) @ [q, 1])
    _, first = np.unique(keys, return_index=True)
    reps = np.stack(np.divmod(keys[np.sort(first)], q), axis=1)
    norms, seminorms = fixed_point._line_norms(torus, ell, reps)
    keep = norms.ravel() > 1e-12
    lines = _structured_lines(torus, exponents)
    assert len(lines) == keep.sum()
    shortest = ell.values.ravel()[1:].min()
    for line, norm, seminorm in zip(lines, norms.ravel()[keep], seminorms.ravel()[keep]):
        assert norm == pytest.approx(np.linalg.norm(line, 2), rel=1e-13, abs=0.0)
        # The line of U^0 V^0 is a scalar, whose closed form is exactly 0.0
        # while the conjugations round; so the slack counts the line's size.
        brute = action_seminorm_by_conjugation(torus, ell, line)
        assert abs(seminorm - brute) <= 1e-12 * (brute + norm / shortest)


@st.composite
def _nets(draw):
    """(generator, n, documented Hausdorff value): circles and intervals of
    sizes 2^k times [1, 2) with up to 64 points, grid tori of one to three
    axes, and farthest-point nets of random clouds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def size():
        return float(np.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-30, 30))))

    kind = draw(st.sampled_from(["circle", "interval", "torus", "cloud"]))
    if kind in ("circle", "interval"):
        c, n = size(), draw(st.integers(1, 64))
        return (Circle(c) if kind == "circle" else Interval(c)), n, c / (2 * n)
    if kind == "torus":
        d = draw(st.integers(1, 3))
        sizes = tuple(size() for _ in range(d))
        m = draw(st.integers(1, {1: 64, 2: 8, 3: 4}[d]))
        return FlatTorus(sizes), m**d, max(c / (2 * m) for c in sizes)
    full = random_cloud_space(rng, draw(st.integers(1, 12)))
    n = draw(st.integers(1, full.n_points))
    net, _ = epsilon_net(full, n)
    selected = [full.labels.index(label) for label in net.labels]
    return full, n, float(np.max(np.min(full.dist[:, selected], axis=1)))


@FUZZ
@given(_nets())
def test_every_generated_net_is_a_metric_space_at_its_documented_hausdorff_value(case):
    generator, n, documented = case
    net, haus = epsilon_net(generator, n)
    assert haus == documented
    d = net.dist
    assert net.n_points == n == len(set(net.labels))
    assert np.array_equal(d, d.T) and not np.any(np.diag(d))
    assert np.all(d[~np.eye(n, dtype=bool)] > 0.0)
    # d(i, k) <= d(i, j) + d(j, k) for every j, up to the rounding of the sum.
    assert np.max(d[:, None, :] - (d[:, :, None] + d[None, :, :])) <= 1e-15 * np.max(d)


@st.composite
def _transport_cases(draw):
    """(space, measure pairs): a random cloud in R^3, or the shortest-path
    metric of a complete graph with integer weights 1 to 3 (many ties), on
    one to five points and scaled by 2^k, with measures that are random,
    Dirac or supported on a few points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        dist = random_cloud_space(rng, n).dist
    else:
        dist = rng.integers(1, 4, size=(n, n)).astype(float)
        dist = np.minimum(dist, dist.T)
        np.fill_diagonal(dist, 0.0)
        for via in range(n):
            dist = np.minimum(dist, dist[:, via, None] + dist[None, via, :])
    space = FiniteMetricSpace(tuple("abcde"[:n]), np.ldexp(dist, draw(st.integers(-4, 4))))

    def measure():
        kind = draw(st.sampled_from(["random", "dirac", "sparse"]))
        if kind == "dirac":
            return np.eye(n)[draw(st.integers(0, n - 1))]
        w = rng.uniform(0.1, 1.0, size=n)
        if kind == "sparse":
            w[rng.permutation(n)[: draw(st.integers(0, n - 1))]] = 0.0
        return w / w.sum()

    return space, [(measure(), measure()) for _ in range(draw(st.integers(1, 3)))]


@FUZZ
@given(_transport_cases())
def test_transport_is_the_enumeration_value_and_exactly_symmetric(case):
    # Vertex enumeration costs about 0.05 s at five points and 1.3 s at six,
    # so the spaces stop at five.
    space, pairs = case
    vertices = enumerate_lipschitz_vertices(space)
    for p, q in pairs:
        value = mk_distance(space, p, q)
        assert value == mk_distance(space, q, p)
        assert abs(value - mk_by_enumeration(space, p, q, vertices)) <= 1e-9 * max(np.max(space.dist), 1.0)
