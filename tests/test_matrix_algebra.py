import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matprox import (
    ApproximationPair,
    FuzzyTorus,
    LengthFunction,
    action_lip_seminorms,
    identity,
    l_seminorms,
    min_separation,
    operator_norm,
    operator_norms,
    pinch,
    random_hermitian,
    trace_state,
)
from matprox.errors import InputShapeError
from matprox.matrix_algebra import _eigenvalue_norms, _gaussian_hermitian, hermitian_part, jordan_lie, random_hermitian_stack
from matprox.metric_core import random_cloud_space
from matprox.oracles import power_iteration_norm

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# Operator norm.
# ---------------------------------------------------------------------------


def test_norm_of_identity():
    for n in (1, 2, 7):
        assert operator_norm(identity(n)) == 1.0


def test_norm_of_diagonal_matrix():
    f = np.array([0.5, -3.0, 2.0])
    assert operator_norm(np.diag(f).astype(complex)) == 3.0


def test_norm_matches_power_iteration_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert operator_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-9)


def test_norm_submultiplicative_and_cstar_identity():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9
        assert operator_norm(a.conj().T @ a) == pytest.approx(
            operator_norm(a) ** 2, rel=1e-9
        )


def _assert_single_norm(m: np.ndarray) -> None:
    """operator_norm(m) is operator_norms(m[None])[0] bit for bit, and
    np.linalg.norm(m, 2) within rounding (bit for bit when m is not bitwise
    self-adjoint, since both then take the same gesdd call)."""
    value = operator_norm(m)
    assert type(value) is float
    assert np.float64(value).tobytes() == operator_norms(m[None])[0].tobytes()
    expected = float(np.linalg.norm(m, 2))
    assert value == pytest.approx(expected, rel=1e-13, abs=0.0)
    if not np.array_equal(m, m.conj().T):
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()


def test_single_norm_matches_numpy_norm_on_fixed_cases():
    zero = operator_norm(np.zeros((5, 5), dtype=complex))
    assert zero == 0.0 and not np.signbit(zero)
    _assert_single_norm(np.zeros((5, 5), dtype=complex))
    _assert_single_norm(-2.5 * identity(4))
    _assert_single_norm(np.diag([1.0, -3.0, 2.0]).astype(complex))
    rng = np.random.default_rng(20)
    u = rng.normal(size=6) + 1j * rng.normal(size=6)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    _assert_single_norm(np.outer(u, v.conj()))
    _assert_single_norm(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    _assert_single_norm(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    _assert_single_norm(random_hermitian(rng, 32))


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 16))
    entries = st.floats(-1e6, 1e6, allow_subnormal=False)
    re = draw(arrays(float, (n, n), elements=entries))
    im = draw(arrays(float, (n, n), elements=entries))
    return re + 1j * im


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_square_matrices())
def test_single_norm_matches_numpy_norm(m):
    _assert_single_norm(m)


def test_single_norm_rejects_non_square_input():
    for shape in [(2, 3), (4,), (2, 2, 2)]:
        with pytest.raises(InputShapeError):
            operator_norm(np.ones(shape, dtype=complex))


def _stack_entries() -> dict:
    """Every entry point whose matrix stack ``matrix_algebra.matrix_stack``
    checks, at order 4 where the order is fixed."""
    torus = FuzzyTorus(4, 1)
    space = random_cloud_space(np.random.default_rng(0), 4)
    pair = ApproximationPair(space, min_separation(space))
    return {
        "operator_norm": operator_norm,
        "trace_state": trace_state,
        "operator_norms": operator_norms,
        "pinch": pinch,
        "to_coefficients": torus.to_coefficients,
        "from_coefficients": torus.from_coefficients,
        "dual_action": lambda a: torus.dual_action((1, 1), a),
        "action_lip_seminorms": lambda a: action_lip_seminorms(torus, LengthFunction.max_arc(4), a),
        "l_seminorms": lambda a: l_seminorms(pair, a),
    }


# (entry, a shape it takes, whether its order is fixed, the axis counts it
# takes or None for any from 2 up).
_STACK_SHAPES = [
    ("operator_norm", (4, 4), False, {2}),
    ("trace_state", (4, 4), False, {2}),
    ("operator_norms", (2, 4, 4), False, None),
    ("pinch", (2, 4, 4), False, None),
    ("to_coefficients", (2, 4, 4), True, None),
    ("from_coefficients", (2, 4, 4), True, None),
    ("dual_action", (2, 4, 4), True, {2, 3}),
    ("action_lip_seminorms", (2, 4, 4), True, {3}),
    ("l_seminorms", (2, 4, 4), True, {3}),
]
_BAD_STACKS = [
    (entry, case, bad)
    for entry, good, fixed_order, axes in _STACK_SHAPES
    for case, bad in [
        ("non-square", good[:-1] + (5,)),
        ("too few axes", (4,)),
        *([("missing axis", good[1:])] if axes and len(good) - 1 not in axes | {1} else []),
        *([("wrong order", good[:-2] + (3, 3))] if fixed_order else []),
        *([("extra axis", (2,) + good)] if axes else []),
    ]
]


@pytest.mark.parametrize("entry,case,shape", _BAD_STACKS, ids=[f"{e}-{c}" for e, c, _ in _BAD_STACKS])
def test_every_stack_entry_refuses_a_wrong_shape_naming_it(entry, case, shape):
    run = _stack_entries()[entry]
    good = next(g for e, g, _, _ in _STACK_SHAPES if e == entry)
    run(np.zeros(good))
    with pytest.raises(InputShapeError, match=r"expected shape \(.*\), got " + re.escape(str(shape))):
        run(np.zeros(shape))


def test_operator_norms_batches_match_single_calls():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(10, 4, 4)) + 1j * rng.normal(size=(10, 4, 4))
    batched = operator_norms(stack)
    singles = [operator_norm(m) for m in stack]
    assert np.allclose(batched, singles, atol=1e-12)


def _hermitian(g: np.ndarray) -> np.ndarray:
    """(g + g^*)/2, which is bitwise equal to its conjugate transpose."""
    h = (g + np.swapaxes(g, -1, -2).conj()) / 2.0
    assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())
    return h


def _assert_eigenvalue_norms(stack: np.ndarray) -> None:
    """operator_norms of a bitwise self-adjoint stack is max |eigenvalue|
    and matches the per-matrix SVD within 1e-13 relative."""
    norms = operator_norms(stack)
    w = np.linalg.eigvalsh(stack)
    assert np.array_equal(norms, np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])))
    svd = np.array([np.linalg.svd(m, compute_uv=False)[0] for m in stack])
    assert np.all(np.abs(norms - svd) <= 1e-13 * svd)


@st.composite
def _hermitian_stacks(draw):
    n = draw(st.integers(1, 16))
    count = draw(st.integers(1, 4))
    entries = st.floats(-1e6, 1e6, allow_subnormal=False)
    re = draw(arrays(float, (count, n, n), elements=entries))
    im = draw(arrays(float, (count, n, n), elements=entries))
    return _hermitian(re + 1j * im)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_hermitian_stacks())
def test_self_adjoint_stacks_take_eigenvalue_norms(stack):
    _assert_eigenvalue_norms(stack)


def test_eigenvalue_norms_on_fixed_cases():
    zeros = operator_norms(np.zeros((3, 5, 5), dtype=complex))
    assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
    _assert_eigenvalue_norms(np.zeros((3, 5, 5), dtype=complex))
    _assert_eigenvalue_norms(-2.5 * identity(4)[None])
    negative = np.diag([1.0, -3.0, 2.0]).astype(complex)
    assert operator_norms(negative[None])[0] == 3.0
    _assert_eigenvalue_norms(negative[None])
    rng = np.random.default_rng(18)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    _assert_eigenvalue_norms(_hermitian(-np.outer(v, v.conj()))[None])
    _assert_eigenvalue_norms(random_hermitian(rng, 64)[None])


def _stack_with(entries: dict) -> np.ndarray:
    """The 4x4 identity as a one-matrix stack, with entries (i, j): z set
    and (j, i) set to conj(z), so a finite z keeps it self-adjoint."""
    s = identity(4)[None].copy()
    for (i, j), z in entries.items():
        s[0, i, j], s[0, j, i] = z, np.conj(z)
    return s


@pytest.mark.parametrize(
    "stack",
    [
        # np.linalg.eigvalsh returns NaN for these without raising (OpenBLAS
        # LAPACK), or garbage with no NaN for a NaN on the first diagonal.
        _stack_with({(0, 1): np.nan}),
        _stack_with({(1, 2): np.nan}),
        _stack_with({(0, 0): np.nan}),
        _stack_with({(0, 0): np.inf}),
        _stack_with({(0, 0): -np.inf}),
        # And it raises LinAlgError for these.
        _stack_with({(1, 1): np.nan}),
        _stack_with({(0, 3): np.nan}),
        _stack_with({(1, 0): np.inf}),
        _stack_with({(2, 1): complex(1.0, np.nan)}),
        np.full((2, 3, 3), np.nan, dtype=complex),
        # A finite stack, for the error state below.
        random_hermitian_stack(np.random.default_rng(20), 3, 5),
    ],
    ids=["nan-01", "nan-12", "nan-00", "inf-00", "-inf-00", "nan-11", "nan-03", "inf-10",
         "nanj-21", "all-nan", "finite"],
)
@pytest.mark.parametrize("raising", [False, True], ids=["default", "errstate-raise"])
def test_eigenvalue_norms_fail_as_eigvalsh_does(stack, raising):
    # The norms call numpy's eigvalsh gufunc directly, under eigvalsh's own
    # error state, so on non-finite entries they raise LinAlgError where
    # eigvalsh does and return the same values, NaN included, where it
    # returns; a caller's error state that raises (as the leibniz suites set)
    # reaches inside neither.
    errstate = np.errstate(over="raise", invalid="raise") if raising else np.errstate()
    with errstate:
        try:
            w = np.linalg.eigvalsh(stack)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                _eigenvalue_norms(stack)
            return
        expected = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
        assert np.array_equal(_eigenvalue_norms(stack), expected, equal_nan=True)


def test_one_ulp_off_self_adjoint_takes_the_svd():
    rng = np.random.default_rng(19)
    g = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    # Inside the matrix, in the first row, and the imaginary part of a diagonal.
    for index, part in [((2, 1, 4), "real"), ((0, 0, 3), "real"), ((1, 2, 2), "imag")]:
        stack = _hermitian(g)
        z = stack[index]
        if part == "real":
            stack[index] = complex(np.nextafter(z.real, np.inf), z.imag)
        else:
            stack[index] = complex(z.real, np.nextafter(z.imag, np.inf))
        svd = np.linalg.svd(stack, compute_uv=False)[..., 0]
        assert np.array_equal(operator_norms(stack), svd)


@pytest.mark.parametrize("shape", [(500, 8, 8), (1000, 9, 9), (120, 64, 64)])
def test_hermitian_draws_are_row_major(shape):
    # numpy laid these shapes out column-major in their last two axes, so
    # every flat reshape of a draw copied.
    stack = _gaussian_hermitian(np.random.default_rng(7), shape)
    rng = np.random.default_rng(7)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert stack.flags.c_contiguous
    assert np.array_equal(stack, (g + np.swapaxes(g, -1, -2).conj()) / 2.0)
    assert random_hermitian_stack(np.random.default_rng(7), *shape[:2]).flags.c_contiguous


def _two_draw_stack(rng, count, n):
    """random_hermitian_stack as two draws and numpy's x + 1j * y."""
    shape = (count, n, n)
    stack = hermitian_part(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    norms = operator_norms(stack)
    norms[norms == 0.0] = 1.0
    return stack / norms[:, None, None]


@pytest.mark.parametrize("seed", [0, 7, 2602])
@pytest.mark.parametrize("count, n", [(1, 1), (250, 2), (250, 5), (250, 8), (40, 33), (3, 64)])
def test_random_hermitian_stack_is_the_two_draw_formula_bit_for_bit(seed, count, n):
    got = random_hermitian_stack(np.random.default_rng(seed), count, n)
    expected = _two_draw_stack(np.random.default_rng(seed), count, n)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class _FixedDraws:
    """A stand-in generator whose normal draw is a given array."""

    def __init__(self, draws):
        self.draws = draws

    def normal(self, size):
        assert size == self.draws.shape
        return self.draws.copy()


def test_hermitian_draws_assemble_x_plus_1j_y_bit_for_bit_on_every_sign_of_zero():
    # Every ordered pair of these values, as (x, y) entries of one draw.
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 0.3, -7.5, 1e16, -1e300, 1e300]
    x, y = (np.array(v).reshape(-1, 12, 12) for v in zip(*((a, b) for a in values for b in values)))
    got = _gaussian_hermitian(_FixedDraws(np.stack([x, y])), x.shape)
    expected = hermitian_part(x + 1j * y)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("shape", [(5, 5), (7, 12, 12), (3, 64, 64)])
def test_hermitian_part_is_the_np_add_form_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # Signed zeros in both parts, and entries whose sum with their mirror
    # is an exact zero of either sign.
    x.real[rng.random(shape) < 0.1] = -0.0
    x.imag[rng.random(shape) < 0.1] = 0.0
    x.imag[rng.random(shape) < 0.1] = -0.0
    x[..., 0, 1] = np.conj(-x[..., 1, 0])
    for source in (x, np.swapaxes(x, -1, -2)):  # row-major and column-major input
        h = hermitian_part(source)
        reference = np.add(source, np.swapaxes(source, -1, -2).conj(), order="C") / 2.0
        assert h.flags.c_contiguous and h.shape == shape
        assert np.array_equal(h.view(np.uint64), reference.view(np.uint64))
        # Bitwise self-adjoint (a signed zero equals its negation), so the
        # norms take the eigenvalue path.
        assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())
        assert np.array_equal(operator_norms(h.reshape((-1,) + shape[-2:])),
                              np.abs(np.linalg.eigvalsh(h.reshape((-1,) + shape[-2:]))).max(axis=-1))
    # Idempotent, up to the sign of a zero (-0 + 0 is +0).
    assert np.array_equal(hermitian_part(h), h)


# ---------------------------------------------------------------------------
# Jordan and Lie products.
# ---------------------------------------------------------------------------


def test_jordan_with_identity_is_identity_map():
    rng = np.random.default_rng(8)
    a = random_hermitian(rng, 4)
    jordan, _ = jordan_lie(identity(4), a)
    assert np.allclose(jordan, a, atol=1e-14)


def test_lie_of_commuting_diagonals_vanishes():
    a = np.diag(np.array([1.0, 2.0, 3.0])).astype(complex)
    b = np.diag(np.array([-1.0, 0.5, 4.0])).astype(complex)
    _, lie = jordan_lie(a, b)
    assert np.max(np.abs(lie)) == 0.0


def test_pauli_products():
    jordan, lie = jordan_lie(PAULI_X, PAULI_Y)
    assert np.max(np.abs(jordan)) == 0.0
    assert np.allclose(lie, PAULI_Z, atol=1e-15)


def test_products_preserve_self_adjointness():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        # The general forms are self-adjoint to rounding; the one-product
        # form is bitwise self-adjoint and agrees with them to rounding.
        general = ((a @ b + b @ a) / 2.0, (a @ b - b @ a) / 2.0j)
        for fast, slow in zip(jordan_lie(a, b), general):
            assert np.max(np.abs(slow - slow.conj().T)) <= 1e-12
            assert np.array_equal(fast, fast.conj().T)
            assert np.max(np.abs(fast - slow)) <= 1e-12


# ---------------------------------------------------------------------------
# Trace state.
# ---------------------------------------------------------------------------


def test_trace_state_normalization_and_diagonal():
    assert trace_state(identity(5)) == 1.0
    f = np.array([1.0, 2.0, 6.0])
    assert trace_state(np.diag(f).astype(complex)) == pytest.approx(3.0)


def test_trace_state_is_tracial_and_positive():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(trace_state(a @ b) - trace_state(b @ a)) <= 1e-12
        assert trace_state(a.conj().T @ a).real >= 0.0


# ---------------------------------------------------------------------------
# Pinching.
# ---------------------------------------------------------------------------


def test_pinch_fixes_diagonals_and_kills_offdiagonal():
    d = np.diag(np.array([1.0, 2.0, 3.0])).astype(complex)
    assert np.array_equal(pinch(d), d)
    hollow = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.max(np.abs(pinch(hollow))) == 0.0


def test_pinch_of_a_stack_pinches_each_matrix():
    rng = np.random.default_rng(12)
    stack = random_hermitian_stack(rng, 5, 4)
    pinched = pinch(stack)
    assert pinched.shape == stack.shape
    for a, e in zip(stack, pinched):
        assert np.array_equal(e, pinch(a))
    with pytest.raises(InputShapeError):
        pinch(np.zeros((2, 3, 4)))


def test_pinch_axioms_on_random_matrices():
    rng = np.random.default_rng(13)
    for n in range(2, 17):
        for a in (random_hermitian(rng, n) for _ in range(60)):
            e = pinch(a)
            assert np.array_equal(pinch(e), e)
            assert abs(trace_state(e) - trace_state(a)) <= 1e-12
            assert operator_norm(e) <= operator_norm(a) + 1e-12


def test_pinch_contractivity_thousand_samples_per_dimension():
    rng = np.random.default_rng(17)
    for n in range(2, 17):
        g = rng.normal(size=(1000, n, n)) + 1j * rng.normal(size=(1000, n, n))
        stack = (g + g.conj().transpose(0, 2, 1)) / 2.0
        diag_norms = np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2)), axis=1)
        assert np.max(diag_norms - operator_norms(stack)) <= 1e-12


def test_pinch_positivity_on_psd_inputs():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psd = g @ g.conj().T
        assert np.min(np.diag(pinch(psd)).real) >= -1e-12


def test_pinch_bimodule_over_diagonals():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        f = np.diag(rng.uniform(-1, 1, size=n)).astype(complex)
        g = np.diag(rng.uniform(-1, 1, size=n)).astype(complex)
        assert np.max(np.abs(pinch(f @ a @ g) - f @ pinch(a) @ g)) <= 1e-12


def _diagonal_expectation_from_constraints(n: int) -> tuple[np.ndarray, int]:
    """Solve for a linear map onto the diagonal that is a bimodule projection
    over diagonal matrix units and preserves the trace.

    Unknown v[i, j, r] is the r-th diagonal entry of the image of the matrix
    unit e_ij.  Returns the solution and the rank of the constraint system.
    """
    dim = n**3

    def col(i: int, j: int, r: int) -> int:
        return (i * n + j) * n + r

    rows = []
    rhs = []
    for k in range(n):
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for r in range(n):
                        row = np.zeros(dim)
                        if k == i and l == j:
                            row[col(i, j, r)] += 1.0
                        if k == l and r == k:
                            row[col(i, j, k)] -= 1.0
                        if np.any(row):
                            rows.append(row)
                            rhs.append(0.0)
    for i in range(n):
        for j in range(n):
            row = np.zeros(dim)
            for r in range(n):
                row[col(i, j, r)] = 1.0
            rows.append(row)
            rhs.append(1.0 if i == j else 0.0)
    a = np.asarray(rows)
    b = np.asarray(rhs)
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return solution.reshape(n, n, n), int(rank)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pinch_is_the_unique_trace_preserving_expectation(n):
    solution, rank = _diagonal_expectation_from_constraints(n)
    assert rank == n**3  # the constraints pin the map completely
    expected = np.zeros((n, n, n))
    for i in range(n):
        expected[i, i, i] = 1.0
    assert np.allclose(solution, expected, atol=1e-10)
