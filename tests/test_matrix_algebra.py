import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matprox import (
    DiagonalEmbedding,
    FiniteMetricSpace,
    identity,
    operator_norm,
    operator_norms,
    pinch,
    random_hermitian,
    trace_state,
)
from matprox.errors import InputShapeError
from matprox.matrix_algebra import _gaussian_hermitian, jordan_lie, random_hermitian_stack
from matprox.oracles import power_iteration_norm

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def euclidean_space(n: int, seed: int = 0) -> FiniteMetricSpace:
    rng = np.random.default_rng(seed)
    return FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))


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
# Diagonal embedding.
# ---------------------------------------------------------------------------


def test_embed_constant_one_is_identity():
    rho = DiagonalEmbedding(euclidean_space(4))
    assert np.array_equal(rho.embed(np.ones(4)), identity(4))


def test_embed_extract_round_trip_exact():
    rho = DiagonalEmbedding(euclidean_space(5))
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.uniform(-2, 2, size=5)
        assert np.array_equal(np.diagonal(rho.embed(f)).real, f)


def test_embedding_is_multiplicative_unital_adjoint_preserving():
    rho = DiagonalEmbedding(euclidean_space(6))
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = rng.uniform(-1, 1, size=6) + 1j * rng.uniform(-1, 1, size=6)
        g = rng.uniform(-1, 1, size=6) + 1j * rng.uniform(-1, 1, size=6)
        assert np.max(np.abs(rho.embed(f) @ rho.embed(g) - rho.embed(f * g))) <= 1e-12
        assert np.max(np.abs(rho.embed(f).conj().T - rho.embed(f.conj()))) == 0.0


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
