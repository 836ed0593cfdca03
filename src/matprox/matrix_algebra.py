"""Full matrix algebras at desk scale.

Matrix elements are plain complex ``numpy`` arrays.  This module supplies
the C*-algebraic plumbing used everywhere else: operator norms (by
eigenvalues for stacks that are exactly self-adjoint, by SVD otherwise),
Jordan and Lie products, the normalized trace, and the trace-preserving
conditional expectation onto the diagonal (pinching).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import InputShapeError


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def matrix_stack(a: np.ndarray, order: int | None = None, axes: int | None = None) -> np.ndarray:
    """``a`` as a complex (..., n, n) stack of square matrices, with n equal
    to ``order`` and exactly ``axes`` axes where they are given, else an
    ``InputShapeError`` naming the expected and the actual shape."""
    s = np.asarray(a, dtype=complex)
    square = s.shape[-1:] * 2 if order is None else (order, order)
    if s.ndim < 2 or s.shape[-2:] != square or axes not in (None, s.ndim):
        lead = "..., " if axes is None else "count, " * (axes - 2)
        size = "n" if order is None else order
        raise InputShapeError(f"expected shape ({lead}{size}, {size}), got {s.shape}")
    return s


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of one square matrix, by :func:`operator_norms`."""
    return float(operator_norms(matrix_stack(a, axes=2)))


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., n, n) stack.

    A stack that is bitwise equal to its conjugate transpose is self-adjoint,
    so its norms are max(-lambda_min, lambda_max) from ``eigvalsh``, which is
    cheaper than the SVD and agrees with it to rounding.  The self-adjoint
    stacks of this package are built so bitwise: ``jordan_lie`` takes ba as
    (ab)^*, and the fuzzy torus's conjugate-symmetric character table makes
    each action difference a - alpha^g(a) of a bitwise self-adjoint a bitwise
    self-adjoint, and the fixed-point gaps take the :func:`hermitian_part` of
    their (E_H - E_K) u images.  Every other stack, including one that is
    self-adjoint only up to rounding, takes the SVD.
    """
    s = matrix_stack(stack)
    if _bitwise_self_adjoint(s):
        return _eigenvalue_norms(s)
    return np.linalg.svd(s, compute_uv=False)[..., 0]


def _bitwise_self_adjoint(s: np.ndarray) -> bool:
    """Whether a (..., n, n) stack equals its conjugate transpose bit for bit
    (a signed zero equals its negation)."""
    return np.array_equal(s, np.swapaxes(s, -1, -2).conj())


def _eigenvalues_did_not_converge(err: str, flag: int) -> None:
    raise LinAlgError("Eigenvalues did not converge")


def _eigenvalue_norms(s: np.ndarray) -> np.ndarray:
    """max(|lambda_min|, |lambda_max|) of each matrix of a self-adjoint stack.

    Runs the gufunc that ``np.linalg.eigvalsh`` runs on a complex128 stack,
    under the error state it sets, without its argument checks: every caller
    passes a complex128 square stack (``matrix_stack``'s, or the reach
    descent's working matrix), which they would pass unchanged.  LAPACK
    non-convergence still raises ``LinAlgError``, and a caller's own error
    state does not reach inside LAPACK.  On a 2-vCPU Xeon a 32x32 matrix
    takes 59 us here and 61 us through ``eigvalsh``, of which LAPACK is
    56 us; the reach descent makes about 1,700 such calls per job.
    """
    with np.errstate(call=_eigenvalues_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        w = _umath_linalg.eigvalsh_lo(s, signature="D->d")
    # abs keeps the norm of a zero matrix +0.0 whatever sign LAPACK gives.
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def jordan_lie(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jordan and Lie products of two self-adjoint (..., n, n) stacks paired
    by index, from one matrix product: ba = (ab)^* for self-adjoint a and b.
    Taking ba so makes both products bitwise self-adjoint, so their norms
    take the eigenvalue path of :func:`operator_norms`."""
    ab = a @ b
    ba = np.swapaxes(ab, -1, -2).conj()
    return (ab + ba) / 2.0, (ab - ba) / 2.0j


def trace_state(a: np.ndarray) -> complex:
    """The normalized trace, i.e. the unique tracial state of the algebra."""
    m = matrix_stack(a, axes=2)
    return complex(np.trace(m)) / m.shape[0]


def pinch(a: np.ndarray) -> np.ndarray:
    """Zero all off-diagonal entries of a matrix or of each matrix in a
    (..., n, n) stack.

    This is the unique trace-preserving conditional expectation onto the
    diagonal subalgebra: it is idempotent, unital, positive, contractive and
    a bimodule map over diagonal matrices.
    """
    s = matrix_stack(a)
    out = np.zeros_like(s)
    rows = np.arange(s.shape[-1])
    out[..., rows, rows] = s[..., rows, rows]
    return out


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x^*) / 2 of each matrix of a (..., n, n) stack, row-major, so flat
    reshapes of it need no copy.  It is bitwise self-adjoint, as IEEE
    addition commutes, so its norms take ``eigvalsh``, which gives a stack
    and its negation the same norms bit for bit: swapping H and K swaps the
    fixed-point directions exactly."""
    out = np.conjugate(np.swapaxes(x, -1, -2), order="C")
    out += x
    out /= 2.0
    return out


def hermitian_from_parts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """hermitian_part(x + 1j * y) for two real stacks x and y of one shape.

    The complex stack is assembled bit for bit as numpy's x + 1j * y, without
    its complex multiply: (0 + 1i)(y + 0i) = (0 y - 1 0) + (0 0 + 1 y) i, so
    for every finite x and y, signed zeros included, the real part is
    x + 0 y and the imaginary part y + 0."""
    z = np.empty(x.shape, dtype=complex)
    real, imag = z.real, z.imag
    np.multiply(y, 0.0, out=real)
    real += x
    np.add(y, 0.0, out=imag)
    return hermitian_part(z)


def _gaussian_hermitian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """:func:`hermitian_from_parts` of x, y, two consecutive normal draws of
    ``shape``, taken as one draw of shape (2, *shape), the same stream."""
    x, y = rng.normal(size=(2, *shape))
    return hermitian_from_parts(x, y)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random self-adjoint matrix with independent Gaussian entries."""
    return _gaussian_hermitian(rng, (n, n))


def random_hermitian_stack(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """A (count, n, n) stack of random self-adjoint matrices of operator norm
    one (the zero matrix, drawn with probability zero, stays zero)."""
    stack = _gaussian_hermitian(rng, (count, n, n))
    norms = operator_norms(stack)
    norms[norms == 0.0] = 1.0
    return stack / norms[:, None, None]

