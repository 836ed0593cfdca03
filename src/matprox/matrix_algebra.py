"""Full matrix algebras at desk scale.

Matrix elements are plain complex ``numpy`` arrays.  This module supplies
the C*-algebraic plumbing used everywhere else: operator norms (by
eigenvalues for stacks that are exactly self-adjoint, by SVD otherwise),
Jordan and Lie products, the normalized trace, and the trace-preserving
conditional expectation onto the diagonal (pinching).
"""

from __future__ import annotations

import numpy as np

from .errors import InputShapeError


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def _as_square(a: np.ndarray) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of one square matrix, by :func:`operator_norms`."""
    return float(operator_norms(_as_square(a)))


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
    s = np.asarray(stack, dtype=complex)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise InputShapeError(f"expected a stack of square matrices, got {s.shape}")
    if _bitwise_self_adjoint(s):
        return _eigenvalue_norms(s)
    return np.linalg.svd(s, compute_uv=False)[..., 0]


def _bitwise_self_adjoint(s: np.ndarray) -> bool:
    """Whether a (..., n, n) stack equals its conjugate transpose bit for bit
    (a signed zero equals its negation)."""
    return np.array_equal(s, np.swapaxes(s, -1, -2).conj())


def _eigenvalue_norms(s: np.ndarray) -> np.ndarray:
    """max(|lambda_min|, |lambda_max|) of each matrix of a self-adjoint stack."""
    w = np.linalg.eigvalsh(s)
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
    m = _as_square(a)
    return complex(np.trace(m)) / m.shape[0]


def pinch(a: np.ndarray) -> np.ndarray:
    """Zero all off-diagonal entries of a matrix or of each matrix in a
    (..., n, n) stack.

    This is the unique trace-preserving conditional expectation onto the
    diagonal subalgebra: it is idempotent, unital, positive, contractive and
    a bimodule map over diagonal matrices.
    """
    s = np.asarray(a, dtype=complex)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise InputShapeError(f"expected a square matrix or a stack of them, got shape {s.shape}")
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

