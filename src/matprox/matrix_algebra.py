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
    self-adjoint.  Every other stack, including one that is self-adjoint only
    up to rounding, takes the SVD.
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
    # The first rows against the first columns reject most stacks that are
    # not self-adjoint (the (E_H - E_K) u images of the fixed-point gaps)
    # before the full comparison.
    return np.array_equal(s[..., 0, :], s[..., :, 0].conj()) and np.array_equal(
        s, np.swapaxes(s, -1, -2).conj()
    )


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


def _gaussian_hermitian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # Row-major, so later flat reshapes of the stack need no copy.
    return np.add(g, np.swapaxes(g, -1, -2).conj(), order="C") / 2.0


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

