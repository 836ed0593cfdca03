"""The metric seminorm on a full matrix algebra over a finite-space diagonal.

Given an n-point metric space Y embedded as the diagonal of the n x n
matrices, a tolerance beta > 0 and the pinching expectation E, the seminorm
evaluated here is

    L(a) = max( ||a - E(a)|| / beta,  Lip(diagonal part of a) )

where Lip is the Lipschitz seminorm of Y.  Its kernel is the scalar
multiples of the identity, its unit ball is norm-bounded after centering,
and it satisfies a Leibniz-type inequality for the Jordan and Lie products
with constant D = max(2, 1 + beta/delta), delta being the minimum
separation of Y.  This module certifies those properties numerically and
samples the unit ball exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CorollaryModeViolation,
    InputShapeError,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from .matrix_algebra import (
    DiagonalEmbedding,
    jordan_lie,
    operator_norm,
    operator_norms,
    random_hermitian,
    random_hermitian_stack,
    require_self_adjoint,
    trace_state,
)
from .metric_core import (
    FiniteMetricSpace,
    diameter,
    lipschitz_seminorm,
    lipschitz_seminorms,
    min_separation,
    random_cloud_space,
)


@dataclass(frozen=True)
class ApproximationPair:
    """A matrix algebra tied to a finite metric space diagonal.

    Bundles the space Y, the diagonal embedding, the tolerance beta, the
    cached minimum separation delta and the Leibniz constant
    D = max(2, 1 + beta/delta).  When ``corollary_mode`` is set the
    construction insists on beta/delta <= 1, the regime in which D = 2;
    larger beta is still meaningful but must be requested explicitly by
    turning the flag off.
    """

    space: FiniteMetricSpace
    beta: float
    corollary_mode: bool = True
    rho: DiagonalEmbedding = field(init=False)
    delta: float = field(init=False)
    leibniz_constant: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ConfigError("beta must be positive")
        delta = min_separation(self.space)
        if self.corollary_mode and self.beta > delta * (1.0 + 1e-12):
            raise CorollaryModeViolation(
                f"beta={self.beta:.6g} exceeds the minimum separation "
                f"{delta:.6g}; construct with corollary_mode=False to allow it"
            )
        object.__setattr__(self, "rho", DiagonalEmbedding(self.space))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(
            self, "leibniz_constant", max(2.0, 1.0 + self.beta / delta)
        )

    @property
    def dim(self) -> int:
        return self.space.n_points


def _check_dim(pair: ApproximationPair, a: np.ndarray) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.shape != (pair.dim, pair.dim):
        raise InputShapeError(
            f"element has shape {m.shape}, pair expects ({pair.dim}, {pair.dim})"
        )
    return m


def l_seminorm(pair: ApproximationPair, a: np.ndarray) -> float:
    """Evaluate the seminorm max(||a - E(a)||/beta, Lip(diagonal part)) of one
    self-adjoint element; non-self-adjoint input raises."""
    return float(l_seminorms(pair, require_self_adjoint(_check_dim(pair, a))[None])[0])


def l_seminorms(pair: ApproximationPair, stack: np.ndarray) -> np.ndarray:
    """Vectorized :func:`l_seminorm` for a (count, n, n) stack of self-adjoint
    elements.  Skips the per-element self-adjointness validation; callers own
    the invariant.

    The deviation ||off a|| / beta takes an exact norm only where it can
    exceed Lip(diag a).  The largest absolute row or column sum R of the
    off-diagonal part bounds its norm (||x||_2 <= sqrt(||x||_1 ||x||_inf)),
    so an element with fl(fl(R m) / beta) < Lip(diag a) has its seminorm
    equal to the Lipschitz term, bit for bit, without an eigen solve.

    The margin m = 1 + 64 n^3 u, u the unit roundoff, makes the screen exact:
    it ensures fl(R m) >= N, N the norm ``operator_norms`` would compute, and
    division by beta is monotone, so fl(N / beta) < Lip(diag a) and the max
    returns the Lipschitz term.  Each modulus |x_ij| is within one ulp (2u)
    and each sum of n of them within (n - 1) u relative, so the exact sum
    bound is at most R (1 + 2 (n + 2) u).  ``eigvalsh`` and the SVD return
    the exact values of a matrix within ||dA||_2 of x; for the n - 2
    Householder reflections of the reduction ||dA||_F <= c n^2 u ||x||_F with
    c small (Higham, Accuracy and Stability, Lemma 19.3), so
    ||dA||_2 <= c n^(5/2) u ||x||_2, and the tridiagonal or bidiagonal stage
    adds O(n u) ||x||_2.  By Weyl, N <= ||x||_2 (1 + 32 n^3 u) with c up to
    32 sqrt(n), and 64 n^3 u covers that, the sum bound and the rounding of
    R m with room to spare for every n >= 2.  An overflow of R m / beta
    reads +inf and fails the screen, so the bound never raises where the
    deviation itself does not; when no element passes, the stack goes to
    ``operator_norms`` unchanged, and when all do, no solve is made.
    """
    s = np.asarray(stack, dtype=complex)
    if s.ndim != 3 or s.shape[1:] != (pair.dim, pair.dim):
        raise InputShapeError(
            f"stack has shape {s.shape}, expected (count, {pair.dim}, {pair.dim})"
        )
    n = pair.dim
    lips = lipschitz_seminorms(pair.space, np.diagonal(s, axis1=1, axis2=2).real)
    off = s.copy()
    idx = np.arange(n)
    off[:, idx, idx] = 0.0
    mags = np.abs(off)
    sums = np.maximum(mags.sum(axis=1), mags.sum(axis=2)).max(axis=1)
    del mags
    margin = 1.0 + 64.0 * n**3 * np.finfo(float).eps / 2.0
    with np.errstate(over="ignore"):
        need = ~(sums * margin / pair.beta < lips)
    deviations = np.zeros(len(s))
    if need.any():
        deviations[need] = operator_norms(off if need.all() else off[need]) / pair.beta
    return np.maximum(deviations, lips)


def _residuals(
    pair: ApproximationPair,
    a: np.ndarray,
    b: np.ndarray,
    norm_a: np.ndarray,
    norm_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """D*(||a|| L(b) + ||b|| L(a)) - L(product) for the Jordan and Lie
    products, given the norms of a and b."""
    jordan, lie = jordan_lie(a, b)
    bound = pair.leibniz_constant * (
        norm_a * l_seminorms(pair, b) + norm_b * l_seminorms(pair, a)
    )
    return bound - l_seminorms(pair, jordan), bound - l_seminorms(pair, lie)


def quasi_leibniz_residuals(
    pair: ApproximationPair, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slack of the Leibniz-type inequality for the Jordan and Lie products,
    over two (count, n, n) stacks of self-adjoint elements paired by index.

    Returns D*(||a|| L(b) + ||b|| L(a)) - L(product) for each product; the
    inequality holds exactly when both residuals are nonnegative (small
    negative values are rounding noise).  Like :func:`l_seminorms`, skips
    the self-adjointness validation.
    """
    return _residuals(pair, a, b, operator_norms(a), operator_norms(b))


def unit_leibniz_residuals(
    pair: ApproximationPair, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`quasi_leibniz_residuals` for stacks drawn by
    ``random_hermitian_stack``, whose elements have norm one or are zero.

    Takes ||a|| as 1.0, or 0.0 for an all-zero element, instead of solving
    for it again.  A drawn element is g / ||g||, whose computed norm is one
    within a few ulps, so the residuals agree with
    :func:`quasi_leibniz_residuals` to about 1e-15 relative.
    """
    return _residuals(pair, a, b, _unit_norms(a), _unit_norms(b))


def _unit_norms(stack: np.ndarray) -> np.ndarray:
    return np.any(stack, axis=(1, 2)).astype(float)


# Largest block of one element stack, in bytes, whose residuals
# ``leibniz_suites`` takes at once: the products and their off-diagonal
# parts are further stacks of the same size.
_PAIR_BLOCK_BYTES = 8 << 20


def leibniz_suites(
    rng: np.random.Generator, sizes: Sequence[int], ratios: Sequence[float], pairs: int
) -> Iterator[tuple[float, ApproximationPair, np.ndarray, np.ndarray]]:
    """The residual suites: for each ratio, then each size n, a random n-point
    cloud with beta = ratio * delta (in corollary mode when ratio <= 1) and
    ``pairs`` random unit-norm pairs drawn from ``rng``.

    Yields (ratio, pair, Jordan residuals, Lie residuals) per suite, from
    :func:`unit_leibniz_residuals`.  Both draws of a suite are taken whole,
    which keeps the random stream, and their residuals in blocks of pairs of
    ``_PAIR_BLOCK_BYTES`` per stack, which bounds the memory of the
    products; each pair's residuals are its own, so the blocks change no
    value.  A beta below the smallest normal float raises
    ``ScaleUnderflowError``; residuals that overflow, as the deviations
    ||a - E(a)|| / beta and the bounds D (||a|| L(b) + ||b|| L(a)) do at
    extreme ratios, raise ``ScaleOverflowError``.
    """
    for ratio in ratios:
        for n in sizes:
            space = random_cloud_space(rng, n)
            beta = ratio * min_separation(space)
            if not beta >= sys.float_info.min:
                raise ScaleUnderflowError(
                    f"ratio {ratio!r} at size {n} puts beta = {beta!r} below the smallest normal float"
                )
            pair = ApproximationPair(space, beta, corollary_mode=ratio <= 1.0)
            a = random_hermitian_stack(rng, pairs, n)
            b = random_hermitian_stack(rng, pairs, n)
            step = max(1, _PAIR_BLOCK_BYTES // a[0].nbytes)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    blocks = [
                        unit_leibniz_residuals(pair, a[i : i + step], b[i : i + step])
                        for i in range(0, pairs, step)
                    ]
            except FloatingPointError as exc:
                raise ScaleOverflowError(f"ratio {ratio!r} at size {n} overflows the residuals ({exc})") from None
            jres, lres = (np.concatenate(r) for r in zip(*blocks))
            yield ratio, pair, jres, lres


def kernel_check(pair: ApproximationPair, a: np.ndarray) -> bool:
    """Whether a self-adjoint element lies in the kernel of the seminorm.

    Elements with L(a) <= 1e-12, a value only rounding leaves on a scalar,
    are additionally verified to be close to a scalar multiple of the
    identity (the kernel is exactly the scalars); a violation of that
    implication would be an internal defect and raises.
    """
    tol = 1e-12
    m = require_self_adjoint(_check_dim(pair, a))
    value = l_seminorm(pair, m)
    if value > tol:
        return False
    scalar_gap = operator_norm(m - trace_state(m) * np.eye(pair.dim))
    allowed = tol * (pair.beta + diameter(pair.space) + 1.0)
    if scalar_gap > allowed:
        raise RuntimeError(
            f"kernel defect: L(a)={value:.3e} but ||a - tau(a) 1||={scalar_gap:.3e}"
        )
    return True


def kernel_dimension(pair: ApproximationPair) -> int:
    """Dimension of the kernel of the seminorm inside the self-adjoint space.

    L(a) = 0 is the linear system {off-diagonal part of a = 0} together with
    {f(x) = f(y) for every pair}, f being the diagonal.  The dimension is the
    nullity of the stacked constraint matrix over a real basis of the
    self-adjoint matrices, computed by SVD.  It equals 1 for every valid
    pair (the scalars).
    """
    n = pair.dim
    basis: list[np.ndarray] = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0j
            e[j, i] = -1.0j
            basis.append(e)
    columns = []
    for b in basis:
        off = b - np.diag(np.diag(b))
        rows = [off.real.ravel(), off.imag.ravel()]
        f = np.diag(b).real
        pair_diffs = [
            f[i] - f[j] for i in range(n) for j in range(i + 1, n)
        ]
        columns.append(np.concatenate([*rows, np.asarray(pair_diffs)]))
    constraint = np.stack(columns, axis=1)
    sv = np.linalg.svd(constraint, compute_uv=False)
    # The constraint entries are 0, +-1 and +-1j, so a zero singular value
    # comes out of the SVD at about 1e-15; 1e-9 separates it from the rest.
    rank = int(np.sum(sv > 1e-9 * max(1.0, sv[0])))
    return len(basis) - rank


def unit_ball_radius_bound(pair: ApproximationPair) -> float:
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
    weights = np.full(pair.dim, 1.0 / pair.dim)
    return pair.beta + float(np.max(pair.space.dist @ weights))


def sample_unit_ball(
    pair: ApproximationPair, count: int, seed: int
) -> list[np.ndarray]:
    """Deterministic self-adjoint samples with seminorm at most one.

    Each sample is diag(f) + c with Lip(f) <= 1 and c self-adjoint with zero
    diagonal and ||c|| <= beta, so membership is exact by construction
    rather than by rejection.  The expectation of such a sample is diag(f)
    and its deviation term is ||c||/beta.  The same seed gives the same
    samples in the same order.
    """
    if count < 1:
        raise ConfigError("sample count must be at least one")
    n = pair.dim
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        f = rng.uniform(-1.0, 1.0, size=n)
        lip = lipschitz_seminorm(pair.space, f)
        target_lip = rng.uniform(0.0, 1.0)
        if lip > 0.0:
            f = f * (target_lip / lip)
        f = f + rng.uniform(-1.0, 1.0)
        c = random_hermitian(rng, n)
        np.fill_diagonal(c, 0.0)
        norm_c = operator_norm(c)
        target_dev = rng.uniform(0.0, 1.0)
        if norm_c > 0.0:
            c = c * (target_dev * pair.beta / norm_c)
        samples.append(np.diag(f.astype(complex)) + c)
    return samples
