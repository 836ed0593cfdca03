"""The metric seminorm on a full matrix algebra over a finite-space diagonal.

Given an n-point metric space Y embedded as the diagonal of the n x n
matrices, a tolerance beta > 0 and the pinching expectation E, the seminorm
evaluated here is

    L(a) = max( ||a - E(a)|| / beta,  Lip(diagonal part of a) )

where Lip is the Lipschitz seminorm of Y.  Its kernel is the scalar
multiples of the identity, its unit ball is norm-bounded after centering,
and it satisfies a Leibniz-type inequality for the Jordan and Lie products
with constant D = max(2, 1 + beta/delta), delta being the minimum
separation of Y.  This module evaluates the seminorm on stacks, takes the
Leibniz residuals of drawn pairs and samples the unit ball exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CorollaryModeViolation,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from .matrix_algebra import (
    jordan_lie,
    matrix_stack,
    operator_norm,
    operator_norms,
    random_hermitian,
    random_hermitian_stack,
)
from .metric_core import (
    FiniteMetricSpace,
    blocks,
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
        object.__setattr__(self, "delta", delta)
        object.__setattr__(
            self, "leibniz_constant", max(2.0, 1.0 + self.beta / delta)
        )

    @property
    def dim(self) -> int:
        return self.space.n_points


def l_seminorms(pair: ApproximationPair, stack: np.ndarray) -> np.ndarray:
    """The seminorm max(||a - E(a)|| / beta, Lip(diagonal part of a)) of each
    element of a (count, n, n) stack of self-adjoint elements; one element is
    ``l_seminorms(pair, a[None])[0]``.  Self-adjointness is not validated;
    callers own the invariant.

    The deviation ||off a|| / beta takes an exact norm only where it can
    exceed Lip(diag a).  The largest absolute row or column sum R of the
    off-diagonal part bounds its norm (||x||_2 <= sqrt(||x||_1 ||x||_inf)),
    so an element with fl(fl(R m) / beta) < Lip(diag a) has its seminorm
    equal to the Lipschitz term, bit for bit, without an eigen solve.

    The margin m = 1 + 64 n^3 u, u the unit roundoff, makes the screen exact:
    it ensures fl(R m) >= N, N the norm ``operator_norms`` would compute, and
    division by beta is monotone, so fl(N / beta) < Lip(diag a) and the max
    returns the Lipschitz term.  Each modulus |x_ij| is within one ulp (2u)
    and each sum of n of them, added in any order, within (n - 1) u
    relative, so the exact sum bound is at most R (1 + 2 (n + 2) u).
    ``eigvalsh`` and the SVD return the exact values of a matrix within
    ||dA||_2 of x; for the n - 2 Householder reflections of the reduction
    ||dA||_F <= c n^2 u ||x||_F with c small (Higham, Accuracy and
    Stability, Lemma 19.3), so
    ||dA||_2 <= c n^(5/2) u ||x||_2, and the tridiagonal or bidiagonal stage
    adds O(n u) ||x||_2.  By Weyl, N <= ||x||_2 (1 + 32 n^3 u) with c up to
    32 sqrt(n), and 64 n^3 u covers that, the sum bound and the rounding of
    R m with room to spare for every n >= 2.  An overflow of R m / beta
    reads +inf and fails the screen, so the bound never raises where the
    deviation itself does not; when no element passes, the stack goes to
    ``operator_norms`` unchanged, and when all do, no solve is made.

    The margin holds whenever every nonzero off-diagonal modulus |x_ij| is a
    normal float (at least 2^-1022), whatever beta: a subnormal one errs by
    up to 2^-1075 absolute, not relative.  An underflow of R m / beta keeps
    the screen exact, as rounding is monotone.
    """
    s = matrix_stack(stack, pair.dim, axes=3)
    n = pair.dim
    lips = lipschitz_seminorms(pair.space, np.diagonal(s, axis1=1, axis2=2).real)
    off = s.copy()
    idx = np.arange(n)
    off[:, idx, idx] = 0.0
    mags = np.abs(off)
    sums = np.maximum(np.einsum("cij->ci", mags), np.einsum("cij->cj", mags)).max(axis=1)
    del mags
    margin = 1.0 + 64.0 * n**3 * np.finfo(float).eps / 2.0
    with np.errstate(over="ignore"):
        need = ~(sums * margin / pair.beta < lips)
    deviations = np.zeros(len(s))
    if need.any():
        deviations[need] = operator_norms(off if need.all() else off[need]) / pair.beta
    return np.maximum(deviations, lips)


def unit_leibniz_residuals(
    pair: ApproximationPair, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slack D*(||a|| L(b) + ||b|| L(a)) - L(product) of the Leibniz-type
    inequality for the Jordan and Lie products, over two (count, n, n) stacks
    drawn by ``random_hermitian_stack`` and paired by index.

    The inequality holds exactly when both residuals are nonnegative (small
    negative values are rounding noise).  A drawn element is g / ||g||, with
    norm one or zero, so ||a|| is taken as 1.0, or 0.0 for an all-zero
    element, instead of solving for it again; its computed norm is one
    within a few ulps, so the residuals agree with solved norms to about
    1e-15 relative.
    """
    jordan, lie = jordan_lie(a, b)
    bound = pair.leibniz_constant * (
        _unit_norms(a) * l_seminorms(pair, b) + _unit_norms(b) * l_seminorms(pair, a)
    )
    return bound - l_seminorms(pair, jordan), bound - l_seminorms(pair, lie)


def _unit_norms(stack: np.ndarray) -> np.ndarray:
    return np.any(stack, axis=(1, 2)).astype(float)


def leibniz_suites(
    rng: np.random.Generator, sizes: Sequence[int], ratios: Sequence[float], pairs: int
) -> Iterator[tuple[float, ApproximationPair, np.ndarray, np.ndarray]]:
    """The residual suites: for each ratio, then each size n, a random n-point
    cloud with beta = ratio * delta (in corollary mode when ratio <= 1) and
    ``pairs`` random unit-norm pairs drawn from ``rng``.

    Yields (ratio, pair, Jordan residuals, Lie residuals) per suite, from
    :func:`unit_leibniz_residuals`.  Both draws of a suite are taken whole,
    which keeps the random stream, and their residuals in blocks of pairs of
    ``BLOCK_BYTES`` per stack, which bounds the memory of the products and
    their off-diagonal parts, further stacks of the same size; each pair's
    residuals are its own, so the blocks change no value.  A beta below the
    smallest normal float raises ``ScaleUnderflowError``; residuals that
    overflow, as the deviations ||a - E(a)|| / beta and the bounds
    D (||a|| L(b) + ||b|| L(a)) do at extreme ratios, raise
    ``ScaleOverflowError``.
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
            try:
                with np.errstate(over="raise", invalid="raise"):
                    parts = [
                        unit_leibniz_residuals(pair, a[block], b[block])
                        for block in blocks(pairs, a[0].nbytes)
                    ]
            except FloatingPointError as exc:
                raise ScaleOverflowError(f"ratio {ratio!r} at size {n} overflows the residuals ({exc})") from None
            # Freed before the next suite draws (62.5 MiB each at size 64).
            del a, b
            jres, lres = (np.concatenate(r) for r in zip(*parts))
            del parts
            yield ratio, pair, jres, lres


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
        lip = lipschitz_seminorms(pair.space, f[None])[0]
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
