"""Unit-pivot bridges and certified proximity bounds.

A bridge here is an ambient matrix algebra with two unital embeddings and
the identity as pivot, so its height is zero structurally and its length
equals its reach.  For the pair (matrix algebra over a diagonal copy of a
finite space), the reach is certified to be exactly beta: the two witness
maps (a function embeds to its diagonal matrix; a matrix maps to its
diagonal part) bound it from above, and one off-diagonal matrix entry from
below.  That bounds the quantum-metric distance between the two spaces from
above; the distance itself is an infimum over all bridges and no algorithm
for the infimum is implemented.  A sampled estimate of the reach is emitted
for context and always labeled as sampled, never certified.

The sampled reach runs a coordinate descent whose one-dimensional sections
:func:`minimize_scalar` solves: a port of SciPy's bounded minimiser that
returns its bits, without its numpy-scalar overhead.

The pipeline functions assemble the end-to-end bound for a compact space:
Hausdorff(space, net) + beta, with the net and its Hausdorff value supplied
by the built-in generators.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from .lseminorm import ApproximationPair, sample_unit_ball
from .matrix_algebra import _bitwise_self_adjoint, _eigenvalue_norms, operator_norm
from .metric_core import (
    Generator,
    epsilon_net,
    min_separation,
)


class ReachCertificate(NamedTuple):
    """The reach of the pair's bridge and a matrix entry that attains it."""

    reach: float
    witness: tuple[int, int]


def certify_reach(pair: ApproximationPair) -> ReachCertificate:
    """The reach of the pair's unit-pivot bridge, which is exactly beta.

    The bridge norm of a matrix a and a function f is ||a - diag(f)||.  The
    bridge has height zero, so its length is its reach: the larger of
    sup_{L(a) <= 1} inf_{Lip f <= 1} ||a - diag(f)|| over self-adjoint a and
    sup_{Lip f <= 1} inf_{L(a) <= 1} ||a - diag(f)||.

    At most beta: for a with L(a) <= 1 take f = diag a, which is real with
    Lip f <= L(a) <= 1, and ||a - diag a|| = ||a - E(a)|| <= beta L(a) <= beta.
    For f with Lip f <= 1, a = diag f has L(a) = Lip f <= 1 and bridge norm 0.

    At least beta: for i != j, W = beta (E_ij + E_ji) is self-adjoint with zero
    diagonal, so L(W) = ||W|| / beta = 1.  Every f leaves the entry (i, j) of
    W - diag f at beta, and no entry of a matrix exceeds its operator norm,
    so ||W - diag f|| >= beta.

    Both bounds are exact, so no float enters the certificate.  Returns beta
    and the witness pair (i, j) = (0, 1); a pair has at least two points.
    """
    return ReachCertificate(pair.beta, (0, 1))


class ScalarMinimum(NamedTuple):
    """Where :func:`minimize_scalar` stopped: the point, its value, the number
    of evaluations, and SciPy's status (0 converged, 1 out of evaluations,
    2 a NaN)."""

    x: float
    fun: float
    nfev: int
    status: int


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXFUN = 500


def _unit_step(v: float) -> float:
    """numpy's ``sign(v) + (v == 0)``: -1 below zero, 1 at or above it, NaN at NaN."""
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else v


def minimize_scalar(
    func: Callable[[float], float], bounds: tuple[float, float], xatol: float
) -> ScalarMinimum:
    """Minimise ``func`` over the closed interval ``bounds`` by Brent's method
    (golden sections and parabolic steps), to ``xatol`` in x.

    A line-for-line port of ``_minimize_scalar_bounded`` from SciPy 1.17.1,
    which ``scipy.optimize.minimize_scalar(method="bounded")`` runs, at its
    default of at most 500 evaluations.  SciPy does this arithmetic on
    Python floats through numpy scalar calls (``np.abs``, ``np.sign``,
    ``np.maximum``), after ``minimize_scalar``'s dispatch: on a 2-vCPU Xeon
    its loop took 4.5 us per evaluation and the port's takes 0.7 us, beside
    the 56 us of the reach descent's 32x32 eigenvalue solve.  The port does
    the same IEEE double operations, each correctly rounded in both, with
    built-ins, and propagates NaN as numpy does, so x, fun, the evaluation
    count and the status are SciPy's bit for bit.
    """
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bounds must be finite")
    if lo > hi:
        raise ValueError("the lower bound exceeds the upper bound")
    status = 0
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # The parabolic step must stay inside (a, b) and be shorter than half
            # the step before last; a step that passes has q != 0.
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _unit_step(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e
        # np.maximum(|rat|, tol1): the second on a tie, NaN if either is NaN.
        step = abs(rat)
        if not step > tol1 and step == step:
            step = tol1
        x = xf + _unit_step(rat) * step
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            status = 1
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        status = 2
    return ScalarMinimum(xf, fx, num, status)


def _coordinate_descent_inf(
    pair: ApproximationPair, a: np.ndarray, start: np.ndarray
) -> float:
    """Best found value of ||a - diag(f)|| over unit-Lipschitz f.

    Starts from the provably feasible witness and improves one coordinate
    at a time inside the interval allowed by the Lipschitz constraints; the
    one-dimensional sections are convex, so the bounded scalar minimiser
    :func:`minimize_scalar` (SciPy's, ported bit for bit) is enough, at
    ``xatol`` 1e-10.  Descent only tightens the witness value; it stops
    after 200 sections or after a sweep that gains less than 1e-9.  It
    follows the exact path of its objective values, so a norm that moves by
    rounding (about 1e-15) can move the result by orders of magnitude more.

    One working matrix m = a - diag(f) is kept: a section writes only the
    real part of m_ii, and after it m_ii is reset from the accepted f_i, so
    every evaluation sees the same entries as a freshly built a - diag(g).
    Its off-diagonal entries and the imaginary parts of its diagonal are
    those of a, so m is bitwise self-adjoint exactly when a is.  a is tested
    once, and each evaluation takes the eigenvalue norm of
    ``operator_norms`` without the test; an a that fails it raises.

    A section is skipped, though still counted against the 200, when no
    section has been accepted since it last ran.  This changes no result.
    A section's minimiser run depends only on f with f_i removed (through
    the bounds and the other diagonal entries), on dist and on a, and the
    bounded minimiser is deterministic; f without f_i moves only when
    another section is accepted.  current never rises, and right after
    section i runs it is at most the value its run returned: equal if the
    run was accepted, and no larger if it was rejected.  So a rerun of a
    stale section returns the same res.fun >= current, is rejected, and
    leaves f, m and current, hence the stop rule, as they were.
    """
    if not _bitwise_self_adjoint(a):
        raise ValueError("the reach descent needs a bitwise self-adjoint matrix")
    n = pair.dim
    dist = pair.space.dist
    f = start.astype(float).copy()
    m = a - np.diag(f.astype(complex))
    m_re, a_re = m.real, a.real

    current = operator_norm(m)
    steps = 200
    used = 0
    # accepted counts accepted sections; seen[i] is its value right after
    # section i last ran.
    accepted = 0
    seen = [-1] * n
    while used < steps:
        sweep_start = current
        for i in range(n):
            if used >= steps:
                break
            used += 1
            if seen[i] == accepted:
                continue
            others = np.delete(np.arange(n), i)
            lo = float(np.max(f[others] - dist[i, others]))
            hi = float(np.min(f[others] + dist[i, others]))
            if hi - lo <= 0.0:
                continue

            def section(t: float) -> float:
                m_re[i, i] = a_re[i, i] - t
                return float(_eigenvalue_norms(m))

            res = minimize_scalar(section, (lo, hi), 1e-10)
            if res.fun < current:
                f[i] = res.x
                current = res.fun
                accepted += 1
            seen[i] = accepted
            m_re[i, i] = a_re[i, i] - f[i]
        if sweep_start - current < 1e-9:
            break
    return current


# The parabolic step of minimize_scalar multiplies two interval widths by a
# difference of objective values.  Each factor is at most about twice the net's
# diameter, so past this diameter the product can overflow.  Python floats, as
# SciPy's numpy scalars did, overflow to inf without raising, so the diameter is
# checked before the descent starts.
_LARGEST_DIAMETER = sys.float_info.max ** (1.0 / 3.0) / 16.0


def estimate_reach_lower(
    pair: ApproximationPair,
    iters: int = 32,
    seed: int = 0,
) -> float:
    """Sampled, not certified, estimate of this bridge's reach; not a bound.

    For each unit-ball sample a, the inner infimum over unit-Lipschitz
    functions is bounded from above by starting at the witness diag(a) and
    descending, so each term lies between its own sample's infimum and beta.
    Their maximum is therefore at most the reach, which
    :func:`certify_reach` proves equal to beta, up to rounding; it says
    nothing more about the reach, nor about the distance itself.  A net
    wider than the minimiser can handle raises ``ScaleOverflowError``.
    """
    if iters < 1:
        raise ConfigError("need at least one sample")
    diameter = float(np.max(pair.space.dist))
    if not diameter <= _LARGEST_DIAMETER:
        raise ScaleOverflowError(
            f"net diameter {diameter!r} exceeds {_LARGEST_DIAMETER:.3e}, where the reach descent overflows"
        )
    best = 0.0
    for a in sample_unit_ball(pair, iters, seed):
        best = max(best, _coordinate_descent_inf(pair, a, np.diagonal(a).real))
    return best


# ---------------------------------------------------------------------------
# Tolerance schedules and the approximation pipeline.
# ---------------------------------------------------------------------------


def beta_delta_over_n(delta: float, n: int) -> float:
    """The schedule beta = delta / n; shrinks the bound to zero along nets."""
    return delta / n


def beta_fixed(value: float) -> Callable[[float, int], float]:
    if not value >= sys.float_info.min:
        raise ConfigError("fixed beta must be a positive normal float")

    def rule(delta: float, n: int) -> float:
        return value

    return rule


def beta_fraction_of_delta(fraction: float) -> Callable[[float, int], float]:
    if not sys.float_info.min <= fraction <= 1.0:
        raise ConfigError("fraction of delta must be a normal float in (0, 1]")

    def rule(delta: float, n: int) -> float:
        return fraction * delta

    return rule


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    delta: float
    beta: float
    haus: float
    certified_bound: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Certified bounds along a sequence of nets, with monotonicity flags."""

    rows: tuple[ConvergenceRow, ...]
    strictly_decreasing: bool
    nonincreasing: bool


def approximate_compact_space(
    generator: Generator,
    n: int,
    beta_rule: Callable[[float, int], float],
    corollary_mode: bool = True,
) -> tuple[ApproximationPair, ConvergenceRow]:
    """Build the matrix approximation of a compact space and its total bound.

    Returns the approximation pair over the n-point net together with its
    row: delta, beta, the Hausdorff distance from the space to the net, and
    the certified bound Hausdorff(space, net) plus the bridge's reach, which
    :func:`certify_reach` proves to be beta.  In corollary mode the
    rule must produce beta <= delta (Leibniz constant 2); violations raise
    ``CorollaryModeViolation``, and the pair remains constructible with
    ``corollary_mode=False`` at constant 1 + beta/delta.  A delta or beta
    below the smallest normal float raises ``ScaleUnderflowError``.
    """
    net, haus = epsilon_net(generator, n)
    delta = min_separation(net)
    beta = float(beta_rule(delta, n))
    if not (delta >= sys.float_info.min and beta >= sys.float_info.min):
        raise ScaleUnderflowError(
            f"net spacing {delta!r} and beta {beta!r} must be normal positive floats"
        )
    pair = ApproximationPair(net, beta, corollary_mode=corollary_mode)
    row = ConvergenceRow(
        n=n, delta=delta, beta=beta, haus=haus, certified_bound=haus + certify_reach(pair).reach
    )
    return pair, row


def convergence_experiment(
    generator: Generator,
    n_list: Sequence[int],
    beta_rule: Callable[[float, int], float],
) -> ConvergenceReport:
    """Run the approximation pipeline along an increasing list of net sizes,
    in corollary mode (beta <= delta at every size)."""
    sizes = [int(n) for n in n_list]
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ConfigError("net sizes must be strictly increasing")
    rows = [
        approximate_compact_space(generator, n, beta_rule)[1]
        for n in sizes
    ]
    bounds = [r.certified_bound for r in rows]
    strictly = all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    noninc = all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    return ConvergenceReport(tuple(rows), strictly, noninc)
