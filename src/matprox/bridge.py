"""Unit-pivot bridges and certified proximity bounds.

A bridge here is an ambient matrix algebra with two unital embeddings and
the identity as pivot, so its height is zero structurally and its length
equals its reach.  For the pair (matrix algebra over a diagonal copy of a
finite space), the reach is certified to be at most beta by the two witness
maps (a function embeds to its diagonal matrix; a matrix maps to its
diagonal part), which directly bounds the quantum-metric distance between
the two spaces from above.  Only such upper bounds are produced: the
distance itself is an infimum over all bridges and no algorithm for the
infimum is implemented.  A sampled estimate of the reach of a specific
bridge is emitted for context and always labeled as sampled, never
certified; it bounds the reach in neither direction.

The pipeline functions assemble the end-to-end bound for a compact space:
Hausdorff(space, net) + beta, with the net and its Hausdorff value supplied
by the built-in generators.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    ConfigError,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from .lseminorm import ApproximationPair, sample_unit_ball
from .matrix_algebra import operator_norm
from .metric_core import (
    Generator,
    epsilon_net,
    min_separation,
)


@dataclass(frozen=True)
class ReachCertificate:
    """An upper bound on the reach of a bridge plus the witnessing data.

    The forward witness maps a matrix to its diagonal part as a function;
    the backward witness maps a function to its diagonal matrix.
    ``worst_forward`` is the largest bridge norm over the checked samples of
    the matrix side against its witness; ``worst_backward`` covers the
    function side, whose witness embeds exactly and therefore scores zero.
    """

    upper_bound: float
    worst_forward: float
    worst_backward: float
    certified: bool = True


def certify_reach_upper(
    pair: ApproximationPair, samples: int = 256, seed: int = 0
) -> ReachCertificate:
    """Certificate that the reach of the pair's bridge is at most beta.

    The bridge norm of a matrix a and a function f is ||a - diag(f)||, with
    f embedded as a diagonal matrix.  The certificate is proof-backed: for a
    unit-ball matrix a the diagonal part diag(a) has Lipschitz seminorm at
    most L(a) <= 1 and
    ||a - diag(a)|| <= beta L(a) <= beta, while a unit-Lipschitz function
    embeds with bridge norm exactly zero.  The witnesses are re-evaluated on
    deterministic unit-ball samples and the worst observed values recorded;
    a witness violation would falsify the certificate and raises.
    """
    worst_forward = 0.0
    for a in sample_unit_ball(pair, samples, seed):
        f = np.diagonal(a).real
        worst_forward = max(worst_forward, operator_norm(a - np.diag(f.astype(complex))))
    # A witness norm exactly at beta may round above it.
    slack = 1e-12 * (1.0 + pair.beta)
    if worst_forward > pair.beta + slack:
        raise RuntimeError(
            f"witness violated its certificate: {worst_forward} > beta={pair.beta}"
        )
    return ReachCertificate(
        upper_bound=pair.beta,
        worst_forward=worst_forward,
        worst_backward=0.0,
    )


def _coordinate_descent_inf(
    pair: ApproximationPair, a: np.ndarray, start: np.ndarray
) -> float:
    """Best found value of ||a - diag(f)|| over unit-Lipschitz f.

    Starts from the provably feasible witness and improves one coordinate
    at a time inside the interval allowed by the Lipschitz constraints; the
    one-dimensional sections are convex, so a bounded scalar minimizer is
    enough.  Descent only tightens the witness value; it stops after 200
    sections or after a sweep that gains less than 1e-9.  One working matrix
    m = a - diag(f) is kept: a section writes only the real part of m_ii,
    and after it m_ii is reset from the accepted f_i, so every evaluation
    sees the same entries as a freshly built a - diag(g).  For a bitwise
    self-adjoint a that matrix is bitwise self-adjoint too, so each norm
    takes the eigenvalue path of ``operator_norms``.
    """
    n = pair.dim
    dist = pair.space.dist
    f = start.astype(float).copy()
    m = a - np.diag(f.astype(complex))
    m_re, a_re = m.real, a.real

    current = operator_norm(m)
    steps = 200
    used = 0
    while used < steps:
        sweep_start = current
        for i in range(n):
            if used >= steps:
                break
            others = np.delete(np.arange(n), i)
            lo = float(np.max(f[others] - dist[i, others]))
            hi = float(np.min(f[others] + dist[i, others]))
            if hi - lo <= 0.0:
                used += 1
                continue

            def section(t: float) -> float:
                m_re[i, i] = a_re[i, i] - t
                return operator_norm(m)

            res = minimize_scalar(
                section, bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-10},
            )
            used += 1
            if res.fun < current:
                f[i] = float(res.x)
                current = float(res.fun)
            m_re[i, i] = a_re[i, i] - f[i]
        if sweep_start - current < 1e-9:
            break
    return current


# The bounded minimiser's parabolic step multiplies two interval widths by a
# difference of objective values.  Each factor is at most about twice the net's
# diameter, so past this diameter the product can overflow.
_LARGEST_DIAMETER = sys.float_info.max ** (1.0 / 3.0) / 16.0


def estimate_reach_lower(
    pair: ApproximationPair,
    iters: int = 32,
    seed: int = 0,
) -> float:
    """Sampled, not certified, estimate of this bridge's reach; not a bound.

    For each unit-ball sample a, the inner infimum over unit-Lipschitz
    functions is bounded from above by starting at the witness diag(a) and
    descending.  The maximum of these values therefore bounds the sup-inf
    reach of this bridge in neither direction: each term is above its own
    sample's infimum, and the samples do not exhaust the supremum (nor does
    it say anything about the distance itself).  Always at most the
    certified upper bound, up to rounding.  A net wider than the minimiser
    can handle raises ``ScaleOverflowError``.
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

    CSV_HEADER = "n,delta,beta,haus,certified_bound"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.delta!r},{r.beta!r},{r.haus!r},{r.certified_bound!r}"
            )
        return "\n".join(lines) + "\n"


def approximate_compact_space(
    generator: Generator,
    n: int,
    beta_rule: Callable[[float, int], float],
    corollary_mode: bool = True,
) -> tuple[ApproximationPair, ConvergenceRow]:
    """Build the matrix approximation of a compact space and its total bound.

    Returns the approximation pair over the n-point net together with its
    row: delta, beta, the Hausdorff distance from the space to the net, and
    the certified bound Hausdorff(space, net) + beta.  In corollary mode the
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
        n=n, delta=delta, beta=beta, haus=haus, certified_bound=haus + beta
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
