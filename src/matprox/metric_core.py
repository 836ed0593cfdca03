"""Finite metric spaces and their commutative metric geometry.

This module provides the ground-space side of the library: validated finite
metric spaces, Lipschitz seminorms of functions, Monge-Kantorovich
(Wasserstein-1) distances between probability measures computed by LP
duality, and nets of a few built-in compact spaces and of finite spaces
together with their exact Hausdorff distances to the space.

Functions on a space and probability measures are represented as plain
``numpy`` vectors indexed like the space's labels; helpers validate them
where an operation needs the invariants (measure weights nonnegative and
summing to one).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSpaceError,
    InputShapeError,
    MetricAxiomError,
)

TAU = 2.0 * math.pi

# Relative slack used when validating metric axioms of float inputs.
_AXIOM_RTOL = 1e-12
# Working memory one block of a blocked loop may hold, in bytes.
BLOCK_BYTES = 8 << 20


def blocks(count: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering range(count) in order, each of
    ``BLOCK_BYTES // item_bytes`` items (at least one; the last may be short)."""
    step = max(1, BLOCK_BYTES // item_bytes)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A labeled finite set of points with a validated distance matrix.

    Construction enforces the metric axioms: zero diagonal, symmetry,
    strictly positive off-diagonal entries, and the triangle inequality
    (checked in O(n^3) time and O(n^2) memory, with a small relative
    tolerance for rounding in distances derived from coordinates).  The
    stored matrix is exactly symmetric and read-only.  Two spaces are
    equal, and hash equal, exactly when their labels and distance bits agree.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        # Refused, not converted: str() made 1, True and None into labels.
        bad = [x for x in labels if not isinstance(x, str)]
        if bad:
            raise ConfigError(f"point labels must be strings, got {bad[0]!r}")
        dist = np.asarray(self.dist, dtype=float)
        n = len(labels)
        if dist.shape != (n, n):
            raise InputShapeError(
                f"distance matrix shape {dist.shape} does not match {n} labels"
            )
        if len(set(labels)) != n:
            raise MetricAxiomError("point labels must be distinct")
        if not np.all(np.isfinite(dist)):
            raise MetricAxiomError("distances must be finite")
        scale = float(np.max(np.abs(dist))) if n > 1 else 1.0
        tol = _AXIOM_RTOL * max(scale, 1.0)
        # Past half the float limit a sum or difference overflows to inf,
        # which still compares right; such a pair is averaged by halving
        # first, and every other pair by halving its sum, which keeps bits.
        with np.errstate(over="ignore"):
            if np.max(np.abs(dist - dist.T)) > tol:
                raise MetricAxiomError("distance matrix is not symmetric")
            summed = dist + dist.T
        dist = np.where(np.isinf(summed), dist / 2.0 + dist.T / 2.0, summed / 2.0)
        if np.max(np.abs(np.diag(dist))) > tol:
            raise MetricAxiomError("diagonal of a distance matrix must be zero")
        np.fill_diagonal(dist, 0.0)
        if n > 1:
            off = dist[~np.eye(n, dtype=bool)]
            if np.min(off) <= 0.0:
                raise MetricAxiomError("distinct points must have positive distance")
            # d[i,k] <= d[i,j] + d[j,k] for every j, a block of rows i at a
            # time so that no more than BLOCK_BYTES of sums are held at once.
            if n > 2:
                worst = -np.inf
                for block in blocks(n, 8 * n * n):
                    rows = dist[block]
                    with np.errstate(over="ignore"):
                        via = (rows[:, :, None] + dist[None, :, :]).min(axis=1)
                    worst = max(worst, float(np.max(rows - via)))
                if worst > tol:
                    raise MetricAxiomError(
                        f"triangle inequality violated by {worst:.3e}"
                    )
        dist.setflags(write=False)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.dist.tobytes() == other.dist.tobytes()

    def __hash__(self) -> int:
        return hash((self.labels, self.dist.tobytes()))

    @property
    def n_points(self) -> int:
        return len(self.labels)

    @classmethod
    def from_points(
        cls, points: np.ndarray, labels: Sequence[str] | None = None
    ) -> "FiniteMetricSpace":
        """Build a space from Euclidean coordinates (rows are points).

        Each pair's difference is multiplied by the power of two that puts
        its largest component in [1/2, 1) before it is squared, and its root
        by the inverse power, so no square underflows or overflows: a
        distance is right wherever it is a normal float.  Both products are
        exact, so where the plain squares stay normal the distance keeps
        their bits."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise InputShapeError("points must be a list of numbers or of coordinate rows")
        # A difference or distance past the float limit overflows to inf
        # here, and __post_init__ rejects the non-finite distance.
        with np.errstate(over="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            _, scale = np.frexp(np.abs(diff).max(axis=-1, initial=0.0))
            unit = np.ldexp(diff, -scale[..., None])
            dist = np.ldexp(np.sqrt(np.sum(unit * unit, axis=-1)), scale)
        return cls(_default_labels(len(pts)) if labels is None else labels, dist)


def _default_labels(n: int) -> tuple[str, ...]:
    """The labels ``p0``, ..., ``p{n-1}`` of a space given without labels."""
    return tuple(f"p{i}" for i in range(n))


def check_probability(space: FiniteMetricSpace, weights: np.ndarray) -> np.ndarray:
    """Validate a probability vector: nonnegative, sums to one within 1e-12."""
    tol = 1e-12
    w = np.asarray(weights, dtype=float)
    if w.shape != (space.n_points,):
        raise InputShapeError(
            f"measure has {w.shape} weights, space has {space.n_points} points"
        )
    if not np.all(np.isfinite(w)) or np.min(w) < -tol:
        raise ValueError("measure weights must be finite and nonnegative")
    # No weight of a probability vector exceeds one, and checking that first
    # keeps the sum from overflowing.
    if np.max(w) > 1.0 + tol or abs(float(np.sum(w)) - 1.0) > tol:
        raise ValueError("measure weights must sum to one")
    return np.clip(w, 0.0, None)


def min_separation(space: FiniteMetricSpace) -> float:
    """Smallest distance between two distinct points.

    Undefined on a single point; that case raises ``DegenerateSpaceError``.
    """
    n = space.n_points
    if n < 2:
        raise DegenerateSpaceError("minimum separation needs at least two points")
    off = space.dist[~np.eye(n, dtype=bool)]
    return float(np.min(off))


def random_cloud_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """Gaussian points in R^3, redrawn until no two lie within 1e-3."""
    while True:
        space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
        if n == 1 or min_separation(space) > 1e-3:
            return space


def lipschitz_seminorms(space: FiniteMetricSpace, batch: np.ndarray) -> np.ndarray:
    """Largest ratio |f(x) - f(y)| / d(x, y) over pairs of distinct points,
    for each function f of a (count, n) batch; one function is
    ``lipschitz_seminorms(space, f[None])[0]``.

    Finite spaces make the supremum a maximum, so the value is always
    finite.  A single-point space returns 0 by convention.  Complex-valued
    functions are accepted; differences are measured in modulus.

    Only the pairs i < j are formed.  The ordered pair (j, i) gives the same
    ratio bit for bit: IEEE subtraction is exactly antisymmetric, the
    modulus ignores the sign, and ``dist`` is stored exactly symmetric; so
    the maximum equals the one over all ordered pairs, NaN included.
    """
    fs = np.asarray(batch)
    if fs.ndim != 2 or fs.shape[1] != space.n_points:
        raise InputShapeError("batch must have shape (count, n_points)")
    n = space.n_points
    if n < 2:
        return np.zeros(fs.shape[0])
    i, j = _upper_pairs(n)
    return np.max(np.abs(fs[:, i] - fs[:, j]) / space.dist[i, j], axis=1)


@functools.cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, read-only and built once per n."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def lipschitz_constraints(space: FiniteMetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """The unit-Lipschitz polytope {f : |f_i - f_j| <= d(i, j)} as A f <= b.

    Each pair i < j, in ``np.triu_indices`` order, contributes the row
    f_i - f_j <= d(i, j) followed by its negation; LP solvers see the rows
    in exactly this order.
    """
    n = space.n_points
    i, j = _upper_pairs(n)
    rows = np.zeros((i.size, n))
    rows[np.arange(i.size), i] = 1.0
    rows[np.arange(i.size), j] = -1.0
    a_ub = np.empty((2 * i.size, n))
    a_ub[0::2] = rows
    a_ub[1::2] = -rows
    return a_ub, np.repeat(space.dist[i, j], 2)


def _canonical_signed_difference(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Return p - q or q - p, whichever has a positive leading nonzero entry.

    The Monge-Kantorovich LP depends on the measures only through this
    difference, and the feasible set is symmetric under f -> -f, so solving
    for the canonical sign makes mk_distance(p, q) == mk_distance(q, p)
    bitwise.
    """
    z = p - q
    for v in z:
        if v > 0.0:
            return z
        if v < 0.0:
            return -z
    return z


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: SciPy takes
    most of a cold start, and only the transport LP here needs it."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def mk_distance(
    space: FiniteMetricSpace, p: np.ndarray, q: np.ndarray
) -> float:
    """Monge-Kantorovich (Wasserstein-1) distance between two measures.

    Solves the dual LP: maximize sum_i f_i (p_i - q_i) over functions with
    |f_i - f_j| <= d(i, j) for all pairs.  The value of f at the first point
    is pinned to zero; the objective only sees differences of f against the
    measure difference, so the pin removes the constant-function degeneracy
    without changing the optimum.  Intended for desk-scale spaces
    (<= 64 points).  The LP runs at unit scale, divided by the power of two
    of the largest distance, as HiGHS's tolerances are absolute and it reads
    bounds of 1e20 and more as infinite; W1 is positively homogeneous in the
    metric, and scaling by a power of two and back is exact.
    """
    pw = check_probability(space, p)
    qw = check_probability(space, q)
    n = space.n_points
    if n == 1:
        return 0.0
    z = _canonical_signed_difference(pw, qw)
    if not np.any(z):
        return 0.0
    # Variables f_1 .. f_{n-1}; f_0 = 0, so its constraint column drops out.
    a_ub, b_ub = lipschitz_constraints(space)
    scale = np.frexp(np.max(b_ub))[1]
    res = linprog(
        c=-z[1:],
        A_ub=a_ub[:, 1:],
        b_ub=np.ldexp(b_ub, -scale),
        bounds=[(None, None)] * (n - 1),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(np.ldexp(max(-res.fun, 0.0), scale))


def dirac_distances(space: FiniteMetricSpace) -> np.ndarray:
    """The (n, n) table of :func:`mk_distance` between the Dirac masses at the
    points, which equals the ground metric when the LP is exact."""
    n = space.n_points
    eye = np.eye(n)
    # The transport LP is bitwise symmetric in its two measures, so each
    # unordered pair is solved once; Dirac masses at one point are 0 apart.
    dirac = np.zeros((n, n))
    for i, j in zip(*np.triu_indices(n, k=1)):
        dirac[i, j] = dirac[j, i] = mk_distance(space, eye[i], eye[j])
    return dirac


# ---------------------------------------------------------------------------
# Built-in compact spaces and their equispaced nets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    """A circle with the arc-length metric, described by its circumference."""

    circumference: float = TAU


@dataclass(frozen=True)
class Interval:
    """The segment [0, length] with the absolute-value metric."""

    length: float = 1.0


@dataclass(frozen=True)
class FlatTorus:
    """A product of circles with the max-of-arcs metric."""

    circumferences: tuple[float, ...]


Generator = Union[Circle, Interval, FlatTorus, FiniteMetricSpace]


def _grid_net(sizes: tuple[float, ...], n: int, wrap: bool) -> tuple[FiniteMetricSpace, float]:
    """Equispaced grid n-net of a product of circles (``wrap``) or segments
    of the given sizes, with the max-of-axes metric; a circle or a segment
    is one axis."""
    if len(sizes) < 1 or any(c <= 0.0 for c in sizes):
        raise ConfigError("space sizes must be a nonempty tuple of positive numbers")
    d = len(sizes)
    # n^(1/d) rounds to m when n = m^d, and to no m with m^d = n otherwise.
    m = round(n ** (1.0 / d))
    if m**d != n:
        raise ConfigError(
            f"torus nets are grids: point count {n} is not m**{d} for any integer m"
        )
    # Row r is the grid point with index r in row-major order.
    grid = np.indices((m,) * d).reshape(d, n).T
    gaps = np.abs(grid[:, None, :] - grid[None, :, :])
    if wrap:
        gaps = np.minimum(gaps, m - gaps)
    # Distances come from integer index gaps so that rotations of the net
    # are bitwise isometries.
    dist = np.max(gaps * (np.asarray(sizes) / m), axis=-1)
    haus = max(c / (2 * m) for c in sizes)
    return FiniteMetricSpace(_default_labels(n), dist), haus


def _cloud_net(full: FiniteMetricSpace, n: int) -> tuple[FiniteMetricSpace, float]:
    total = full.n_points
    if n > total:
        raise ConfigError(f"requested {n} net points from a {total}-point cloud")
    selected = [0]
    while len(selected) < n:
        gaps = np.min(full.dist[:, selected], axis=1)
        selected.append(int(np.argmax(gaps)))
    selected = sorted(selected)
    labels = tuple(full.labels[i] for i in selected)
    net = FiniteMetricSpace(labels, full.dist[np.ix_(selected, selected)])
    # The net is a subset of the cloud, so the Hausdorff distance between
    # them is the farthest any cloud point lies from the net.
    haus = float(np.max(np.min(full.dist[:, selected], axis=1)))
    return net, haus


def epsilon_net(generator: Generator, n: int) -> tuple[FiniteMetricSpace, float]:
    """An n-point net of a compact space and a Hausdorff bound.

    For circles, intervals and flat tori the nets are equispaced (grids for
    tori, which therefore require a perfect d-th power point count) and the
    returned Hausdorff distance between the space and the net is exact.  A
    finite metric space is its own generator: its net is a greedy
    farthest-point subset and the Hausdorff value is computed exactly by
    enumeration.
    """
    if n < 1:
        raise ConfigError("a net needs at least one point")
    if isinstance(generator, Circle):
        return _grid_net((generator.circumference,), n, wrap=True)
    if isinstance(generator, Interval):
        return _grid_net((generator.length,), n, wrap=False)
    if isinstance(generator, FlatTorus):
        return _grid_net(generator.circumferences, n, wrap=True)
    if isinstance(generator, FiniteMetricSpace):
        return _cloud_net(generator, n)
    raise ConfigError(f"unknown space generator {generator!r}")


# ---------------------------------------------------------------------------
# Text input format.
# ---------------------------------------------------------------------------


def json_number_array(value, what: str) -> np.ndarray:
    """A parsed JSON value as a float array, if every entry of its nested
    lists is a JSON number; a string or a bool is not one, so nothing is
    coerced, and any other entry raises ``ConfigError`` naming ``what``."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(reversed(item))
        elif type(item) not in (int, float):
            raise ConfigError(f"{what} entries must be numbers, got {item!r}")
    return np.asarray(value, dtype=float)


def space_from_dict(payload: dict) -> FiniteMetricSpace:
    """Build a space from the text input format.

    The payload is a parsed JSON object with optional ``labels`` and exactly
    one of ``dist`` (full distance matrix) or ``points`` (Euclidean
    coordinates), whose entries must be JSON numbers.  The labels, if given,
    are a JSON array of strings.  Matrices failing the metric axioms are
    rejected at construction.
    """
    if not isinstance(payload, dict):
        raise ConfigError("space payload must be a JSON object")
    has_dist = "dist" in payload
    has_points = "points" in payload
    if has_dist == has_points:
        raise ConfigError("space payload needs exactly one of 'dist' or 'points'")
    labels = payload.get("labels")
    if "labels" in payload and not isinstance(labels, list):
        raise ConfigError(f"labels must be a JSON array of strings, got {labels!r}")
    if has_points:
        return FiniteMetricSpace.from_points(json_number_array(payload["points"], "points"), labels)
    dist = json_number_array(payload["dist"], "dist")
    if labels is None:
        labels = _default_labels(len(dist) if dist.ndim else 0)
    return FiniteMetricSpace(labels, dist)
