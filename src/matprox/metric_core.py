"""Finite metric spaces and their commutative metric geometry.

This module provides the ground-space side of the library: validated finite
metric spaces, Lipschitz seminorms of functions, Monge-Kantorovich
(Wasserstein-1) distances between probability measures computed by LP
duality, Hausdorff distances between subsets, and equispaced nets of a few
built-in compact spaces together with exact Hausdorff bounds for them.

Functions on a space and probability measures are represented as plain
``numpy`` vectors indexed like the space's labels; helpers validate them
where an operation needs the invariants (measure weights nonnegative and
summing to one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
from scipy.optimize import linprog

from .errors import (
    ConfigError,
    DegenerateSpaceError,
    EmptySetError,
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


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A labeled finite set of points with a validated distance matrix.

    Construction enforces the metric axioms: zero diagonal, symmetry,
    strictly positive off-diagonal entries, and the triangle inequality
    (checked in O(n^3) time and O(n^2) memory, with a small relative
    tolerance for rounding in distances derived from coordinates).  The
    stored matrix is exactly symmetric and read-only.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self) -> None:
        dist = np.asarray(self.dist, dtype=float)
        n = len(self.labels)
        if dist.shape != (n, n):
            raise InputShapeError(
                f"distance matrix shape {dist.shape} does not match {n} labels"
            )
        if len(set(self.labels)) != n:
            raise MetricAxiomError("point labels must be distinct")
        if not np.all(np.isfinite(dist)):
            raise MetricAxiomError("distances must be finite")
        scale = float(np.max(np.abs(dist))) if n > 1 else 1.0
        tol = _AXIOM_RTOL * max(scale, 1.0)
        if np.max(np.abs(dist - dist.T)) > tol:
            raise MetricAxiomError("distance matrix is not symmetric")
        dist = (dist + dist.T) / 2.0
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
                    via = (rows[:, :, None] + dist[None, :, :]).min(axis=1)
                    worst = max(worst, float(np.max(rows - via)))
                if worst > tol:
                    raise MetricAxiomError(
                        f"triangle inequality violated by {worst:.3e}"
                    )
        dist.setflags(write=False)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def n_points(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None

    def resolve(self, keys: Iterable[Union[int, str]]) -> np.ndarray:
        """Resolve a mix of integer indices and labels to an index array."""
        out = []
        for k in keys:
            if isinstance(k, str):
                out.append(self.index(k))
            else:
                i = int(k)
                if not 0 <= i < self.n_points:
                    raise KeyError(f"point index {i} out of range")
                out.append(i)
        return np.asarray(out, dtype=int)

    def restrict(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        idx = self.resolve(indices)
        labels = tuple(self.labels[i] for i in idx)
        return FiniteMetricSpace(labels, self.dist[np.ix_(idx, idx)])

    @classmethod
    def from_points(
        cls, points: np.ndarray, labels: Sequence[str] | None = None
    ) -> "FiniteMetricSpace":
        """Build a space from Euclidean coordinates (rows are points)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        n = pts.shape[0]
        if labels is None:
            labels = tuple(f"p{i}" for i in range(n))
        # Coordinates near the float limit overflow to inf here, and
        # __post_init__ rejects the non-finite distances that result.
        with np.errstate(over="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
        return cls(tuple(labels), dist)


def check_function(space: FiniteMetricSpace, values: np.ndarray) -> np.ndarray:
    """Validate a function vector against a space; returns a float/complex array."""
    f = np.asarray(values)
    if f.shape != (space.n_points,):
        raise InputShapeError(
            f"function has {f.shape} values, space has {space.n_points} points"
        )
    return f


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


def diameter(space: FiniteMetricSpace) -> float:
    """Largest pairwise distance; zero for a single point."""
    return float(np.max(space.dist))


def random_cloud_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """Gaussian points in R^3, redrawn until no two lie within 1e-3."""
    while True:
        space = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
        if n == 1 or min_separation(space) > 1e-3:
            return space


def lipschitz_seminorm(space: FiniteMetricSpace, values: np.ndarray) -> float:
    """Largest ratio |f(x) - f(y)| / d(x, y) over pairs of distinct points.

    Finite spaces make the supremum a maximum, so the value is always
    finite.  A single-point space returns 0 by convention.  Complex-valued
    functions are accepted; differences are measured in modulus.
    """
    f = check_function(space, values)
    return float(lipschitz_seminorms(space, f[None])[0])


def lipschitz_seminorms(space: FiniteMetricSpace, batch: np.ndarray) -> np.ndarray:
    """Vectorized :func:`lipschitz_seminorm` over a (count, n) batch."""
    fs = np.asarray(batch)
    if fs.ndim != 2 or fs.shape[1] != space.n_points:
        raise InputShapeError("batch must have shape (count, n_points)")
    n = space.n_points
    if n < 2:
        return np.zeros(fs.shape[0])
    num = np.abs(fs[:, :, None] - fs[:, None, :])
    mask = ~np.eye(n, dtype=bool)
    return np.max(num[:, mask] / space.dist[mask][None, :], axis=1)


def lipschitz_constraints(space: FiniteMetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """The unit-Lipschitz polytope {f : |f_i - f_j| <= d(i, j)} as A f <= b.

    Each pair i < j, in ``np.triu_indices`` order, contributes the row
    f_i - f_j <= d(i, j) followed by its negation; LP solvers see the rows
    in exactly this order.
    """
    n = space.n_points
    i, j = np.triu_indices(n, k=1)
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


def mk_distance(
    space: FiniteMetricSpace, p: np.ndarray, q: np.ndarray
) -> float:
    """Monge-Kantorovich (Wasserstein-1) distance between two measures.

    Solves the dual LP: maximize sum_i f_i (p_i - q_i) over functions with
    |f_i - f_j| <= d(i, j) for all pairs.  The value of f at the first point
    is pinned to zero; the objective only sees differences of f against the
    measure difference, so the pin removes the constant-function degeneracy
    without changing the optimum.  Intended for desk-scale spaces
    (<= 64 points).
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
    res = linprog(
        c=-z[1:],
        A_ub=a_ub[:, 1:],
        b_ub=b_ub,
        bounds=[(None, None)] * (n - 1),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(max(-res.fun, 0.0))


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


def hausdorff_distance(
    space: FiniteMetricSpace,
    subset_a: Iterable[Union[int, str]],
    subset_b: Iterable[Union[int, str]],
) -> float:
    """Hausdorff distance between two nonempty subsets of the point set."""
    ia = space.resolve(list(subset_a))
    ib = space.resolve(list(subset_b))
    if ia.size == 0 or ib.size == 0:
        raise EmptySetError("Hausdorff distance needs nonempty subsets")
    block = space.dist[np.ix_(ia, ib)]
    a_to_b = float(np.max(np.min(block, axis=1)))
    b_to_a = float(np.max(np.min(block, axis=0)))
    return max(a_to_b, b_to_a)


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


@dataclass(frozen=True)
class PointCloud:
    """An explicit finite point list in Euclidean space (already compact)."""

    points: np.ndarray
    labels: tuple[str, ...] | None = None


Generator = Union[Circle, Interval, FlatTorus, PointCloud]


def _line_net(extent: float, n: int, wrap: bool) -> tuple[FiniteMetricSpace, float]:
    """Equispaced n-net of a circle (``wrap``) or of a segment of that length."""
    if extent <= 0.0:
        raise ConfigError(
            "circle circumference must be positive"
            if wrap
            else "interval length must be positive"
        )
    gaps = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    if wrap:
        gaps = np.minimum(gaps, n - gaps)
    # Distances come from integer index gaps so that rotations of the net
    # are bitwise isometries.
    dist = (extent / n) * gaps
    labels = tuple(f"p{i}" for i in range(n))
    return FiniteMetricSpace(labels, dist), extent / (2 * n)


def _torus_net(
    circumferences: tuple[float, ...], n: int
) -> tuple[FiniteMetricSpace, float]:
    circs = tuple(float(c) for c in circumferences)
    if len(circs) < 1 or any(c <= 0.0 for c in circs):
        raise ConfigError("torus circumferences must be a nonempty positive tuple")
    d = len(circs)
    m = round(n ** (1.0 / d))
    while m**d > n:
        m -= 1
    if m < 1 or m**d != n:
        raise ConfigError(
            f"torus nets are grids: point count {n} must be a perfect {d}-th power"
        )
    grid = np.stack(
        np.meshgrid(*[np.arange(m)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    gaps = np.abs(grid[:, None, :] - grid[None, :, :])
    gaps = np.minimum(gaps, m - gaps)
    per_axis = gaps * (np.asarray(circs) / m)
    dist = np.max(per_axis, axis=-1)
    labels = tuple(f"p{i}" for i in range(n))
    haus = max(c / (2 * m) for c in circs)
    return FiniteMetricSpace(labels, dist), haus


def _cloud_net(cloud: PointCloud, n: int) -> tuple[FiniteMetricSpace, float]:
    full = FiniteMetricSpace.from_points(cloud.points, cloud.labels)
    total = full.n_points
    if n > total:
        raise ConfigError(f"requested {n} net points from a {total}-point cloud")
    selected = [0]
    while len(selected) < n:
        gaps = np.min(full.dist[:, selected], axis=1)
        selected.append(int(np.argmax(gaps)))
    selected = sorted(selected)
    net = full.restrict(selected)
    haus = float(np.max(np.min(full.dist[:, selected], axis=1)))
    return net, haus


def epsilon_net(generator: Generator, n: int) -> tuple[FiniteMetricSpace, float]:
    """An n-point net of a built-in compact space and a Hausdorff bound.

    For circles, intervals and flat tori the nets are equispaced (grids for
    tori, which therefore require a perfect d-th power point count) and the
    returned Hausdorff distance between the space and the net is exact.  For
    point clouds the net is a greedy farthest-point subset and the Hausdorff
    value is computed exactly by enumeration.
    """
    if n < 1:
        raise ConfigError("a net needs at least one point")
    if isinstance(generator, Circle):
        return _line_net(generator.circumference, n, wrap=True)
    if isinstance(generator, Interval):
        return _line_net(generator.length, n, wrap=False)
    if isinstance(generator, FlatTorus):
        return _torus_net(generator.circumferences, n)
    if isinstance(generator, PointCloud):
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
    coordinates), whose entries must be JSON numbers.  Matrices failing the
    metric axioms are rejected at construction.
    """
    if not isinstance(payload, dict):
        raise ConfigError("space payload must be a JSON object")
    has_dist = "dist" in payload
    has_points = "points" in payload
    if has_dist == has_points:
        raise ConfigError("space payload needs exactly one of 'dist' or 'points'")
    labels = payload.get("labels")
    if has_points:
        return FiniteMetricSpace.from_points(json_number_array(payload["points"], "points"), labels)
    dist = json_number_array(payload["dist"], "dist")
    if labels is None:
        labels = tuple(f"p{i}" for i in range(dist.shape[0]))
    return FiniteMetricSpace(tuple(labels), dist)
