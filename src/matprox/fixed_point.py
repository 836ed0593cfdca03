"""Fuzzy tori, dual actions of finite torus subgroups, and fixed-point data.

The fuzzy torus of order q is the full q x q matrix algebra generated by
the clock matrix U = diag(1, w, ..., w^(q-1)) and the cyclic shift V, with
w = exp(2 pi i p / q), gcd(p, q) = 1, and the commutation relation
VU = w UV.  The monomials U^m V^n form an orthonormal basis for the
normalized trace, and the finite torus group Z_q x Z_q acts dually by
scaling the (m, n) coefficient with exp(2 pi i (j m + k n) / q).

On top of that sit: the action Lipschitz seminorm (largest displacement of
an element under the nontrivial group elements, relative to a length
function), the subgroup lattice of Z_q x Z_q with its Hausdorff geometry,
Haar-averaging conditional expectations onto fixed-point subalgebras (exact
finite averages, implemented as coefficient masks), sampled expectation
gaps between two subgroups, bridge-style reach reports, and the mean
distance m(H->K) of :func:`mean_distance`, which is the exact reach of
averaging over K on the functions fixed by H, the commutative form of the
same averaging story.

Everything is a finite-group specialization: the acting group is the
q-torsion subgroup of the 2-torus, Haar integrals are uniform averages, and
the seminorm maximum runs over the q^2 - 1 nontrivial group elements (only
those act on the algebra, since a root of unity relation pins the acting
parameters).  The fuzzy-torus values over unit balls are sampled and
labeled so: the gap is a lower bound, and each reach direction a largest
witness value, which bounds its own sample's distance to the other fixed
algebra from above.  The mean distance is exact, in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputShapeError
from . import metric_core
from .matrix_algebra import hermitian_part, matrix_stack, operator_norms
from .metric_core import blocks

GroupElement = tuple[int, int]


@functools.cache
def _order_tables(q: int) -> tuple[np.ndarray, ...]:
    """The p-independent tables of the fuzzy torus of order q, built once per
    order and read-only, shared by every :class:`FuzzyTorus` of that order:
    the characters, the index grids, the dual action's gather and phase
    tables and the shift.  The two action tables take 24 q^3 bytes, about
    6 MiB at q = 64, and the rest O(q^2)."""
    # Characters of the acting group are p-independent roots of unity,
    # conjugate-symmetric bitwise: roots[-m] is the exact conjugate of
    # roots[m] and roots[q / 2] is exactly -1.  The dual action then maps
    # bitwise self-adjoint elements to bitwise self-adjoint ones.
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    upper = np.arange(q // 2 + 1, q)
    roots[upper] = roots[q - upper].conj()
    if q % 2 == 0:
        roots[q // 2] = -1.0
    shift = np.zeros((q, q), dtype=complex)
    shift[np.arange(q), (np.arange(q) + 1) % q] = 1.0
    rows = np.arange(q)[:, None]
    offs = np.arange(q)[None, :]
    # Index grid: entry (r, c) of row_grid is r.
    row_grid = np.broadcast_to(rows, (q, q))
    gather_cols = (rows + offs) % q
    # Entry (r, c) lies on the diagonal offset (c - r) mod q.
    entry_offsets = (offs - rows) % q
    # The dual action's tables over flattened entries r q + c: row s of
    # shift_gather reads a[r + s, c + s], row k of action_phases holds
    # rho^(k (c - r)).
    shifts = np.arange(q)[:, None, None]
    shift_gather = (((rows + shifts) % q) * q + (offs + shifts) % q).reshape(q, q * q)
    action_phases = roots[(shifts * entry_offsets) % q].reshape(q, q * q)
    tables = (roots, row_grid, gather_cols, entry_offsets, shift_gather, action_phases, shift)
    for table in tables:
        table.setflags(write=False)
    return tables


class FuzzyTorus:
    """Clock and shift matrices of order q with twist exp(2 pi i p / q).

    The tables that depend on q alone (characters, index grids, the dual
    action's gather and phase tables, ``shift``) are built once per order in
    the process, read-only, and shared by every torus of that order: about
    6 MiB at q = 64.  Each torus builds only its twist's arrays: ``omega``,
    the twist powers, ``clock``, the coefficient transform and p^-1 mod q.
    """

    def __init__(self, q: int, p: int = 1) -> None:
        if q < 2:
            raise ConfigError("fuzzy torus order must be at least 2")
        if math.gcd(p % q, q) != 1:
            raise ConfigError(f"twist parameter p={p} must be coprime to q={q}")
        self.q = int(q)
        self.p = int(p % q)
        (self._roots, self._row_grid, self._gather_cols, self._entry_offsets,
         self._shift_gather, self._action_phases, self.shift) = _order_tables(self.q)
        self.omega = complex(np.exp(2j * np.pi * self.p / self.q))
        # Powers of the twist root, indexed mod q; used for U and the basis.
        self._twist_powers = np.exp(2j * np.pi * self.p * np.arange(q) / q)
        self.clock = np.diag(self._twist_powers)
        self._p_inv = pow(self.p, -1, q)
        # W[r, m] = w^(m r); coefficient transform satisfies W^H W = q I.
        rows = np.arange(q)
        self._char = self._twist_powers[np.outer(rows, rows) % q]

    # -- basis and coefficients ------------------------------------------

    def monomial(self, m: int | np.ndarray, n: int | np.ndarray) -> np.ndarray:
        """The basis element U^m V^n (unit trace-norm, unitary), or the stack
        of them for index arrays: w^(m r) at (r, r + n)."""
        m = np.asarray(m)[..., None, None]
        n = np.asarray(n)[..., None, None]
        return np.where(
            self._entry_offsets == n % self.q,
            self._twist_powers[(m * self._row_grid) % self.q],
            0.0,
        )

    def to_coefficients(self, a: np.ndarray) -> np.ndarray:
        """Expand a matrix, or a (..., q, q) stack, over the monomial basis;
        c[..., m, n] multiplies U^m V^n."""
        diag_offsets = matrix_stack(a, self.q)[..., self._row_grid, self._gather_cols]
        return (self._char.conj().T @ diag_offsets) / self.q

    def from_coefficients(self, c: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_coefficients`, for one grid or a stack."""
        diag_offsets = self._char @ matrix_stack(c, self.q)
        mat = np.zeros(diag_offsets.shape, dtype=complex)
        mat[..., self._row_grid, self._gather_cols] = diag_offsets
        return mat

    # -- the dual action --------------------------------------------------

    def dual_action(self, g: GroupElement, a: np.ndarray) -> np.ndarray:
        """Apply the automorphism of the group element g = (j, k).

        alpha^g is conjugation by a monomial unitary: in diagonal-offset
        coordinates d[r, n] = a[r, r + n] it shifts rows by s = j / p mod q
        and scales offset n by rho^(k n), so entrywise
        alpha^g(a)[r, c] = rho^(k (c - r)) a[r + s, c + s], indices mod q.
        On a (count, q, q) stack, j and k may be arrays of length count:
        one group element per matrix.
        """
        q = self.q
        mat = matrix_stack(a, q, axes=3 if np.ndim(a) > 2 else 2)
        flat = mat.reshape(-1, q * q)
        j, k = (np.broadcast_to(x, len(flat)) for x in g)
        moved = np.take_along_axis(flat, self._shift_gather[(self._p_inv * j) % q], axis=1)
        # Phases first: numpy's complex product need not commute bitwise.
        return np.multiply(self._action_phases[k % q], moved, out=moved).reshape(mat.shape)

    def action_unitary(self, g: GroupElement) -> np.ndarray:
        """A unitary whose conjugation realizes the group element's action.

        Shift powers scale the clock index, clock powers scale the shift
        index; inverting the twist parameter mod q aligns the conjugation
        phases with the dual characters.
        """
        j, k = g
        s = (self._p_inv * j) % self.q
        t = (-self._p_inv * k) % self.q
        return np.linalg.matrix_power(self.shift, s) @ np.linalg.matrix_power(
            self.clock, t
        )


# ---------------------------------------------------------------------------
# Length functions on the finite torus group.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LengthFunction:
    """A length function on Z_q x Z_q: zero only at the identity, symmetric
    under inversion, subadditive.  User-supplied value tables are validated
    against all three axioms at construction.  Two length functions are
    equal, and hash equal, exactly when their orders and table bits agree.

    Each one also keeps the gap terms of the coefficient lines that
    :func:`_line_peaks` has computed with it: one (q^2, 2) table per twist
    p, 64 KiB at q = 64, filled as monomials are asked for.  The terms
    depend only on q, p and the table, and take no part in the comparison.
    """

    q: int
    values: np.ndarray
    _line_terms: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        q = self.q
        if vals.shape != (q, q):
            raise ConfigError(f"length table has shape {vals.shape}, expected ({q}, {q})")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("lengths must be finite")
        # FiniteMetricSpace's tolerance: relative to the table's scale past 1.
        tol = metric_core._AXIOM_RTOL * max(float(np.max(np.abs(vals))), 1.0)
        if abs(vals[0, 0]) > tol:
            raise ConfigError("length of the identity must be zero")
        positive = vals.copy()
        positive[0, 0] = 1.0
        if np.min(positive) <= 0.0:
            raise ConfigError("length must be positive away from the identity")
        inv = vals[(-np.arange(q)) % q][:, (-np.arange(q)) % q]
        if np.max(np.abs(vals - inv)) > tol:
            raise ConfigError("length must be invariant under inversion")
        # One first summand row j1 at a time keeps the check at q^3 memory.
        r = np.arange(q)
        k1 = r[:, None, None]
        j2 = r[None, :, None]
        k2 = r[None, None, :]
        excess = (
            vals[(j1 + j2) % q, (k1 + k2) % q] - (vals[j1, k1] + vals[j2, k2])
            for j1 in range(q)
        )
        worst = max(float(np.max(e)) for e in excess)
        if worst > tol:
            raise ConfigError(f"length is not subadditive (excess {worst:.3e})")
        vals = vals.copy()
        vals[0, 0] = 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    @functools.cache
    def max_arc(cls, q: int) -> "LengthFunction":
        """Largest coordinate angle, with angles wrapped to (-pi, pi]; one
        read-only instance per q, so the q^3 validation runs once per q."""
        idx = np.arange(q)
        arc = 2.0 * np.pi * np.minimum(idx, q - idx) / q
        vals = np.maximum(arc[:, None], arc[None, :])
        return cls(q, vals)

    def __call__(self, g: GroupElement) -> float:
        return float(self.values[g[0] % self.q, g[1] % self.q])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.q == other.q and self.values.tobytes() == other.values.tobytes()

    def __hash__(self) -> int:
        return hash((self.q, self.values.tobytes()))


# ---------------------------------------------------------------------------
# Subgroups of Z_q x Z_q.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusSubgroup:
    """A subgroup H of Z_q x Z_q as its triangular basis (a, 0), (s, b), with
    a | q, b | q, 0 <= s < a and a | s q / b.  b spans H's projection to the
    second factor and a its part in the first, so each H has exactly one
    basis, and two subgroups are equal, and hash equal, exactly when they
    are the same set, however they were given."""

    q: int
    a: int
    s: int
    b: int

    def __post_init__(self) -> None:
        q, a, s, b = self.q, self.a, self.s, self.b
        if not (0 <= s < a and b > 0 and q % a == q % b == s * (q // b) % a == 0):
            raise ConfigError(f"({a}, 0), ({s}, {b}) is not a triangular basis in Z_{q}^2")

    @property
    def order(self) -> int:
        return (self.q // self.a) * (self.q // self.b)

    @functools.cache
    def cosets(self) -> np.ndarray:
        """The q x q table of coset indices: (j, k) + H has the index
        ((j - s (k // b)) mod a) b + k mod b, and H itself the index 0.

        Built once per subgroup in the process, keyed by its basis, and
        read-only, as is :meth:`element_array`.  Both tables of every
        subgroup of one order take at most 22 MiB for q <= 64 (at q = 60,
        with 720 subgroups), and 0.12 MiB at q = 12."""
        j = np.arange(self.q)[:, None]
        k = np.arange(self.q)
        table = (j - self.s * (k // self.b)) % self.a * self.b + k % self.b
        table.setflags(write=False)
        return table

    @functools.cache
    def element_array(self) -> np.ndarray:
        elements = np.argwhere(self.cosets() == 0)  # rows in lexicographic order
        elements.setflags(write=False)
        return elements

    @property
    def elements(self) -> frozenset[GroupElement]:
        return frozenset(map(tuple, self.element_array().tolist()))

    @classmethod
    def trivial(cls, q: int) -> "TorusSubgroup":
        return cls(q, q, 0, q)

    @classmethod
    def full(cls, q: int) -> "TorusSubgroup":
        return cls(q, 1, 0, 1)

    @classmethod
    def from_generators(cls, q: int, *gens: GroupElement) -> "TorusSubgroup":
        """(a, 0), (s, b) is the Hermite basis of the lattice L = q Z^2 + span(gens).
        A generator (j, k) folds in by one extended-gcd step: with g = gcd(b, k)
        = u b + v k, (s, b) and (j, k) span the lattice of (u s + v j, g) and
        ((k s - b j) / g, 0).  The new a divides s q / g because L holds (0, q).
        With no generators, L = q Z^2 gives the trivial subgroup."""
        a, s, b = q, 0, q
        for j, k in ((int(j) % q, int(k) % q) for j, k in gens):
            g = math.gcd(b, k)
            v = pow(k // g, -1, b // g)
            u = (g - v * k) // b
            a = math.gcd(a, (k * s - b * j) // g)
            s, b = (u * s + v * j) % a, g
        return cls(q, a, s, b)

    @classmethod
    def cyclic_first_factor(cls, q: int, m: int) -> "TorusSubgroup":
        """The copy of Z_m inside the first factor (m must divide q)."""
        if m < 1 or q % m != 0:
            raise ConfigError(f"{m} does not divide {q}")
        return cls.from_generators(q, (q // m, 0))


def _divisors(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def enumerate_subgroups(q: int) -> list[TorusSubgroup]:
    """All subgroups of Z_q x Z_q, one per triangular basis: divisors a, b of
    q and a shear s over the multiples of a / gcd(a, q/b) below a.  Sorted by
    (order, elements).  Desk scale only (q <= 24)."""
    if q < 2:
        raise ConfigError("group order must be at least 2")
    if q > 24:
        raise ConfigError("subgroup enumeration is desk scale only (q <= 24)")
    subgroups = [
        TorusSubgroup(q, a, s, b)
        for a in _divisors(q)
        for b in _divisors(q)
        for s in range(0, a, a // math.gcd(a, q // b))
    ]
    return sorted(subgroups, key=lambda h: (h.order, h.element_array().tolist()))


def _distances_to(ell: LengthFunction, h: TorusSubgroup, points: np.ndarray) -> np.ndarray:
    """min over x in H of length(p - x) at each row p of ``points``: the least
    length on the coset p + H, from one pass over the group by coset index."""
    cosets = h.cosets()
    least = np.full(h.a * h.b, np.inf)
    np.minimum.at(least, cosets.ravel(), ell.values.ravel())
    return least[cosets[points[:, 0], points[:, 1]]]


def subgroup_hausdorff(
    ell: LengthFunction, h: TorusSubgroup, k: TorusSubgroup
) -> float:
    """Hausdorff distance of two subgroups under the invariant metric
    d(g, g') = length(g' - g)."""
    if h.q != k.q or h.q != ell.q:
        raise InputShapeError("subgroups and length function must share one ambient group")
    return float(max(_distances_to(ell, h, k.element_array()).max(),
                     _distances_to(ell, k, h.element_array()).max()))


def mean_distance(ell: LengthFunction, h: TorusSubgroup, k: TorusSubgroup) -> float:
    """m(H->K) = mean over k in K of min over h in H of length(k - h): the
    exact reach of averaging over K on the functions fixed by H.

    Let d(x, y) = min over h in H of length(y - x - h), the invariant metric
    of Z_q^2 / H, and E f(x) = mean_{k in K} f(x + k).  For f fixed by H and
    1-Lipschitz for d, |f(x) - E f(x)| = |mean_k (f(x) - f(x + k))| <=
    mean_k d(x, x + k) = m(H->K) at every x.  And f = d(0, .) is fixed by H
    and 1-Lipschitz, with f(0) = 0 and E f(0) = mean_k d(0, k) = m(H->K), so
    it attains the bound at x = 0.  With H trivial and K the rotations of
    order |K| of a circle net, this is the orbit-averaging reach of the
    net: the mean distance from a point to its orbit.  In floats the mean
    of |K| lengths is within about |K| ulps of its exact value; the sampled
    counterpart is ``oracles.sampled_orbit_reach``.  Never above
    :func:`subgroup_hausdorff`, a maximum of the same minima."""
    if h.q != k.q or h.q != ell.q:
        raise InputShapeError("subgroups and length function must share one ambient group")
    return float(_distances_to(ell, h, k.element_array()).mean())


# ---------------------------------------------------------------------------
# Averaging expectations and fixed-point subalgebras.
# ---------------------------------------------------------------------------


class AveragingExpectation:
    """Uniform average of the dual action over a subgroup.

    Averaging the character exp(2 pi i (j m + k n) / q) over a subgroup
    yields one when the character is trivial on it and zero otherwise, so
    the expectation keeps exactly the coefficients whose character is
    trivial on the subgroup's basis vectors (a, 0) and (s, b): two exact
    integer congruences.  The brute-force average of conjugated copies
    serves as an independent oracle in the tests.
    """

    def __init__(self, torus: FuzzyTorus, subgroup: TorusSubgroup) -> None:
        if subgroup.q != torus.q:
            raise InputShapeError(
                f"subgroup lives in Z_{subgroup.q}^2, torus has order {torus.q}"
            )
        self.torus = torus
        m = np.arange(torus.q)[:, None]
        n = np.arange(torus.q)
        mask = (subgroup.a * m % torus.q == 0) & ((subgroup.s * m + subgroup.b * n) % torus.q == 0)
        mask.setflags(write=False)
        self.mask = mask

    def __call__(self, a: np.ndarray) -> np.ndarray:
        c = self.torus.to_coefficients(a)
        return self.torus.from_coefficients(np.where(self.mask, c, 0.0))

    @property
    def fixed_dimension(self) -> int:
        """Monomials spanning the fixed-point subalgebra; times the subgroup
        order it is q^2 (annihilator duality for the finite torus)."""
        return int(np.sum(self.mask))


# ---------------------------------------------------------------------------
# The action Lipschitz seminorm.
# ---------------------------------------------------------------------------


def _frobenius_bounds(torus: FuzzyTorus, stack: np.ndarray) -> np.ndarray:
    """Upper bounds on ||a - alpha^g(a)|| over nontrivial g, shaped (count, q^2 - 1).

    The monomials are orthogonal with squared Frobenius norm q, so
    ||a - alpha^g(a)||_F^2 = 2q (sum |c_mn|^2 - Re sum |c_mn|^2 rho^(jm + kn)):
    one 2-D FFT of |c|^2 gives every g at once, and ||x||_2 <= ||x||_F.

    The margin covers rounding.  With S = sum |c|^2 and u the unit roundoff:
    the batched coefficient transform errs by at most (q + 8) u sum_r |d_rn| / q
    per entry, which by Cauchy-Schwarz moves sum |c|^2 by 4 (q + 8) sqrt(q) u S;
    squaring adds 3 u S; the FFT's 2-norm error, about 14 u log2(q) times
    ||fft2(|c|^2)||_2 = q ||(|c|^2)||_2 <= q S, bounds its error in any one
    entry.  tau S with tau = 64 (q + 8) q u covers each of the two FFT entries
    in the difference more than ten times over for every q >= 2, and since
    ||a - alpha^g(a)||_F^2 <= 4 q S the margin also dwarfs the last roundings.
    """
    q = torus.q
    coeffs = torus.to_coefficients(stack)
    spectrum = np.fft.fft2(coeffs.real**2 + coeffs.imag**2).real
    total = spectrum[:, :1, :1]
    frob_sq = 2.0 * q * (total - spectrum)
    tau = 64.0 * (q + 8) * q * np.finfo(float).eps / 2.0
    margin = 4.0 * q * tau * total
    bound = np.sqrt(np.maximum(frob_sq, 0.0) + margin)
    return bound.reshape(len(stack), q * q)[:, 1:]


def _differences(
    torus: FuzzyTorus, stack: np.ndarray, elem: np.ndarray, slot: np.ndarray
) -> np.ndarray:
    """a - alpha^g(a) for stack[elem] and the nontrivial g of index slot."""
    picked = stack[elem]
    return picked - torus.dual_action(np.divmod(slot + 1, torus.q), picked)


def _schatten_bounds(diffs: np.ndarray) -> np.ndarray:
    """||x^H x||_F^(1/2) >= ||x||_2 for each x in a stack (the rounding margin
    is in :func:`action_lip_seminorms`), in blocks of an eighth of
    ``BLOCK_BYTES``, so the products add little memory."""
    out = np.empty(len(diffs))
    for block in blocks(len(diffs), 128 * diffs.shape[1] ** 2):
        x = diffs[block]
        gram = np.swapaxes(x, 1, 2).conj() @ x
        out[block] = np.sum(gram.real**2 + gram.imag**2, axis=(1, 2))
    return np.sqrt(np.sqrt(out))


def action_lip_seminorms(
    torus: FuzzyTorus, ell: LengthFunction, stack: np.ndarray
) -> np.ndarray:
    """Largest displacement ||a - alpha^g(a)|| / length(g) over nontrivial g,
    for each element a of a (count, q, q) stack.

    Exact maximum over the q^2 - 1 nontrivial g, folded to one g of each
    pair {g, -g}: ||a - alpha^(-g)(a)|| = ||alpha^(-g)(alpha^g(a) - a)|| =
    ||a - alpha^g(a)||, as alpha^(-g) is an isometric automorphism, so each
    representative g carries the length min(length(g), length(-g)), which
    takes the larger of the pair's two ratios even for a user table that is
    symmetric only up to rounding.

    The maximum is pruned: each element visits its representatives in
    descending order of the Frobenius bound, in chunks of at most
    ``BLOCK_BYTES`` of differences, and stops once no remaining bound
    exceeds the best exact value found.  The visits per element double from
    chunk to chunk.  Within a chunk, the differences meet the Schatten-4 test
    ||x||_2 <= ||x^H x||_F^(1/2), from ||x||_2^4 = ||x^H x||_2^2 <= the sum
    of the squared singular values of x^H x.  Only the differences that pass
    it get an exact operator norm.

    The Schatten-4 margin covers rounding.  With u the unit roundoff, each
    entry of the batched product P = fl(x^H x) is a complex inner product of
    length q, off by at most sqrt(2) gamma_(q+2) (|x|^T |x|)_ij, so
    ||P - x^H x||_F <= sqrt(2) gamma_(q+2) ||x||_F^2, an additive term that
    ||x||_F^2 <= q ||x||_2^2 (x has rank at most q) turns relative.  The sum
    S of the q^2 squared moduli of P is within gamma_(q^2+2) of ||P||_F^2.
    So ||x||_2^2 (1 - sqrt(2) q gamma_(q+2)) <= (S (1 + gamma_(q^2+2)))^(1/2),
    and ||x||_2 <= S^(1/4) (1 + ((q^2 + 2) / 4 + q (q + 2) / sqrt(2)) u) to
    first order: below S^(1/4) (1 + (q + 2)^2 u).  The factor
    1 + 4 (q + 2)^2 u covers that term four times over, which leaves room
    for the rounding of the two square roots and the division by the length.

    Both margins assume that no square or fourth power underflows or
    overflows, which fails far from unit scale.  So each element is first
    multiplied by the power of two that puts its largest entry modulus in
    [1/2, 1), and its maximum by the inverse power (``np.ldexp``, so even
    a subnormal element scales exactly).  Both products are exact unless a
    scaled entry or the result is subnormal, so an element at unit scale
    keeps its bits, and the margins hold for every element whose largest
    entry modulus is a finite nonzero float.
    """
    s = matrix_stack(stack, torus.q, axes=3)
    if ell.q != torus.q:
        raise InputShapeError("length function and torus orders differ")
    _, scale = np.frexp(np.abs(s).max(axis=(1, 2), initial=0.0))
    s = np.ldexp(np.ascontiguousarray(s).view(float), -scale[:, None, None]).view(complex)
    count = s.shape[0]
    q = torus.q
    j, k = np.divmod(np.arange(1, q * q), q)
    twin = (-j) % q * q + (-k) % q - 1  # slot of -g for each nontrivial slot of g
    reps = np.flatnonzero(np.arange(q * q - 1) <= twin)
    table = ell.values.ravel()[1:]  # the nontrivial g, row-major
    lengths = np.minimum(table[reps], table[twin[reps]])
    bounds = _frobenius_bounds(torus, s)[:, reps] / lengths
    order = np.argsort(-bounds, axis=1, kind="stable")
    ranked = np.take_along_axis(bounds, order, axis=1)
    per_chunk = max(1, metric_core.BLOCK_BYTES // (16 * q * q))
    schatten_slack = 1.0 + 4.0 * (q + 2) ** 2 * np.finfo(float).eps / 2.0
    best = np.zeros(count)
    visited = np.zeros(count, dtype=int)
    step = 1
    while True:
        live = np.sum(ranked > best[:, None], axis=1)
        quota = np.clip(live - visited, 0, step)
        total = int(quota.sum())
        if total == 0:
            return np.ldexp(best, scale)
        elem = np.repeat(np.arange(count), quota)
        rank = np.arange(total) - np.repeat(np.cumsum(quota) - quota, quota)
        if total > per_chunk:
            keep = np.sort(np.argsort(rank, kind="stable")[:per_chunk])
            elem, rank = elem[keep], rank[keep]
        slot = order[elem, visited[elem] + rank]
        diffs = _differences(torus, s, elem, reps[slot])
        schatten = _schatten_bounds(diffs)
        need = np.flatnonzero(schatten_slack * schatten / lengths[slot] > best[elem])
        if len(need):
            norms = operator_norms(diffs[need])
            np.maximum.at(best, elem[need], norms / lengths[slot[need]])
        visited += np.bincount(elem, minlength=count)
        step *= 2


# ---------------------------------------------------------------------------
# Expectation gaps and bridge-style reports.
# ---------------------------------------------------------------------------


def _line_norms(
    torus: FuzzyTorus, ell: LengthFunction, exponents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Operator norms and action seminorms of the coefficient lines, in closed
    form: for x = U^m V^n at each (m, n) row of ``exponents``, column 0 is
    the line x + x^* and column 1 the line i (x - x^*); both are (count, 2).

    No line is built as a matrix.  With rho = exp(2 pi i / q):

    - The action is a character: alpha_g(x) = rho^s x for g = (j, k) and
      s = j m + k n mod q, so alpha_g(x^*) = rho^(-s) x^*.
    - The spectrum of x.  x has entry w^(m r) at (r, r + n), so it maps
      e_(r+n) to w^(m r) e_r and is unitary.  Let G = gcd(n, q) (G = q for
      n = 0) and L = q / G.  The basis vectors of each residue r0 < G mod G
      form one cycle of x of length L, and x^L is the scalar w^(m S) on it,
      S = sum of the r = r0 mod G in [0, q) = L r0 + G L (L - 1) / 2.  So
      the cycle carries the L-th roots of w^(m S): the angles
      2 pi (e / q + t) / L for t < L, with e = p m S mod q.  These q
      eigenvalues zeta share their eigenvectors with x^*, which has the
      conjugates.
    - The norm of a difference.  With c = 1 - rho^s, x + x^* - alpha_g(x +
      x^*) = c x + (c x)^* has the eigenvalues 2 Re(c zeta), and i (x - x^*)
      - alpha_g(i (x - x^*)) = i c x + (i c x)^* has -2 Im(c zeta).  So each
      line has q difference norms N_s = 2 max |Re(c zeta)| or 2 max |Im(c
      zeta)|, one per s.
    - The seminorm is max over nontrivial g of N_(s(g)) / length(g): one
      gather over the q^2 - 1 group elements per monomial.  The lines'
      own norms are 2 max |Re zeta| and 2 max |Im zeta|.

    Monomials go in blocks of ``BLOCK_BYTES``, at 16 q^2 bytes each: the
    largest array of a block holds 2 q^2 floats per monomial.
    A line with x = x^* or x = -x^* vanishes; its closed-form norm and
    seminorm are then at rounding level.
    """
    q = torus.q
    idx = np.asarray(exponents, dtype=int).reshape(-1, 2) % q
    lengths = ell.values.ravel()[1:]  # the nontrivial g, row-major
    j, k = np.divmod(np.arange(1, q * q), q)
    c = 1.0 - torus._roots  # 1 - rho^s for each s
    norms = np.empty((len(idx), 2))
    seminorms = np.empty((len(idx), 2))
    for block in blocks(len(idx), 16 * q * q):
        m, n = idx[block, :1], idx[block, 1:]
        cycles = np.gcd(n, q)
        period = q // cycles
        r0, t = np.divmod(np.arange(q), period)
        e = (torus.p * m * (period * r0 + cycles * period * (period - 1) // 2)) % q
        zeta = np.exp(2j * np.pi * (e + q * t) / (q * period))  # (block, eigenvalue)
        norms[block] = 2.0 * np.stack(
            [np.abs(zeta.real).max(axis=1), np.abs(zeta.imag).max(axis=1)], axis=1
        )
        moved = c[:, None] * zeta[:, None, :]  # (block, s, eigenvalue)
        diff_norms = 2.0 * np.stack(
            [np.abs(moved.real).max(axis=2), np.abs(moved.imag).max(axis=2)], axis=1
        )  # (block, 2, s)
        s = (j * m + k * n) % q
        seminorms[block] = (np.take_along_axis(diff_norms, s[:, None, :], axis=2) / lengths).max(axis=2)
    return norms, seminorms


def _line_peaks(
    torus: FuzzyTorus, ell: LengthFunction, supports: Sequence[np.ndarray]
) -> list[float]:
    """Largest ||(E_h - E_k) u|| over the normalized coefficient lines u on
    each support H & ~K or K & ~H of the fixed-coefficient masks, 0.0 for an
    empty support.

    The lines are a cheap, exact floor, sampled alongside the random draws;
    the gap need not be attained on them.  Both masks are closed under
    negation, so each line l of x = U^m V^n on a support
    has (E_h - E_k) l = +-l, and its term is ||l|| / L(l) from
    :func:`_line_norms`, one exponent per pair {(m, n), (-m, -n)}.  A line
    whose norm is at rounding level (x = +-x^*) is dropped.

    The terms are kept in ``ell``'s line-term table for the twist
    ``torus.p``, keyed by the monomial (m q + n): one (q^2, 2) table per
    twist, 64 KiB at q = 64.  Only the monomials not yet in it are computed,
    in one call for all supports.  A monomial's term does not depend on the
    others computed with it, so a kept term has the bits of a fresh one.
    """
    q = torus.q
    if ell.q != q:
        raise InputShapeError("length function and torus orders differ")
    keys = []
    for support in supports:
        idx = np.argwhere(support)
        keys.append(np.unique(np.minimum(idx @ [q, 1], ((-idx) % q) @ [q, 1])))
    wanted = np.concatenate(keys)
    table = ell._line_terms.setdefault(torus.p, np.full((q * q, 2), np.nan))
    missing = np.unique(wanted[np.isnan(table[wanted, 0])])
    if len(missing):
        norms, seminorms = _line_norms(torus, ell, np.stack(np.divmod(missing, q), axis=1))
        table[missing] = np.divide(norms, seminorms, out=np.zeros_like(norms), where=norms > 1e-12)
    peaks = np.split(table[wanted], np.cumsum([len(k) for k in keys])[:-1])
    return [float(np.max(t, initial=0.0)) for t in peaks]


def _normalized_unit_ball(
    torus: FuzzyTorus, ell: LengthFunction, candidates: np.ndarray
) -> np.ndarray:
    """Center a (count, q, q) stack and rescale each element to action
    seminorm exactly one; elements with seminorm <= 1e-12 become zero, so
    the stack keeps its length.

    The elements go in blocks of ``BLOCK_BYTES``, which bounds the
    seminorm's working arrays; each element's seminorm is its own exact
    maximum, so the blocks change no value."""
    q = torus.q
    out = np.zeros(candidates.shape, dtype=complex)
    for rows in blocks(len(candidates), 16 * q * q):
        block = candidates[rows]
        traces = np.trace(block, axis1=1, axis2=2) / q
        # The images among the candidates are self-adjoint only up to
        # rounding; made bitwise so, every action difference takes eigvalsh.
        centered = hermitian_part(block - traces[:, None, None] * np.eye(q))
        values = action_lip_seminorms(torus, ell, centered)[:, None, None]
        np.divide(centered, values, out=out[rows], where=values > 1e-12)
    return out


def _draws(torus: FuzzyTorus, count: int, seed: int) -> np.ndarray:
    """The random self-adjoint draws of a sample: they depend only on q,
    ``count`` and the seed, so tables over varying subgroups share them.

    One normal draw of shape (count, 2, q, q) holds each draw's real and
    imaginary parts in the stream order of ``random_hermitian`` called once
    per draw, and assembles them as it does, as ``hermitian_part(x + 1j * y)``."""
    if count < 1:
        raise ConfigError("need at least one sample")
    q = torus.q
    parts = np.random.default_rng(seed).normal(size=(count, 2, q, q))
    return hermitian_part(parts[:, 0] + 1j * parts[:, 1])


def _sampled_gaps(
    torus: FuzzyTorus,
    ell: LengthFunction,
    e_h: AveragingExpectation,
    e_k: AveragingExpectation,
    draws: np.ndarray,
    units: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """The sampled gap and both bridge directions, from one normalized sample.

    The sample is the coefficient lines on H & ~K and on K & ~H (the fixed-
    coefficient masks, see :func:`_line_peaks`) and the draws normalized to
    the traceless unit ball: ``units``, if given, is that normalization.
    Without ``units``, E_h and E_k of the draws join the sample, normalized
    in one pass with the draws.  Every value is a largest ||(E_h - E_k) u||:
    the gap over all lines and the draws; left to right over the H & ~K lines
    and E_h of the draws, since u - E_k u = (E_h - E_k) u for u fixed by h;
    right to left over the K & ~H lines and E_k of the draws.  Each value is
    exactly 0.0 on an empty support; given ``units``, the directions cover
    the lines alone.  Each element's seminorm is its own exact maximum, so
    the gap does not depend on which of the two forms is used.
    """
    supports = (e_h.mask & ~e_k.mask, e_k.mask & ~e_h.mask)
    if not any(s.any() for s in supports):
        return 0.0, 0.0, 0.0
    lines = _line_peaks(torus, ell, supports)
    imaged = [units is None and s.any() for s in supports]
    if units is None:
        images = [e(draws) for e, t in zip((e_h, e_k), imaged) if t]
        units = _normalized_unit_ball(torus, ell, np.concatenate([draws, *images]))
        del images  # before the norms below; at q = 64 each image of 256 draws is 16 MiB
    signed_mask = e_h.mask.astype(float) - e_k.mask.astype(float)
    # The images are self-adjoint only up to rounding after the coefficient
    # round trip, so they take their Hermitian part.  No name holds them, so
    # they are freed before the norms run.
    norms = operator_norms(hermitian_part(
        torus.from_coefficients(signed_mask * torus.to_coefficients(units))
    ))
    # Peaks over the draws, E_h draws, E_k draws.
    sizes = [len(draws)] + [len(draws) * t for t in imaged]
    peak = [float(np.max(x, initial=0.0)) for x in np.split(norms, np.cumsum(sizes)[:-1])]
    return max(*lines, peak[0]), max(lines[0], peak[1]), max(lines[1], peak[2])


def expectation_gap(
    torus: FuzzyTorus,
    ell: LengthFunction,
    h: TorusSubgroup,
    k: TorusSubgroup,
    count: int = 64,
    seed: int = 0,
) -> float:
    """Sampled sup of ||E_h(a) - E_k(a)|| over the traceless unit ball.

    Samples are structured coefficient lines on the symmetric difference of
    the two fixed-coefficient sets plus random self-adjoint draws (the
    random part depends only on the seed, so tables over varying subgroups
    share their random samples).  This is a lower bound on the true
    supremum of a convex maximization; it is exactly zero when the
    subgroups agree.
    """
    e_h = AveragingExpectation(torus, h)
    e_k = AveragingExpectation(torus, k)
    draws = _draws(torus, count, seed)
    return _sampled_gaps(torus, ell, e_h, e_k, draws, _normalized_unit_ball(torus, ell, draws))[0]


@dataclass(frozen=True)
class FixedPointBridgeReport:
    """Sampled gap and reach data for the bridge between two fixed-point
    subalgebras.

    The bridge is the ambient algebra with the two canonical injections and
    the unit pivot (height zero).  ``gap_sampled`` is the sampled sup of
    ||E_h(a) - E_k(a)|| over the traceless unit ball, as from
    :func:`expectation_gap`, a lower bound on that sup.  Each direction's
    value is the worst sampled bridge norm of a unit-ball element of one
    fixed algebra against its witness, the other expectation applied to it
    (feasible because the expectations do not increase the seminorm); each
    bounds its sample's infimum from above, not the reach.  Sampled, not
    certified.
    """

    haus_ell: float
    gap_sampled: float
    worst_left_to_right: float
    worst_right_to_left: float
    reach_sampled: float
    dim_fixed_left: int
    dim_fixed_right: int


def fixed_point_bridge(
    torus: FuzzyTorus,
    ell: LengthFunction,
    h: TorusSubgroup,
    k: TorusSubgroup,
    count: int = 64,
    seed: int = 0,
) -> FixedPointBridgeReport:
    """Gap and reach report for the unit-pivot bridge between two fixed
    algebras, all three values taken from one sample (see ``_sampled_gaps``)."""
    e_h = AveragingExpectation(torus, h)
    e_k = AveragingExpectation(torus, k)
    gap, forward, backward = _sampled_gaps(torus, ell, e_h, e_k, _draws(torus, count, seed))
    return FixedPointBridgeReport(
        haus_ell=subgroup_hausdorff(ell, h, k),
        gap_sampled=gap,
        worst_left_to_right=forward,
        worst_right_to_left=backward,
        reach_sampled=max(forward, backward),
        dim_fixed_left=e_h.fixed_dimension,
        dim_fixed_right=e_k.fixed_dimension,
    )


def fixed_point_sweep(
    q_list: Sequence[int], count: int = 48, seed: int = 0
) -> list[dict]:
    """Gap versus subgroup-Hausdorff rows across torus orders.

    For each order q, runs the divisor chain of first-factor cyclic
    subgroups against the full first factor, exhibiting the gap shrinking
    with the Hausdorff distance across scales.  The draws depend only on q,
    ``count`` and the seed, so each order normalizes them once for all its
    rows; each row's gap is :func:`expectation_gap` of its pair bit for bit.
    """
    rows = []
    for q in q_list:
        torus = FuzzyTorus(q, 1)
        ell = LengthFunction.max_arc(q)
        limit = TorusSubgroup.cyclic_first_factor(q, q)
        e_limit = AveragingExpectation(torus, limit)
        draws = _draws(torus, count, seed)
        units = _normalized_unit_ball(torus, ell, draws)
        for m in _divisors(q):
            sub = TorusSubgroup.cyclic_first_factor(q, m)
            e_sub = AveragingExpectation(torus, sub)
            gap = _sampled_gaps(torus, ell, e_sub, e_limit, draws, units)[0]
            rows.append(
                {
                    "q": q,
                    "m": m,
                    "haus_ell": subgroup_hausdorff(ell, sub, limit),
                    "gap_sampled": gap,
                    "dim_fixed": e_sub.fixed_dimension,
                }
            )
    return rows
