"""Independent oracles used to cross-check the main computation paths.

Each oracle recomputes a quantity by a different method than the library
uses, or checks a constant the theory fixes: the transport distance by
enumerating vertices of the unit-Lipschitz polytope instead of solving an
LP, the reach certificate's witness by unit-ball samples instead of its
proof, the pinching seminorm with every deviation solved instead of
screened, operator norms by power iteration instead of SVD, group averaging
and the action seminorm by explicit conjugations instead of coefficient
masks and gathers, the unit-ball radius by 2n LPs instead of the closed
form that ``radius_bound`` in ``tests/test_lseminorm.py`` computes,
subgroups by brute-force closure instead of the triangular basis, subgroup
Hausdorff distances over all pairs of elements instead of cosets, the
fixed-point coefficient lines as matrices instead of their closed-form
spectra, the commutative reach by sampled functions instead of its closed
form, and the kernels of both seminorms (the scalars, dimension one) by a
nullity.  They are deliberately slow and simple.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

from .fixed_point import FuzzyTorus, GroupElement, LengthFunction, TorusSubgroup
from .lseminorm import ApproximationPair, sample_unit_ball
from .matrix_algebra import operator_norm, operator_norms
from .metric_core import (
    FiniteMetricSpace,
    check_probability,
    lipschitz_constraints,
    lipschitz_seminorms,
)


def enumerate_lipschitz_vertices(space: FiniteMetricSpace) -> np.ndarray:
    """All vertices of {f : f_0 = 0, |f_i - f_j| <= d(i, j)}.

    A vertex is pinned by a spanning tree of tight constraints with signs,
    so the enumeration walks every (n-1)-edge spanning tree of the complete
    graph, every sign pattern, solves the tree for f by propagation from
    the root, and keeps the feasible results.  Exponential and meant for
    n <= 6 only.
    """
    n = space.n_points
    if n == 1:
        return np.zeros((1, 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    vertices = []
    for tree in combinations(edges, n - 1):
        # Spanning check by union-find.
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in tree:
            ri, rj = find(i), find(j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (i, j) in enumerate(tree):
            adjacency[i].append((j, e))
            adjacency[j].append((i, e))
        for signs in product((1.0, -1.0), repeat=n - 1):
            f = np.full(n, np.nan)
            f[0] = 0.0
            stack = [0]
            while stack:
                x = stack.pop()
                for y, e in adjacency[x]:
                    if np.isnan(f[y]):
                        i, j = tree[e]
                        step = signs[e] * space.dist[i, j]
                        # Tight constraint f_i - f_j = sign * d(i, j).
                        f[y] = f[x] + step if y == i else f[x] - step
                        stack.append(y)
            gaps = np.abs(f[:, None] - f[None, :]) - space.dist
            if np.max(gaps) <= 1e-9:
                vertices.append(f)
    return np.unique(np.round(np.asarray(vertices), 12), axis=0)


def mk_by_enumeration(
    space: FiniteMetricSpace,
    p: np.ndarray,
    q: np.ndarray,
    vertices: np.ndarray | None = None,
) -> float:
    """Transport distance as a maximum over unit-Lipschitz polytope vertices."""
    pw = check_probability(space, p)
    qw = check_probability(space, q)
    if vertices is None:
        vertices = enumerate_lipschitz_vertices(space)
    objective = vertices @ (pw - qw)
    return float(max(np.max(objective), 0.0))


def lip_ball_sup_norm_by_lp(space: FiniteMetricSpace, weights: np.ndarray) -> float:
    """max ||f||_inf over {Lip(f) <= 1, sum_i w_i f_i = 0}, by 2n LPs; its
    closed form is max_i sum_j w_j d(i, j)."""
    n = space.n_points
    if n == 1:
        return 0.0
    a_ub, b_ub = lipschitz_constraints(space)
    best = 0.0
    for i in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = -sign
            res = linprog(
                c=c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=weights[None, :],
                b_eq=[0.0],
                bounds=[(None, None)] * n,
                method="highs",
            )
            if not res.success:
                raise RuntimeError(f"norm-bound LP failed: {res.message}")
            best = max(best, -float(res.fun))
    return best


def sampled_reach_witness(pair: ApproximationPair, samples: int, seed: int) -> float:
    """The largest witness bridge norm ||a - diag(a)|| over ``samples``
    unit-ball samples; ``bridge.certify_reach`` proves it at most beta."""
    worst = 0.0
    for a in sample_unit_ball(pair, samples, seed):
        f = np.diagonal(a).real
        worst = max(worst, operator_norm(a - np.diag(f.astype(complex))))
    return worst


def unscreened_l_seminorms(pair: ApproximationPair, stack: np.ndarray) -> np.ndarray:
    """max(||a - E(a)|| / beta, Lip(diag a)) of each element of a (count, n,
    n) stack with every deviation solved: ``l_seminorms`` without its
    Lipschitz screen, which it equals bit for bit."""
    off = stack.copy()
    idx = np.arange(pair.dim)
    off[:, idx, idx] = 0.0
    lips = lipschitz_seminorms(pair.space, np.diagonal(stack, axis1=1, axis2=2).real)
    return np.maximum(operator_norms(off) / pair.beta, lips)


def power_iteration_norm(a: np.ndarray, iters: int = 500, seed: int = 7) -> float:
    """Operator norm via power iteration on a* a."""
    m = np.asarray(a, dtype=complex)
    n = m.shape[0]
    gram = m.conj().T @ m
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(np.real(np.vdot(v, gram @ v))))


def average_by_conjugation(
    torus: FuzzyTorus, subgroup: TorusSubgroup, a: np.ndarray
) -> np.ndarray:
    """Group averaging as an explicit sum of conjugated copies."""
    total = np.zeros_like(np.asarray(a, dtype=complex))
    for g in sorted(subgroup.elements):
        w = torus.action_unitary(g)
        total += w @ a @ w.conj().T
    return total / subgroup.order


def action_seminorm_by_conjugation(torus: FuzzyTorus, ell: LengthFunction, a: np.ndarray) -> float:
    """max over nontrivial g of ||a - w a w^*|| / length(g), with w the
    unitary of g: every automorphism by explicit conjugation, and each norm
    by the SVD, not ``operator_norms``."""
    group = [tuple(g) for g in TorusSubgroup.full(torus.q).element_array()[1:]]
    w = np.stack([torus.action_unitary(g) for g in group])
    moved = w @ a @ np.swapaxes(w, 1, 2).conj()
    norms = np.linalg.norm(a - moved, 2, axis=(1, 2))
    return float(np.max(norms / np.array([ell(g) for g in group])))


def subgroup_closure(q: int, gens) -> frozenset[GroupElement]:
    """The subgroup of Z_q x Z_q that the generators span, by breadth-first
    closure under adding each generator."""
    norm = [(j % q, k % q) for j, k in gens]
    closure = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        base = frontier.pop()
        for g in norm:
            nxt = ((base[0] + g[0]) % q, (base[1] + g[1]) % q)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return frozenset(closure)


def brute_force_subgroups(q: int) -> list[frozenset[GroupElement]]:
    """All subgroups of Z_q x Z_q by closing every pair of generators.

    Subgroups of a rank-two abelian group need at most two generators, so
    closing all pairs and deduplicating enumerates the lattice.  Tiny q
    only.
    """
    elements = [(j, k) for j in range(q) for k in range(q)]
    found = {subgroup_closure(q, (g1, g2)) for g1 in elements for g2 in elements}
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def hausdorff_by_pairs(ell: LengthFunction, h: TorusSubgroup, k: TorusSubgroup) -> float:
    """Subgroup Hausdorff distance from the length of the difference of every
    pair of an element of H and an element of K."""
    a, b = h.element_array(), k.element_array()
    diff = (b[None, :, :] - a[:, None, :]) % h.q
    gaps = ell.values[diff[..., 0], diff[..., 1]]
    return float(max(np.max(np.min(gaps, axis=1)), np.max(np.min(gaps, axis=0))))


def _structured_lines(torus: FuzzyTorus, support: np.ndarray) -> np.ndarray:
    """Self-adjoint single-coefficient elements covering a coefficient set,
    as matrices.

    ``support`` holds (m, n) rows.  Each pair {(m, n), (-m, -n)} mod q gives
    x + x^* and i (x - x^*) for x = U^m V^n at the lexicographically smaller
    exponent, pairs in order of first appearance, with vanishing candidates
    dropped.  The library takes these lines' norms and seminorms in closed
    form (``fixed_point._line_norms``); this is the materialized check."""
    q = torus.q
    idx = np.asarray(support, dtype=int).reshape(-1, 2) % q
    keys = np.minimum(idx @ [q, 1], ((-idx) % q) @ [q, 1])
    _, first = np.unique(keys, return_index=True)
    mono = torus.monomial(*np.divmod(keys[np.sort(first)], q))
    adj = np.swapaxes(mono, -1, -2).conj()
    lines = np.stack([mono + adj, 1j * (mono - adj)], axis=1).reshape(-1, q, q)
    return lines[np.abs(lines).max(axis=(1, 2)) > 1e-12]


def kernel_dimension(pair: ApproximationPair) -> int:
    """Dimension of the kernel of the pair's seminorm inside the self-adjoint
    matrices; it is 1 for every valid pair (the scalars).

    L(a) = 0 is the linear system {off-diagonal part of a = 0} together with
    {f(x) = f(y) for every pair}, f being the diagonal.  The dimension is the
    nullity of the stacked constraint matrix over a real basis of the
    self-adjoint matrices, computed by SVD.
    """
    n = pair.dim
    basis: list[np.ndarray] = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i, j in combinations(range(n), 2):
        for entry in (1.0, 1.0j):
            e = np.zeros((n, n), dtype=complex)
            e[i, j], e[j, i] = entry, np.conj(entry)
            basis.append(e)
    columns = []
    for b in basis:
        off = b - np.diag(np.diag(b))
        f = np.diag(b).real
        pair_diffs = [f[i] - f[j] for i, j in combinations(range(n), 2)]
        columns.append(np.concatenate([off.real.ravel(), off.imag.ravel(), pair_diffs]))
    sv = np.linalg.svd(np.stack(columns, axis=1), compute_uv=False)
    # The constraint entries are 0, +-1 and +-1j, so a zero singular value
    # comes out of the SVD at about 1e-15; 1e-9 separates it from the rest.
    return len(basis) - int(np.sum(sv > 1e-9 * max(1.0, sv[0])))


def action_kernel_dimension(torus: FuzzyTorus) -> int:
    """Dimension of the joint fixed space of all nontrivial automorphisms.

    Realizes each automorphism as conjugation by a unitary, stacks the
    superoperators (identity minus conjugation) into a Gram matrix and
    counts its numerically zero eigenvalues.  Equals one exactly when the
    twist is invertible: only the identity coefficient survives every
    character.  Each conjugation C is unitary, so its Gram term
    (I - C)^H (I - C) is 2I - C - C^H.
    """
    q = torus.q
    dim = q * q
    gram = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for g in TorusSubgroup.full(q).element_array()[1:]:
        w = torus.action_unitary(g)
        conj = np.kron(w, w.conj())
        gram += 2.0 * eye - conj - conj.conj().T
    eigs = np.linalg.eigvalsh(gram)
    return int(np.sum(eigs <= 1e-8 * max(1.0, float(eigs[-1]))))


def orbit_average(orbits, values: np.ndarray) -> np.ndarray:
    """Replace a function by its mean on each orbit."""
    out = np.array(values, dtype=float)
    for orbit in orbits:
        idx = list(orbit)
        out[idx] = float(np.mean(out[idx]))
    return out


def sampled_orbit_reach(
    space: FiniteMetricSpace, orbits, count: int, seed: int
) -> tuple[float, float]:
    """The commutative reach and the Lipschitz contraction of orbit
    averaging, over sampled functions: every d(i, .) and ``count`` random
    functions rescaled to Lipschitz seminorm at most one.

    Returns the largest sup gap |f - E f| over the samples with Lip(f) <= 1,
    a floor for the exact reach, which for the rotations of a circle net is
    ``fixed_point.mean_distance`` from the trivial subgroup, and the
    largest Lip(E f) - Lip(f), which is at most rounding because each f o s
    has the Lipschitz constant of f.
    """
    rng = np.random.default_rng(seed)
    n = space.n_points
    samples = [np.array(space.dist[i], dtype=float) for i in range(n)]
    for _ in range(count):
        f = rng.uniform(-1.0, 1.0, size=n)
        lip = lipschitz_seminorms(space, f[None])[0]
        if lip > 0.0:
            f = f * (rng.uniform(0.0, 1.0) / lip)
        samples.append(f)
    worst_violation = -np.inf
    reach = 0.0
    for f in samples:
        averaged = orbit_average(orbits, f)
        lip, lip_averaged = lipschitz_seminorms(space, np.stack([f, averaged]))
        worst_violation = max(worst_violation, lip_averaged - lip)
        if lip <= 1.0 + 1e-12:
            reach = max(reach, float(np.max(np.abs(f - averaged))))
    return reach, float(worst_violation)
