import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from matprox import (
    AveragingExpectation,
    Circle,
    FuzzyTorus,
    LengthFunction,
    TAU,
    TorusSubgroup,
    action_lip_seminorms,
    enumerate_subgroups,
    epsilon_net,
    expectation_gap,
    fixed_point_bridge,
    fixed_point_sweep,
    identity,
    mean_distance,
    operator_norm,
    operator_norms,
    random_hermitian,
    subgroup_hausdorff,
    trace_state,
)
from matprox import fixed_point, metric_core
from matprox.errors import ConfigError, InputShapeError
from matprox.matrix_algebra import jordan_lie
from matprox.acceptance import EXACT
from matprox.oracles import (
    _structured_lines,
    action_kernel_dimension,
    action_seminorm_by_conjugation,
    average_by_conjugation,
    brute_force_subgroups,
    hausdorff_by_pairs,
    orbit_average,
    sampled_orbit_reach,
    subgroup_closure,
)


# ---------------------------------------------------------------------------
# Fuzzy torus structure.
# ---------------------------------------------------------------------------


def test_construction_validates_order_and_twist():
    with pytest.raises(ConfigError):
        FuzzyTorus(1, 1)
    with pytest.raises(ConfigError):
        FuzzyTorus(6, 2)


@pytest.mark.parametrize("q,p", [(2, 1), (4, 3), (5, 2), (9, 2), (12, 7)])
def test_weyl_relation_and_orders(q, p):
    torus = FuzzyTorus(q, p)
    u, v = torus.clock, torus.shift
    assert np.max(np.abs(v @ u - torus.omega * u @ v)) <= 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(u, q) - identity(q))) <= 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(v, q) - identity(q))) <= 1e-12


def test_monomials_match_matrix_powers_and_are_orthonormal():
    torus = FuzzyTorus(5, 2)
    basis = {}
    for m in range(5):
        for n in range(5):
            mono = torus.monomial(m, n)
            ref = np.linalg.matrix_power(torus.clock, m) @ np.linalg.matrix_power(
                torus.shift, n
            )
            assert np.max(np.abs(mono - ref)) <= 1e-12
            basis[(m, n)] = mono
    for key_a, a in basis.items():
        for key_b, b in basis.items():
            inner = trace_state(a.conj().T @ b)
            expected = 1.0 if key_a == key_b else 0.0
            assert abs(inner - expected) <= 1e-12
    ms, ns = np.array(list(basis)).T
    for key, mono in zip(basis, torus.monomial(ms, ns)):
        assert np.array_equal(mono, basis[key])


def test_coefficient_round_trip():
    torus = FuzzyTorus(7, 3)
    rng = np.random.default_rng(50)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    assert np.max(np.abs(torus.from_coefficients(torus.to_coefficients(a)) - a)) <= 1e-12
    stack = rng.normal(size=(4, 7, 7)) + 1j * rng.normal(size=(4, 7, 7))
    coeffs = torus.to_coefficients(stack)
    for c, rebuilt in zip(coeffs, torus.from_coefficients(coeffs)):
        assert np.array_equal(torus.from_coefficients(c), rebuilt)


# ---------------------------------------------------------------------------
# Dual action.
# ---------------------------------------------------------------------------


def test_identity_element_acts_trivially():
    torus = FuzzyTorus(6, 5)
    rng = np.random.default_rng(51)
    a = random_hermitian(rng, 6)
    assert np.max(np.abs(torus.dual_action((0, 0), a) - a)) <= 1e-12


def test_defining_phase_on_the_clock_generator():
    for q in (3, 4, 8):
        torus = FuzzyTorus(q, 1)
        moved = torus.dual_action((1, 0), torus.clock)
        assert np.max(np.abs(moved - np.exp(2j * np.pi / q) * torus.clock)) <= 1e-12


def test_action_composition_and_isometry():
    torus = FuzzyTorus(8, 3)
    rng = np.random.default_rng(52)
    a = random_hermitian(rng, 8)
    for g, h in [((1, 2), (3, 5)), ((7, 0), (0, 7)), ((4, 4), (5, 1))]:
        combined = ((g[0] + h[0]) % 8, (g[1] + h[1]) % 8)
        lhs = torus.dual_action(g, torus.dual_action(h, a))
        rhs = torus.dual_action(combined, a)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert abs(operator_norm(torus.dual_action(g, a)) - operator_norm(a)) <= 1e-10


def test_action_matches_conjugation_oracle():
    torus = FuzzyTorus(9, 2)
    rng = np.random.default_rng(53)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    elements = [(1, 0), (0, 1), (4, 7), (8, 8)]
    for g in elements:
        w = torus.action_unitary(g)
        assert np.max(np.abs(torus.dual_action(g, a) - w @ a @ w.conj().T)) <= 1e-12
    # One group element per matrix of a stack.
    j, k = np.array(elements).T
    moved = torus.dual_action((j, k), np.repeat(a[None], len(elements), axis=0))
    for g, m in zip(elements, moved):
        assert np.array_equal(m, torus.dual_action(g, a))


def _advanced_index_action(torus, g, stack):
    """The dual action as a three-array advanced-index gather with a phase
    table built per call: the reference for the table-driven gather."""
    q = torus.q
    j, k = (np.broadcast_to(x, len(stack)) for x in g)
    shifted = torus._gather_cols[(pow(torus.p, -1, q) * j) % q]
    moved = stack[
        np.arange(len(stack))[:, None, None], shifted[:, :, None], shifted[:, None, :]
    ]
    phases = torus._roots[(k[:, None, None] * torus._entry_offsets) % q]
    return phases * moved


_ORDERS_AND_TWISTS = [(2, 1), (3, 1), (3, 2), (6, 1), (6, 5), (7, 1), (7, 3), (7, 6),
                      (12, 1), (12, 5), (12, 7), (16, 1), (16, 3), (16, 9)]


@pytest.mark.parametrize("q,p", _ORDERS_AND_TWISTS)
def test_character_table_is_bitwise_conjugate_symmetric(q, p):
    roots = FuzzyTorus(q, p)._roots
    assert np.array_equal(roots[(-np.arange(q)) % q], roots.conj())
    # The lower half is exp(2 pi i m / q) itself; the mirror fixes the rest.
    lower = np.arange((q + 1) // 2)
    assert np.array_equal(roots[lower], np.exp(2j * np.pi * lower / q))
    if q % 2 == 0:
        assert roots[q // 2].real == -1.0 and roots[q // 2].imag == 0.0


@pytest.mark.parametrize("q,p", _ORDERS_AND_TWISTS)
def test_table_driven_action_equals_the_advanced_index_gather(q, p):
    torus = FuzzyTorus(q, p)
    rng = np.random.default_rng(q * 100 + p)
    nontrivial = np.divmod(np.arange(1, q * q), q)
    stack = np.array([random_hermitian(rng, q) for _ in range(q * q - 1)])
    moved = torus.dual_action(nontrivial, stack)
    assert np.array_equal(moved, _advanced_index_action(torus, nontrivial, stack))
    for g, a, m in list(zip(zip(*nontrivial), stack, moved))[:: max(1, q // 2)]:
        w = torus.action_unitary(g)
        assert np.max(np.abs(m - w @ a @ w.conj().T)) <= 1e-12
    # Bitwise self-adjoint elements have bitwise self-adjoint differences.
    diffs = stack - moved
    assert np.array_equal(diffs, np.swapaxes(diffs, 1, 2).conj())


def test_action_is_a_star_automorphism():
    torus = FuzzyTorus(6, 1)
    rng = np.random.default_rng(54)
    a = random_hermitian(rng, 6)
    b = random_hermitian(rng, 6)
    g = (2, 5)
    products = jordan_lie(a, b)
    moved_products = jordan_lie(torus.dual_action(g, a), torus.dual_action(g, b))
    for product, expect in zip(products, moved_products):
        assert np.max(np.abs(torus.dual_action(g, product) - expect)) <= 1e-12
    assert abs(trace_state(torus.dual_action(g, a)) - trace_state(a)) <= 1e-12


# ---------------------------------------------------------------------------
# Length functions.
# ---------------------------------------------------------------------------


def test_max_arc_axioms_hold():
    ell = LengthFunction.max_arc(12)
    assert ell((0, 0)) == 0.0
    assert ell((6, 0)) == pytest.approx(np.pi)
    assert ell((1, 11)) == ell((11, 1))


def test_invalid_length_tables_are_rejected():
    with pytest.raises(ConfigError):
        LengthFunction(3, np.ones((3, 3)))  # identity not zero
    bad = LengthFunction.max_arc(4).values.copy()
    bad[1, 0] = 100.0  # breaks inversion symmetry
    with pytest.raises(ConfigError):
        LengthFunction(4, bad)
    spiky = np.ones((4, 4))
    spiky[0, 0] = 0.0
    spiky[2, 2] = 10.0  # (1,1) + (1,1) jumps above the sum
    with pytest.raises(ConfigError):
        LengthFunction(4, spiky)


@pytest.mark.parametrize("q,scale", [(31, 1e6), (64, 1e6), (12, 1e12), (12, 1e-6)])
def test_length_tables_far_from_unit_scale_are_checked_relative_to_their_scale(q, scale):
    # An absolute tolerance of 1e-12 refused the first three for rounding
    # alone (excess 2.3e-10, 4.7e-10 and 4.9e-4).
    table = scale * LengthFunction.max_arc(q).values
    assert np.array_equal(LengthFunction(q, table).values, table)
    spiky = table.copy()
    spiky[2, 2] = spiky[-2, -2] = (2.0 + 1e-3) * spiky[1, 1]  # (1, 1) + (1, 1) jumps above the sum
    with pytest.raises(ConfigError, match="subadditive"):
        LengthFunction(q, spiky)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_length_tables_are_rejected(bad):
    # A NaN or infinite length passed every axiom check.
    table = LengthFunction.max_arc(4).values.copy()
    table[1, 1] = table[3, 3] = bad
    with pytest.raises(ConfigError, match="finite"):
        LengthFunction(4, table)


def test_max_arc_is_built_once_per_order_and_user_tables_are_still_checked():
    # Its q^3 validation took 191 ms per call at q = 64.
    assert LengthFunction.max_arc(12) is LengthFunction.max_arc(12)
    spiky = LengthFunction.max_arc(12).values.copy()
    spiky[6, 6] = 100.0  # (3, 3) + (3, 3) jumps above the sum
    with pytest.raises(ConfigError, match="subadditive"):
        LengthFunction(12, spiky)


def test_length_functions_compare_and_hash_by_value():
    # The value is the order and the table's bits; the generated dataclass
    # == would compare the tables elementwise and raise.
    arc = LengthFunction.max_arc(4)
    twin = LengthFunction(4, arc.values.copy())
    assert arc == twin and hash(arc) == hash(twin) and len({arc, twin}) == 1
    assert arc != LengthFunction(4, 2.0 * arc.values)
    assert arc != LengthFunction.max_arc(5)
    # The line terms one of them keeps are no part of its value.
    expectation_gap(FuzzyTorus(4, 1), twin, TorusSubgroup.trivial(4), TorusSubgroup.full(4), count=1)
    assert twin._line_terms and arc == twin and hash(arc) == hash(twin)


# ---------------------------------------------------------------------------
# Action seminorm.
# ---------------------------------------------------------------------------


def test_seminorm_vanishes_on_the_identity():
    torus = FuzzyTorus(6, 1)
    ell = LengthFunction.max_arc(6)
    assert action_lip_seminorms(torus, ell, identity(6)[None])[0] <= 1e-12


@pytest.mark.parametrize("q,p", [(4, 1), (5, 3), (8, 5)])
def test_seminorm_matches_conjugation_path(q, p):
    torus = FuzzyTorus(q, p)
    ell = LengthFunction.max_arc(q)
    rng = np.random.default_rng(55)
    for _ in range(5):
        a = random_hermitian(rng, q)
        fast = action_lip_seminorms(torus, ell, a[None])[0]
        slow = action_seminorm_by_conjugation(torus, ell, a)
        assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)


def _structured_stack(torus, rng):
    q = torus.q
    lines = _structured_lines(
        torus, np.array([(1, 0), (0, 1), (1, 1), (q // 2, 1), (2, q - 1), (q // 3, q // 2)])
    )
    averaged = [
        AveragingExpectation(torus, sub)(random_hermitian(rng, q))
        for sub in (
            TorusSubgroup.cyclic_first_factor(q, 2),
            TorusSubgroup.from_generators(q, (0, 1)),
            TorusSubgroup.from_generators(q, (1, 1)),
        )
    ]
    scalars = [2.5 * identity(q), np.zeros((q, q), dtype=complex)]
    return np.concatenate([lines, averaged, scalars])


@pytest.mark.parametrize("q,p", [(6, 5), (12, 5), (12, 7), (16, 3)])
def test_pruned_seminorm_matches_conjugation_on_structured_inputs(q, p):
    # Monomial lines are where the Frobenius bound is loosest (by about
    # sqrt(q / 2)); averaged elements and scalars have many tied values.
    torus = FuzzyTorus(q, p)
    ell = LengthFunction.max_arc(q)
    stack = _structured_stack(torus, np.random.default_rng(58))
    fast = action_lip_seminorms(torus, ell, stack)
    for a, value in zip(stack, fast):
        slow = action_seminorm_by_conjugation(torus, ell, a)
        assert value == pytest.approx(slow, rel=1e-12, abs=1e-13)


def _twin(q, flat):
    # Row-major index of -g for the row-major index of g.
    j, k = np.divmod(flat, q)
    return (-j) % q * q + (-k) % q


def _lopsided_lengths(q):
    # max_arc scaled to lengths near 1e-3, with the smaller-index g of each
    # pair {g, -g} longer by 5e-13: inside the constructor's 1e-12 checks,
    # and a move of about 1e-9 in the ratio of each such g.
    flat = np.arange(q * q)
    vals = 1e-3 * LengthFunction.max_arc(q).values + 5e-13 * (flat < _twin(q, flat)).reshape(q, q)
    return LengthFunction(q, vals)


@pytest.mark.parametrize("q,p", [(2, 1), (3, 2), (12, 5), (16, 3)])
def test_folded_seminorm_matches_conjugation_over_every_g(q, p):
    # The oracle visits all q^2 - 1 nontrivial g.  At q = 2 every g is its
    # own inverse; at q = 3 only the identity is.  The lopsided table checks
    # that each pair is taken at its smaller length.
    torus = FuzzyTorus(q, p)
    rng = np.random.default_rng(60)
    lines = _structured_lines(torus, np.array([(1, 0), (0, 1), (1, 1), (q // 2, q - 1)]))
    draws = np.stack([random_hermitian(rng, q) for _ in range(4)])
    stack = np.concatenate([lines, draws, 2.5 * identity(q)[None]])
    # The lopsided table's lengths are 1e3 times shorter, and so the
    # scalar's rounding-level seminorm 1e3 times larger.
    for ell, atol in ((LengthFunction.max_arc(q), 1e-13), (_lopsided_lengths(q), 1e-10)):
        fast = action_lip_seminorms(torus, ell, stack)
        for a, value in zip(stack, fast):
            slow = action_seminorm_by_conjugation(torus, ell, a)
            assert value == pytest.approx(slow, rel=1e-12, abs=atol)


@pytest.mark.parametrize(
    "q,unit",
    [
        (3, (1.403809982715389, 1.2333583929042173, 2.1245204111770772, 1.9859349382061575)),
        (6, (4.773171189279645, 4.421619063213088, 4.710875836341594, 6.182780037975497)),
        (12, (20.17844960289803, 15.754315132856899, 18.19295032765923, 15.670892800688884)),
    ],
)
def test_seminorms_hold_far_from_unit_scale(q, unit):
    # ``unit`` holds the seminorms of four draws as the kernel gave them
    # before it scaled elements by powers of two (OpenBLAS build): at unit
    # scale they keep their bits.  At 1e-100 the Schatten sums underflowed
    # and at 1e160 the Frobenius squares overflowed, so each value read 0.0,
    # with overflow warnings at 1e160.
    torus = FuzzyTorus(q, 1)
    ell = LengthFunction.max_arc(q)
    draws = fixed_point._draws(torus, 4, 0)
    assert tuple(action_lip_seminorms(torus, ell, draws)) == unit
    for scale in (1e-100, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = action_lip_seminorms(torus, ell, scale * draws) / scale
        assert got == pytest.approx(unit, rel=1e-12, abs=0.0)


def test_no_element_visits_both_g_and_its_inverse(monkeypatch):
    q = 12
    torus = FuzzyTorus(q, 5)
    rng = np.random.default_rng(61)
    stack = np.concatenate([
        np.stack([random_hermitian(rng, q) for _ in range(6)]),
        _structured_stack(torus, rng),
    ])
    differences = fixed_point._differences
    visits = []

    def recording(torus, stack, elem, slot):
        visits.extend(zip(elem.tolist(), (slot + 1).tolist()))
        return differences(torus, stack, elem, slot)

    monkeypatch.setattr(fixed_point, "_differences", recording)
    action_lip_seminorms(torus, LengthFunction.max_arc(q), stack)
    seen = set(visits)
    assert len(visits) == len(seen) > len(stack)
    assert not [(e, g) for e, g in seen if g != _twin(q, g) and (e, _twin(q, g)) in seen]


def test_exact_norm_stacks_stay_within_the_byte_budget(monkeypatch):
    q = 32
    torus = FuzzyTorus(q, 3)
    ell = LengthFunction.max_arc(q)
    stack = _structured_stack(torus, np.random.default_rng(59))
    sizes = []

    def recording(diffs):
        sizes.append(diffs.nbytes)
        return operator_norms(diffs)

    monkeypatch.setattr(fixed_point, "operator_norms", recording)
    expected = action_lip_seminorms(torus, ell, stack)
    assert 0 < max(sizes) <= metric_core.BLOCK_BYTES
    # A budget of 4 matrices changes the chunking, not the values.
    monkeypatch.setattr(metric_core, "BLOCK_BYTES", 4 * 16 * q * q)
    sizes.clear()
    small = action_lip_seminorms(torus, ell, stack)
    assert max(sizes) <= 4 * 16 * q * q
    assert np.allclose(small, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("q", [2, 3, 6, 12, 16])
def test_schatten_screen_with_its_margin_bounds_every_difference(q):
    # The one screen before the exact norms: with the margin derived in
    # action_lip_seminorms, its bound is at least the exact norm of every
    # difference a - alpha^g(a) that _differences builds, on the inputs
    # where the Frobenius bound is loosest (lines), on zero differences
    # (E_H with H full, a scalar, zero) and on random draws.
    torus = FuzzyTorus(q, 1)
    rng = np.random.default_rng(67)
    lines = _structured_lines(
        torus, np.array([(1, 0), (0, 1), (1, 1), (q // 2, 1), (2, q - 1), (q // 3, q // 2)])
    )
    draws = np.stack([random_hermitian(rng, q) for _ in range(4)])
    images = [
        AveragingExpectation(torus, sub)(draws)
        for sub in (TorusSubgroup.full(q), TorusSubgroup.from_generators(q, (1, 0)))
    ]
    scalars = [2.5 * identity(q)[None], np.zeros((1, q, q))]
    stack = np.concatenate([lines, *images, *scalars, draws])
    slots = q * q - 1
    elem = np.repeat(np.arange(len(stack)), slots)
    diffs = fixed_point._differences(torus, stack, elem, np.tile(np.arange(slots), len(stack)))
    slack = 1.0 + 4.0 * (q + 2) ** 2 * np.finfo(float).eps / 2.0
    assert np.all(slack * fixed_point._schatten_bounds(diffs) >= operator_norms(diffs))


def test_every_built_difference_meets_the_schatten_screen_once(monkeypatch):
    q = 12
    torus = FuzzyTorus(q, 5)
    stack = _structured_stack(torus, np.random.default_rng(68))
    built, screened = [], []
    differences, schatten = fixed_point._differences, fixed_point._schatten_bounds

    def building(*args):
        built.append(differences(*args))
        return built[-1]

    def screening(diffs):
        screened.append(diffs)
        return schatten(diffs)

    monkeypatch.setattr(fixed_point, "_differences", building)
    monkeypatch.setattr(fixed_point, "_schatten_bounds", screening)
    action_lip_seminorms(torus, LengthFunction.max_arc(q), stack)
    assert built and len(screened) == len(built)
    assert all(a is b for a, b in zip(built, screened))


def test_normalization_is_per_element_bitwise(monkeypatch):
    # The draws and their images share one normalization stack: each element
    # comes out bitwise as when normalized alone, in one block or in blocks
    # of three elements.
    q = 12
    torus = FuzzyTorus(q, 5)
    ell = LengthFunction.max_arc(q)
    draws = fixed_point._draws(torus, 5, 63)
    image = AveragingExpectation(torus, TorusSubgroup.cyclic_first_factor(q, 3))(draws)
    stack = np.concatenate([draws, image, _structured_stack(torus, np.random.default_rng(63))])
    whole = fixed_point._normalized_unit_ball(torus, ell, stack)
    alone = np.concatenate([fixed_point._normalized_unit_ball(torus, ell, a[None]) for a in stack])
    monkeypatch.setattr(metric_core, "BLOCK_BYTES", 3 * 16 * q * q)
    blocked = fixed_point._normalized_unit_ball(torus, ell, stack)
    assert whole.tobytes() == alone.tobytes() == blocked.tobytes()


@pytest.mark.parametrize("q,count,seed", [(2, 1, 0), (5, 3, 7), (12, 8, 0), (12, 48, 5), (31, 4, 123)])
def test_draws_are_the_per_element_hermitian_stream(q, count, seed):
    # One normal draw for the whole sample against the loop it replaced.
    rng = np.random.default_rng(seed)
    loop = np.array([random_hermitian(rng, q) for _ in range(count)], dtype=complex)
    draws = fixed_point._draws(FuzzyTorus(q, 1), count, seed)
    assert draws.tobytes() == loop.tobytes() and draws.flags.c_contiguous


def test_seminorm_on_clock_plus_adjoint_is_positive():
    for q in (3, 5, 8):
        torus = FuzzyTorus(q, 1)
        ell = LengthFunction.max_arc(q)
        a = torus.clock + torus.clock.conj().T
        assert action_lip_seminorms(torus, ell, a[None])[0] > 0.1


def test_seminorm_invariant_under_the_action():
    torus = FuzzyTorus(7, 3)
    ell = LengthFunction.max_arc(7)
    rng = np.random.default_rng(56)
    a = random_hermitian(rng, 7)
    a = a / operator_norm(a)
    base = action_lip_seminorms(torus, ell, a[None])[0]
    for g in TorusSubgroup.full(torus.q).element_array()[1:]:
        moved = torus.dual_action(g, a)
        assert abs(action_lip_seminorms(torus, ell, moved[None])[0] - base) <= 1e-12


def test_kernel_of_the_action_seminorm_is_scalars():
    for q, p in [(2, 1), (5, 2), (6, 5), (9, 4)]:
        assert action_kernel_dimension(FuzzyTorus(q, p)) == 1


def test_batch_seminorms_match_singles():
    torus = FuzzyTorus(5, 2)
    ell = LengthFunction.max_arc(5)
    rng = np.random.default_rng(57)
    stack = np.stack([random_hermitian(rng, 5) for _ in range(8)])
    batched = action_lip_seminorms(torus, ell, stack)
    singles = [action_lip_seminorms(torus, ell, a[None])[0] for a in stack]
    assert np.allclose(batched, singles, atol=1e-13)


# ---------------------------------------------------------------------------
# Closed-form coefficient lines against their matrices.
# ---------------------------------------------------------------------------


def _line_representatives(q):
    # One exponent per pair {(m, n), (-m, -n)}, in the order in which
    # _structured_lines emits the pairs of a row-major exponent list.
    exps = np.array([(m, n) for m in range(q) for n in range(q)])[1:]
    keys = exps @ [q, 1]
    return exps, exps[keys <= ((-exps) % q) @ [q, 1]]


@pytest.mark.parametrize("q,twists", [(6, (1, 5)), (8, (1, 3)), (9, (1, 2)), (10, (1, 3)),
                                      (12, (1, 5)), (15, (1, 2))])
def test_closed_form_lines_match_the_materialized_lines(q, twists):
    # Every nonzero exponent: the closed-form norms, seminorms and gap terms
    # ||l|| / L(l) against the numeric seminorm and operator norms of the
    # matrices that the oracle builds, vanishing lines dropped on both sides.
    ell = LengthFunction.max_arc(q)
    exps, reps = _line_representatives(q)
    for p in twists:
        torus = FuzzyTorus(q, p)
        norms, seminorms = fixed_point._line_norms(torus, ell, reps)
        keep = norms.ravel() > 1e-12
        lines = _structured_lines(torus, exps)
        assert len(lines) == keep.sum()
        slow_norms = operator_norms(lines)
        slow_seminorms = action_lip_seminorms(torus, ell, lines)
        assert np.allclose(norms.ravel()[keep], slow_norms, rtol=1e-13, atol=0.0)
        assert np.allclose(seminorms.ravel()[keep], slow_seminorms, rtol=1e-13, atol=0.0)
        terms = norms.ravel()[keep] / seminorms.ravel()[keep]
        assert np.allclose(terms, slow_norms / slow_seminorms, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("q,p", [(6, 1), (6, 5), (10, 3), (8, 3), (12, 5)])
def test_closed_form_drops_the_vanishing_lines(q, p):
    # U^(q/2) and V^(q/2) are self-adjoint, so i (x - x^*) vanishes; U^(q/2)
    # V^(q/2) is -x^* for q/2 odd, so x + x^* vanishes, and x^* for q/2 even.
    torus = FuzzyTorus(q, p)
    ell = LengthFunction.max_arc(q)
    h = q // 2
    dead = [((h, 0), 1), ((0, h), 1), ((h, h), 0 if h % 2 else 1)]
    norms, seminorms = fixed_point._line_norms(torus, ell, np.array([e for e, _ in dead]))
    for row, (exponent, column) in enumerate(dead):
        assert norms[row, column] <= 1e-12 < norms[row, 1 - column]
        line = _structured_lines(torus, np.array([exponent]))
        assert len(line) == 1
        assert operator_norms(line)[0] == pytest.approx(norms[row, 1 - column], rel=1e-13)
        assert action_lip_seminorms(torus, ell, line)[0] == pytest.approx(
            seminorms[row, 1 - column], rel=1e-13
        )
    # Their only pair as a support: the peak is the surviving line's term.
    # Supports share one closed-form call; an empty one peaks at 0.0.
    support = np.zeros((q, q), dtype=bool)
    support[h, h] = True
    column = 0 if h % 2 else 1
    peak = norms[2, 1 - column] / seminorms[2, 1 - column]
    assert fixed_point._line_peaks(torus, ell, [support, np.zeros_like(support), support]) == [peak, 0.0, peak]


def test_line_seminorms_are_blocked(monkeypatch):
    # A block size of 3 monomials changes the blocking, not the values.
    torus = FuzzyTorus(9, 2)
    ell = LengthFunction.max_arc(9)
    _, reps = _line_representatives(9)
    expected = fixed_point._line_norms(torus, ell, reps)
    monkeypatch.setattr(metric_core, "BLOCK_BYTES", 3 * 16 * 9 * 9)
    for got, want in zip(fixed_point._line_norms(torus, ell, reps), expected):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Subgroups.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_prime_order_subgroup_count(q):
    assert len(enumerate_subgroups(q)) == q + 3


@pytest.mark.parametrize("q", [4, 6])
def test_enumeration_matches_brute_force_closure(q):
    ours = {sub.elements for sub in enumerate_subgroups(q)}
    brute = set(brute_force_subgroups(q))
    assert ours == brute


def test_trivial_and_full_subgroups_present():
    subs = enumerate_subgroups(6)
    orders = sorted(s.order for s in subs)
    assert orders[0] == 1 and orders[-1] == 36


def test_subgroup_validation_names_each_rejection():
    with pytest.raises(ConfigError, match=r"\(4, 0\), \(0, 6\) is not a triangular basis in Z_6"):
        TorusSubgroup(6, 4, 0, 6)
    with pytest.raises(ConfigError, match="4 does not divide 6"):
        TorusSubgroup.cyclic_first_factor(6, 4)
    with pytest.raises(ConfigError, match="group order must be at least 2"):
        enumerate_subgroups(1)
    assert TorusSubgroup.full(64).order == 64 * 64


def test_enumeration_rejects_large_orders():
    with pytest.raises(ConfigError):
        enumerate_subgroups(25)


def _assert_triangular_basis(h):
    q, a, s, b = h.q, h.a, h.s, h.b
    assert q % a == 0 and q % b == 0 and 0 <= s < a and s * (q // b) % a == 0
    assert h.order == len(h.elements) == len(h.element_array())


@pytest.mark.parametrize("q", [2, 3, 4, 6, 8])
def test_generator_pairs_span_the_bfs_closure(q):
    elements = [(j, k) for j in range(q) for k in range(q)]
    for g1, g2 in itertools.product(elements, repeat=2):
        h = TorusSubgroup.from_generators(q, g1, g2)
        assert h.elements == subgroup_closure(q, (g1, g2))
        _assert_triangular_basis(h)


def test_random_generator_lists_span_the_bfs_closure():
    rng = np.random.default_rng(11)
    for _ in range(400):
        q = int(rng.integers(2, 65))
        gens = [tuple(rng.integers(-3 * q, 3 * q, size=2).tolist()) for _ in range(rng.integers(0, 5))]
        h = TorusSubgroup.from_generators(q, *gens)
        assert h.elements == subgroup_closure(q, gens)
        _assert_triangular_basis(h)


def test_a_subgroup_equals_itself_however_it_is_generated():
    # Equality read the generators as given, so these three were False.
    assert TorusSubgroup.from_generators(12, (1, 1)) == TorusSubgroup.from_generators(12, (1, 1), (6, 6))
    assert TorusSubgroup.from_generators(12, (0, 1), (1, 0)) in enumerate_subgroups(12)
    assert TorusSubgroup.trivial(12) == TorusSubgroup.from_generators(12)
    rng = np.random.default_rng(29)
    for q in range(2, 9):
        subgroups = enumerate_subgroups(q)
        for h in subgroups:
            elements = h.element_array()
            basis = np.array([[h.a, 0], [h.s, h.b]])
            for _ in range(4):
                # A unimodular change of the basis, a few more elements of H,
                # shuffled, each moved by multiples of q.
                change = np.eye(2, dtype=int)
                for i in rng.integers(0, 2, size=3):
                    change[i] += int(rng.integers(-3, 4)) * change[1 - i]
                extra = elements[rng.integers(0, len(elements), size=rng.integers(0, 4))]
                gens = np.concatenate([change @ basis, extra])[rng.permutation(2 + len(extra))]
                gens += q * rng.integers(-3, 4, size=gens.shape)
                g = TorusSubgroup.from_generators(q, *map(tuple, gens.tolist()))
                assert g == h and hash(g) == hash(h) and g in subgroups, (q, gens.tolist())


def test_enumeration_yields_each_subgroup_once():
    for q in range(2, 25):
        subs = enumerate_subgroups(q)
        assert len({h.elements for h in subs}) == len(subs)
        for h in subs:
            _assert_triangular_basis(h)


@pytest.mark.parametrize("a,s,b", [(3, 0, 1), (2, 2, 1), (4, 1, 2), (1, 0, 0)])
def test_subgroups_reject_a_non_triangular_basis(a, s, b):
    with pytest.raises(ConfigError, match="triangular basis"):
        TorusSubgroup(4, a, s, b)


@pytest.mark.parametrize("q", [6, 8, 12])
def test_basis_mask_matches_the_pairing_over_every_element(q):
    torus = FuzzyTorus(q, 1)
    m, n = np.divmod(np.arange(q * q), q)
    for h in enumerate_subgroups(q):
        j, k = h.element_array().T
        trivial = np.all((np.outer(j, m) + np.outer(k, n)) % q == 0, axis=0)
        assert np.array_equal(AveragingExpectation(torus, h).mask, trivial.reshape(q, q))


# ---------------------------------------------------------------------------
# Subgroup Hausdorff geometry.
# ---------------------------------------------------------------------------


def test_hausdorff_same_subgroup_is_zero():
    ell = LengthFunction.max_arc(8)
    h = TorusSubgroup.cyclic_first_factor(8, 4)
    assert subgroup_hausdorff(ell, h, h) == 0.0


@pytest.mark.parametrize("q", [4, 6, 12])
def test_trivial_versus_full_first_factor_is_pi(q):
    ell = LengthFunction.max_arc(q)
    triv = TorusSubgroup.trivial(q)
    line = TorusSubgroup.cyclic_first_factor(q, q)
    assert subgroup_hausdorff(ell, triv, line) == pytest.approx(np.pi, abs=1e-12)


def test_divisor_chain_distances_decrease():
    q = 12
    ell = LengthFunction.max_arc(q)
    limit = TorusSubgroup.cyclic_first_factor(q, q)
    values = [
        subgroup_hausdorff(ell, TorusSubgroup.cyclic_first_factor(q, m), limit)
        for m in (1, 2, 3, 4, 6, 12)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(np.pi)
    assert values[-1] == 0.0


@pytest.mark.parametrize("q", [6, 8])
def test_hausdorff_equals_the_pairwise_oracle_bitwise(q):
    arc = LengthFunction.max_arc(q).values
    lengths = [LengthFunction.max_arc(q), LengthFunction(q, arc[:, :1] + arc[:1, :])]
    subs = enumerate_subgroups(q)
    for ell, h, k in itertools.product(lengths, subs, subs):
        assert subgroup_hausdorff(ell, h, k) == hausdorff_by_pairs(ell, h, k)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_subgroups_take_no_element_pair_arrays():
    # With element sets, the Hausdorff distance peaked at 256 MiB here and the
    # mask of the full group at 24 MiB.
    q = 64
    torus, ell = FuzzyTorus(q), LengthFunction.max_arc(q)
    full, half = TorusSubgroup.full(q), TorusSubgroup.from_generators(q, (2, 0), (0, 1))
    assert _traced_peak(lambda: subgroup_hausdorff(ell, full, half)) < 32 << 20
    assert _traced_peak(lambda: AveragingExpectation(torus, full)) < 1 << 20


# ---------------------------------------------------------------------------
# Averaging expectations.
# ---------------------------------------------------------------------------


def test_trivial_subgroup_average_is_identity_map():
    torus = FuzzyTorus(6, 1)
    rng = np.random.default_rng(58)
    a = random_hermitian(rng, 6)
    assert np.max(np.abs(AveragingExpectation(torus, TorusSubgroup.trivial(6))(a) - a)) <= 1e-12


def test_full_group_average_is_the_trace():
    for q, p in [(4, 1), (9, 2)]:
        torus = FuzzyTorus(q, p)
        rng = np.random.default_rng(59)
        a = random_hermitian(rng, q)
        averaged = AveragingExpectation(torus, TorusSubgroup.full(q))(a)
        assert np.max(np.abs(averaged - trace_state(a) * identity(q))) <= 1e-12


def test_mask_average_matches_brute_force_conjugation():
    torus = FuzzyTorus(8, 3)
    rng = np.random.default_rng(60)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    stack = rng.normal(size=(3, 8, 8)) + 1j * rng.normal(size=(3, 8, 8))
    for sub in (
        TorusSubgroup.cyclic_first_factor(8, 4),
        TorusSubgroup.from_generators(8, (2, 2)),
        TorusSubgroup.full(8),
    ):
        expect = AveragingExpectation(torus, sub)
        fast = expect(a)
        slow = average_by_conjugation(torus, sub, a)
        assert np.max(np.abs(fast - slow)) <= 1e-12
        for x, averaged in zip(stack, expect(stack)):
            assert np.array_equal(expect(x), averaged)


def test_nested_subgroups_compose_to_the_larger_average():
    torus = FuzzyTorus(12, 1)
    rng = np.random.default_rng(61)
    a = random_hermitian(rng, 12)
    small = AveragingExpectation(torus, TorusSubgroup.cyclic_first_factor(12, 3))
    large = AveragingExpectation(torus, TorusSubgroup.cyclic_first_factor(12, 12))
    assert np.max(np.abs(small(large(a)) - large(a))) <= 1e-12
    assert np.max(np.abs(large(small(a)) - large(a))) <= 1e-12


def test_fixed_basis_counts_satisfy_annihilator_duality():
    for q in (4, 6, 9):
        torus = FuzzyTorus(q, 1)
        for sub in enumerate_subgroups(q):
            e = AveragingExpectation(torus, sub)
            assert e.mask[0, 0]
            assert e.fixed_dimension * sub.order == q * q


def test_fixed_basis_extremes():
    torus = FuzzyTorus(5, 2)
    trivial = AveragingExpectation(torus, TorusSubgroup.trivial(5))
    assert trivial.mask.all() and trivial.fixed_dimension == 25
    full = AveragingExpectation(torus, TorusSubgroup.full(5))
    assert np.argwhere(full.mask).tolist() == [[0, 0]] and full.fixed_dimension == 1


# ---------------------------------------------------------------------------
# Expectation gaps and bridges.
# ---------------------------------------------------------------------------


def test_gap_vanishes_exactly_on_equal_subgroups():
    torus = FuzzyTorus(6, 1)
    ell = LengthFunction.max_arc(6)
    h = TorusSubgroup.cyclic_first_factor(6, 2)
    assert expectation_gap(torus, ell, h, h, count=4, seed=0) == 0.0


def test_gap_positive_for_distinct_fixed_algebras():
    torus = FuzzyTorus(6, 1)
    ell = LengthFunction.max_arc(6)
    h = TorusSubgroup.cyclic_first_factor(6, 2)
    k = TorusSubgroup.cyclic_first_factor(6, 6)
    assert expectation_gap(torus, ell, h, k, count=16, seed=0) > 0.05


def test_gap_table_tracks_hausdorff_on_small_chain():
    q = 6
    torus = FuzzyTorus(q, 1)
    ell = LengthFunction.max_arc(q)
    limit = TorusSubgroup.cyclic_first_factor(q, q)
    gaps = [
        expectation_gap(
            torus, ell, TorusSubgroup.cyclic_first_factor(q, m), limit, count=32, seed=2
        )
        for m in (1, 2, 3, 6)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == 0.0


def test_gap_lives_on_the_coefficient_support_difference():
    # Elements whose coefficients both expectations keep (or both kill)
    # contribute nothing; the gap is attained on the symmetric difference.
    torus = FuzzyTorus(6, 1)
    h = TorusSubgroup.cyclic_first_factor(6, 2)
    k = TorusSubgroup.cyclic_first_factor(6, 6)
    e_h = AveragingExpectation(torus, h)
    e_k = AveragingExpectation(torus, k)
    kept_by_both = torus.monomial(0, 1) + torus.monomial(0, 1).conj().T
    assert np.max(np.abs(e_h(kept_by_both) - e_k(kept_by_both))) <= 1e-12
    killed_by_both = torus.monomial(3, 0) + torus.monomial(3, 0).conj().T
    assert np.max(np.abs(e_h(killed_by_both) - e_k(killed_by_both))) <= 1e-12
    killed_by_k_only = torus.monomial(2, 0) + torus.monomial(2, 0).conj().T
    assert operator_norm(e_h(killed_by_k_only) - e_k(killed_by_k_only)) > 0.5


def test_bridge_report_on_equal_subgroups_is_zero():
    torus = FuzzyTorus(6, 1)
    ell = LengthFunction.max_arc(6)
    h = TorusSubgroup.cyclic_first_factor(6, 3)
    report = fixed_point_bridge(torus, ell, h, h, count=4, seed=0)
    assert report.reach_sampled == 0.0


def test_bridge_inclusion_direction_is_exactly_zero():
    torus = FuzzyTorus(6, 1)
    ell = LengthFunction.max_arc(6)
    h = TorusSubgroup.cyclic_first_factor(6, 2)
    k = TorusSubgroup.cyclic_first_factor(6, 6)
    report = fixed_point_bridge(torus, ell, h, k, count=8, seed=1)
    # Larger subgroup -> smaller fixed algebra included in the other one.
    assert report.worst_right_to_left == 0.0
    assert report.worst_left_to_right > 0.0
    assert report.dim_fixed_left > report.dim_fixed_right


def test_bridge_reach_decreases_along_the_chain():
    q = 6
    torus = FuzzyTorus(q, 1)
    ell = LengthFunction.max_arc(q)
    limit = TorusSubgroup.cyclic_first_factor(q, q)
    reaches = [
        fixed_point_bridge(
            torus, ell, TorusSubgroup.cyclic_first_factor(q, m), limit, count=16, seed=3
        ).reach_sampled
        for m in (1, 2, 3, 6)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(reaches, reaches[1:]))


def _directed_bridge_reference(torus, ell, source, target, count, seed):
    # Worst ||u - E_target(u)|| over unit-ball elements u fixed by the source,
    # with the draws and lines that fixed_point_bridge samples.
    if np.all(target.mask | ~source.mask):
        return 0.0
    lines = _structured_lines(torus, np.argwhere(source.mask & ~target.mask))
    rng = np.random.default_rng(seed)
    draws = np.stack([source(random_hermitian(rng, torus.q)) for _ in range(count)])
    units = fixed_point._normalized_unit_ball(torus, ell, np.concatenate([lines, draws]))
    return float(np.max(operator_norms(np.stack([u - target(u) for u in units]))))


def test_bridge_directions_match_the_direct_witness_formula():
    q = 6
    torus = FuzzyTorus(q, 5)
    ell = LengthFunction.max_arc(q)
    subgroups = enumerate_subgroups(q)
    expect = {sub: AveragingExpectation(torus, sub) for sub in subgroups}
    # Each unordered pair covers both orders: swapping h and k swaps the directions.
    for h, k in itertools.combinations(subgroups, 2):
        report = fixed_point_bridge(torus, ell, h, k, count=2, seed=4)
        assert report.gap_sampled == expectation_gap(torus, ell, h, k, count=2, seed=4)
        for got, source, target in (
            (report.worst_left_to_right, expect[h], expect[k]),
            (report.worst_right_to_left, expect[k], expect[h]),
        ):
            ref = _directed_bridge_reference(torus, ell, source, target, 2, 4)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_bridge_directions_mirror_when_h_and_k_swap():
    # (E_H - E_K) u and (E_K - E_H) u are exact negations of each other, and
    # norms of their Hermitian parts come from eigvalsh: swapping H and K
    # swaps the two directions bit for bit on every pair.
    torus = FuzzyTorus(4, 1)
    ell = LengthFunction.max_arc(4)
    for h, k in itertools.combinations(enumerate_subgroups(4), 2):
        hk = fixed_point_bridge(torus, ell, h, k, count=4, seed=0)
        kh = fixed_point_bridge(torus, ell, k, h, count=4, seed=0)
        assert hk.gap_sampled == kh.gap_sampled
        assert (hk.worst_left_to_right, hk.worst_right_to_left) == (
            kh.worst_right_to_left, kh.worst_left_to_right)


@pytest.mark.parametrize(
    "q,p,h_gens,k_gens,count,seed,expected",
    [
        (12, 1, [(1, 0)], [(1, 0), (0, 1)], 48, 0,
         (1.0471975511965963, 1.0471975511965963, 0.0)),
        (8, 1, [], [(1, 0), (0, 1)], 48, 0,
         (1.1107207345395915, 1.1107207345395915, 0.0)),
        (16, 3, [(4, 0)], [(0, 2)], 12, 5,
         (1.0261721529770298, 1.0261721529770298, 1.0261721529770291)),
    ],
    ids=["default", "q8-trivial-h", "q16-cross"],
)
def test_bridge_report_values_are_pinned(q, p, h_gens, k_gens, count, seed, expected):
    # gap_sampled and the reach directions of the fixedpoint CLI's default
    # pair, a trivial H, and a pair with both directions nonzero, as taken
    # by separate gap and direction passes: one shared sample must keep them.
    torus = FuzzyTorus(q, p)
    ell = LengthFunction.max_arc(q)
    h = TorusSubgroup.from_generators(q, *h_gens) if h_gens else TorusSubgroup.trivial(q)
    k = TorusSubgroup.from_generators(q, *k_gens)
    report = fixed_point_bridge(torus, ell, h, k, count=count, seed=seed)
    got = (report.gap_sampled, report.worst_left_to_right, report.worst_right_to_left)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def _bridge_bits(q, p, ell, h_gens, k_gens, count, seed):
    h = TorusSubgroup.from_generators(q, *h_gens)
    k = TorusSubgroup.from_generators(q, *k_gens)
    report = fixed_point_bridge(FuzzyTorus(q, p), ell, h, k, count=count, seed=seed)
    return [float(x).hex() for x in dataclasses.astuple(report)]


def _kept_tables(ell):
    # The size of every table kept for the process, and the line terms the
    # length function holds per twist.
    terms = {p: int(np.count_nonzero(~np.isnan(t))) for p, t in ell._line_terms.items()}
    return (fixed_point._order_tables.cache_info().currsize,
            TorusSubgroup.cosets.cache_info().currsize,
            TorusSubgroup.element_array.cache_info().currsize, terms)


def test_warm_runs_keep_the_bits_of_cold_ones():
    # The q16-cross pin, cold, then again after other twists, other length
    # tables and other subgroups at its order have filled the kept tables:
    # the same bits, and those of a fresh process.
    q, p, h_gens, k_gens, count, seed = 16, 3, [(4, 0)], [(0, 2)], 12, 5
    fixed_point._order_tables.cache_clear()
    TorusSubgroup.cosets.cache_clear()
    TorusSubgroup.element_array.cache_clear()
    arc = LengthFunction.max_arc(q)
    ell = LengthFunction(q, arc.values.copy())
    cold = _bridge_bits(q, p, ell, h_gens, k_gens, count, seed)
    others = [([(2, 0)], [(0, 4)]), ([(4, 0)], [(1, 0)]), ([(1, 1)], [(0, 2)]), ([(8, 8)], [(2, 2)])]
    for length in (ell, arc, LengthFunction(q, 2.0 * arc.values)):
        for twist in (1, 3, 5, 15):
            for pair in others:
                _bridge_bits(q, twist, length, *pair, count, seed)
    assert ell._line_terms.keys() == {1, 3, 5, 15}
    assert _bridge_bits(q, p, ell, h_gens, k_gens, count, seed) == cold
    assert _bridge_bits(q, p, arc, h_gens, k_gens, count, seed) == cold
    kept = _kept_tables(ell)
    assert _bridge_bits(q, p, ell, h_gens, k_gens, count, seed) == cold
    assert _kept_tables(ell) == kept
    src = str(Path(fixed_point.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import dataclasses\n"
            "from matprox.fixed_point import FuzzyTorus, LengthFunction, TorusSubgroup, fixed_point_bridge\n"
            f"h = TorusSubgroup.from_generators({q}, *{h_gens!r})\n"
            f"k = TorusSubgroup.from_generators({q}, *{k_gens!r})\n"
            f"r = fixed_point_bridge(FuzzyTorus({q}, {p}), LengthFunction.max_arc({q}), h, k, "
            f"count={count}, seed={seed})\n"
            "print([float(x).hex() for x in dataclasses.astuple(r)])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(cold)


def test_kept_tables_are_shared_and_read_only():
    torus = FuzzyTorus(16, 3)
    h = TorusSubgroup.from_generators(16, (4, 0))
    assert FuzzyTorus(16, 5)._shift_gather is torus._shift_gather
    assert TorusSubgroup.cyclic_first_factor(16, 4).cosets() is h.cosets()
    shared = (torus._roots, torus._row_grid, torus._gather_cols, torus._entry_offsets,
              torus._shift_gather, torus._action_phases, torus.shift, h.cosets(), h.element_array())
    for table in shared:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_below_one_is_rejected(count):
    torus = FuzzyTorus(6, 1)
    ell = LengthFunction.max_arc(6)
    h = TorusSubgroup.cyclic_first_factor(6, 2)
    k = TorusSubgroup.cyclic_first_factor(6, 6)
    for pair in ((h, k), (h, h)):
        with pytest.raises(ConfigError):
            expectation_gap(torus, ell, *pair, count=count)
        with pytest.raises(ConfigError):
            fixed_point_bridge(torus, ell, *pair, count=count)


def test_seminorm_never_takes_norms_of_an_empty_stack(monkeypatch):
    # The Schatten screen can leave nothing of a chunk; that chunk makes no call.
    shapes = []

    def recording(diffs):
        shapes.append(diffs.shape)
        return operator_norms(diffs)

    monkeypatch.setattr(fixed_point, "operator_norms", recording)
    torus = FuzzyTorus(12, 1)
    ell = LengthFunction.max_arc(12)
    h = TorusSubgroup.from_generators(12, (1, 0))
    k = TorusSubgroup.full(12)
    expectation_gap(torus, ell, h, k, count=8, seed=0)
    fixed_point_bridge(torus, ell, h, k, count=8, seed=0)
    assert shapes and min(shape[0] for shape in shapes) > 0


def test_sweep_rows_cover_orders_and_end_at_zero():
    rows = fixed_point_sweep([4, 6], count=8, seed=0)
    by_q = {}
    for row in rows:
        by_q.setdefault(row["q"], []).append(row)
    for q, qrows in by_q.items():
        last = [r for r in qrows if r["m"] == q][0]
        assert last["gap_sampled"] == 0.0
        assert last["haus_ell"] == 0.0
        assert all(r["dim_fixed"] * r["m"] == q * q for r in qrows)


def test_sweep_rows_equal_per_row_gaps_bitwise(monkeypatch):
    # The draws are normalized once per order and shared by its divisor rows.
    sizes = []

    def recording(torus, ell, stack):
        sizes.append(len(stack))
        return seminorms(torus, ell, stack)

    seminorms = fixed_point.action_lip_seminorms
    monkeypatch.setattr(fixed_point, "action_lip_seminorms", recording)
    rows = fixed_point_sweep([6, 12], count=48, seed=0)
    assert sizes == [48, 48]
    for row in rows:
        q = row["q"]
        limit = TorusSubgroup.cyclic_first_factor(q, q)
        sub = TorusSubgroup.cyclic_first_factor(q, row["m"])
        gap = expectation_gap(FuzzyTorus(q, 1), LengthFunction.max_arc(q), sub, limit, count=48, seed=0)
        assert row["gap_sampled"] == gap


# ---------------------------------------------------------------------------
# Commutative cross-check.
# ---------------------------------------------------------------------------


def six_circle():
    return epsilon_net(Circle(TAU), 6)[0]


def rotation_orbits(sub: TorusSubgroup) -> list[np.ndarray]:
    """The orbits of the rotations in ``sub`` on the circle net whose point
    i is the group element (i, 0): the cosets of ``sub``, by least point."""
    labels = sub.cosets()[:, 0]
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


def rotation_reach(n: int, sub: TorusSubgroup) -> float:
    return mean_distance(LengthFunction.max_arc(n), TorusSubgroup.trivial(n), sub)


def test_trivial_subgroup_keeps_everything():
    space = six_circle()
    orbits = rotation_orbits(TorusSubgroup.trivial(6))
    assert len(orbits) == 6
    assert rotation_reach(6, TorusSubgroup.trivial(6)) == 0.0
    assert sampled_orbit_reach(space, orbits, count=50, seed=0)[0] == 0.0


def test_rotation_by_three_gives_three_orbits():
    space = six_circle()
    sub = TorusSubgroup.cyclic_first_factor(6, 2)
    orbits = rotation_orbits(sub)
    assert [o.tolist() for o in orbits] == [[0, 3], [1, 4], [2, 5]]
    assert len(orbits) == 3
    assert sub.a == 3
    reach = rotation_reach(6, sub)
    sampled, violation = sampled_orbit_reach(space, orbits, count=200, seed=1)
    assert violation <= 1e-12
    assert sampled <= reach + 1e-12
    # An average moves a function by at most the orbit diameter.
    assert reach <= max(space.dist[np.ix_(o, o)].max() for o in orbits)


def test_lip_contraction_on_many_random_functions():
    orbits = rotation_orbits(TorusSubgroup.cyclic_first_factor(6, 3))
    assert sampled_orbit_reach(six_circle(), orbits, count=1000, seed=2)[1] <= 1e-12


def _symmetry_cases():
    """Every subgroup of the rotations of the circle net for n = 2..12."""
    for n in range(2, 13):
        for order in (d for d in range(1, n + 1) if n % d == 0):
            yield pytest.param(n, order, id=f"circle{n}-rot{order}")


@pytest.mark.parametrize("n,order", _symmetry_cases())
def test_commutative_reach_is_the_closed_form(n, order):
    space = epsilon_net(Circle(TAU), n)[0]
    sub = TorusSubgroup.cyclic_first_factor(n, order)
    orbits = rotation_orbits(sub)
    reach = rotation_reach(n, sub)
    sampled, violation = sampled_orbit_reach(space, orbits, count=200, seed=0)
    assert sampled <= reach + EXACT and violation <= EXACT
    # f = d(0, .) attains the reach at x = 0: f(0) = 0.
    assert abs(orbit_average(orbits, space.dist[0])[0] - reach) <= np.spacing(reach)


def test_commutative_reach_on_the_six_point_circle():
    reaches = [rotation_reach(6, TorusSubgroup.cyclic_first_factor(6, order)) for order in (1, 2, 3, 6)]
    assert reaches == [0.0, np.pi / 2, 1.3962634015954636, np.pi / 2]


def _mean_distance_by_pairs(ell: LengthFunction, h: TorusSubgroup, k: TorusSubgroup) -> float:
    """m(H->K) from the length of the difference of every pair of an element
    of K and an element of H, each subgroup closed from its basis."""
    q = ell.q
    lengths = np.array([[ell((j, t)) for t in range(q)] for j in range(q)])
    a, b = (np.array(sorted(subgroup_closure(q, [(s.a, 0), (s.s, s.b)]))) for s in (h, k))
    diff = (b[:, None, :] - a[None, :, :]) % q
    return float(np.mean(np.min(lengths[diff[..., 0], diff[..., 1]], axis=1)))


@pytest.mark.parametrize("q", range(2, 9))
def test_mean_distance_matches_pairs_and_stays_below_hausdorff(q):
    ell = LengthFunction.max_arc(q)
    subgroups = enumerate_subgroups(q)
    for h in subgroups:
        assert mean_distance(ell, h, h) == 0.0
        for k in subgroups:
            forward, backward = mean_distance(ell, h, k), mean_distance(ell, k, h)
            assert abs(forward - _mean_distance_by_pairs(ell, h, k)) <= EXACT
            assert max(forward, backward) <= subgroup_hausdorff(ell, h, k)


@pytest.mark.parametrize("measure", [fixed_point_bridge, expectation_gap])
def test_gaps_need_the_length_function_of_the_torus_order(measure):
    # The order-12 length function already keeps line terms for p = 1.
    fixed_point_bridge(FuzzyTorus(12, 1), LengthFunction.max_arc(12),
                       TorusSubgroup.trivial(12), TorusSubgroup.full(12), count=2)
    with pytest.raises(InputShapeError, match="orders differ"):
        measure(FuzzyTorus(24, 1), LengthFunction.max_arc(12),
                TorusSubgroup.trivial(24), TorusSubgroup.full(24), count=2)


@pytest.mark.parametrize("distance", [mean_distance, subgroup_hausdorff])
def test_subgroup_distances_need_one_ambient_group(distance):
    with pytest.raises(InputShapeError):
        distance(LengthFunction.max_arc(6), TorusSubgroup.trivial(6), TorusSubgroup.full(4))
    with pytest.raises(InputShapeError):
        distance(LengthFunction.max_arc(4), TorusSubgroup.trivial(6), TorusSubgroup.full(6))
