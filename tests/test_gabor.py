import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gaborlab.algebra import twisted_group_algebra
from gaborlab.gabor import (
    bessel_bound_opt,
    frame_operator,
    tf_shift,
    window_from_dict,
)
from gaborlab.groups import (
    FiniteAbelianGroup,
    InvalidElementError,
    adjoint_lattice,
    covolume,
    enumerate_subgroups,
    group_from_dict,
    lattice_from_generators,
)
from reference import add, all_points, analysis_matrix, bessel_bound_by_analysis, cocycle, point

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))


def pp(group, x, w):
    return point(group, x, w)


def delta0(group):
    v = np.zeros(group.size, dtype=complex)
    v[0] = 1.0
    return v


def test_tf_shift_identity():
    assert np.allclose(tf_shift(Z4, pp(Z4, (0,), (0,))), np.eye(4))


def test_tf_shift_translation_and_modulation():
    swap = tf_shift(Z2, pp(Z2, (1,), (0,)))
    assert np.allclose(swap, np.array([[0, 1], [1, 0]]))
    mod = tf_shift(Z2, pp(Z2, (0,), (1,)))
    assert np.allclose(mod, np.diag([1, -1]))


def test_tf_shift_unitary():
    for z in all_points(Z4):
        u = tf_shift(Z4, z)
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-12


def fraction_character(group, w, x):
    # exp(2 pi i sum_j w_j x_j / N_j) with the angle reduced mod 1 exactly
    t = sum(Fraction(wj * xj, nj) for wj, xj, nj in zip(w, x, group.orders))
    return cmath.exp(2j * math.pi * float(t - math.floor(t)))


def shift_by_definition(group, z):
    # (M f)(t) = w(t) f(t - x), entry by entry; shares no code with groups.pairing
    elems = list(itertools.product(*(range(n) for n in group.orders)))
    pos = {t: i for i, t in enumerate(elems)}
    k = len(group.orders)
    mat = np.zeros((len(elems), len(elems)), dtype=complex)
    for i, t in enumerate(elems):
        src = tuple((tj - xj) % nj for tj, xj, nj in zip(t, z[:k], group.orders))
        mat[i, pos[src]] = fraction_character(group, z[k:], t)
    return mat


@pytest.mark.parametrize("orders", [(2, 3), (2, 4)], ids=["2x3", "2x4"])
def test_tf_shift_matches_definition(orders):
    # in Z2 x Z4 the phase unit 1/lcm differs from 1/N_1
    group = FiniteAbelianGroup(orders)
    pts = all_points(group)
    for z in pts:
        assert np.max(np.abs(tf_shift(group, z) - shift_by_definition(group, z))) <= 1e-12
    # a stack of rows gives the same unitaries, in order
    want = np.array([tf_shift(group, z) for z in pts])
    assert np.array_equal(tf_shift(group, np.array(pts)), want)


def test_tf_shift_rejects_points_outside_the_phase_space():
    for z in ((4, 0), (0, -1), (1,), (1, 0, 0), (1.5, 0), [(0, 0), (0, 4)]):
        with pytest.raises(InvalidElementError):
            tf_shift(Z4, z)


def test_cocycle_trivial_frequency():
    z = pp(Z4, (1,), (3,))
    zp = pp(Z4, (2,), (0,))
    assert cocycle(Z4, z, zp) == pytest.approx(1)


def test_cocycle_value():
    # phase conj(w'(x)) with x=2, w'=1 over Z_4: conj(i^2) = -1
    z = pp(Z4, (2,), (0,))
    zp = pp(Z4, (1,), (1,))
    assert cocycle(Z4, z, zp) == pytest.approx(-1)


def test_projectivity_all_pairs():
    """shift(z) shift(z') = cocycle(z,z') shift(z+z'), the whole phase space."""
    for z in all_points(Z4):
        uz = tf_shift(Z4, z)
        for zp in all_points(Z4):
            lhs = uz @ tf_shift(Z4, zp)
            rhs = cocycle(Z4, z, zp) * tf_shift(Z4, add(Z4, z, zp))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_cocycle_identity():
    rng = np.random.default_rng(1)
    pts = all_points(Z4)
    for _ in range(50):
        z1, z2, z3 = (pts[rng.integers(len(pts))] for _ in range(3))
        lhs = cocycle(Z4, z1, z2) * cocycle(Z4, add(Z4, z1, z2), z3)
        rhs = cocycle(Z4, z1, add(Z4, z2, z3)) * cocycle(Z4, z2, z3)
        assert abs(lhs - rhs) <= 1e-12


def test_analysis_matrix_conventions():
    g = np.array([1, 2j, -1, 0.5], dtype=complex)
    triv = lattice_from_generators(Z4, [])
    row = analysis_matrix(g, triv)
    assert row.shape == (1, 4)
    assert np.allclose(row[0], g.conj())

    zero = np.zeros(4, dtype=complex)
    full = lattice_from_generators(Z4, [pp(Z4, (1,), (0,)), pp(Z4, (0,), (1,))])
    assert np.allclose(analysis_matrix(zero, full), 0)

    # (C f)_z = <f, shift(z) g>, linear in f
    f = np.array([0.3, -1j, 2, 1], dtype=complex)
    C = analysis_matrix(g, full)
    for i, z in enumerate(full.rows):
        want = np.vdot(tf_shift(Z4, z) @ g, f)  # vdot conjugates arg 1
        assert C[i] @ f == pytest.approx(want)
    # and the frame operator is C* C
    assert np.allclose(frame_operator([g], full)[0], C.conj().T @ C, atol=1e-12)


def test_frame_operator_full_lattice():
    full = lattice_from_generators(Z4, [pp(Z4, (1,), (0,)), pp(Z4, (0,), (1,))])
    S = frame_operator([delta0(Z4)], full)[0]
    assert np.allclose(S, 4 * np.eye(4), atol=1e-12)


def test_frame_operator_half_lattice():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (1,))])
    S = frame_operator([delta0(Z4)], lat)[0]
    assert np.allclose(S, np.diag([4, 0, 4, 0]), atol=1e-12)


def test_frame_operator_rank_one():
    g = np.array([1, 1j, 0, -1], dtype=complex)
    triv = lattice_from_generators(Z4, [])
    S = frame_operator([g], triv)[0]
    assert np.allclose(S, np.outer(g, g.conj()), atol=1e-12)


def test_bessel_bound_worked_values():
    full = lattice_from_generators(Z4, [pp(Z4, (1,), (0,)), pp(Z4, (0,), (1,))])
    half = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (1,))])
    g = [delta0(Z4)]
    assert bessel_bound_opt(g, full) == pytest.approx([4])
    assert bessel_bound_opt(g, half) == pytest.approx([4])
    assert bessel_bound_opt(g, adjoint_lattice(half)) == pytest.approx([2])
    assert bessel_bound_opt(g, adjoint_lattice(full)) == pytest.approx([1])


def test_bessel_bound_matches_synthesis_norm():
    # second route: squared operator norm of the analysis map
    rng = np.random.default_rng(7)
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    for _ in range(10):
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        C = analysis_matrix(g, lat)
        assert bessel_bound_opt([g], lat) == pytest.approx([np.linalg.norm(C, 2) ** 2])


def test_quarter_phases_are_exact():
    # every character value of Z2^2 and Z4 is a fourth root of unity, and
    # comes out exactly, so each of Z2^2's 67 lattice algebras is exactly real
    fourth_roots = {1, 1j, -1, -1j}
    for group in (FiniteAbelianGroup((2, 2)), Z4):
        stack = tf_shift(group, all_points(group))
        assert set(stack[stack != 0].tolist()) <= fourth_roots
    z22 = enumerate_subgroups(FiniteAbelianGroup((2, 2)))
    assert len(z22) == 67
    assert not any(np.any(twisted_group_algebra(lat).basis.imag) for lat in z22)


def test_shift_linear_independence():
    for lat in enumerate_subgroups(Z4):
        mats = np.stack([tf_shift(Z4, z) for z in lat.rows])
        flat = mats.reshape(lat.size, -1)
        svals = np.linalg.svd(flat, compute_uv=False)
        assert svals[-1] > 1e-10 * svals[0]


def test_bessel_duality_seeded_windows():
    """The duality of optimal bounds, directly from the two frame operators."""
    rng = np.random.default_rng(11)
    for group in (Z2, FiniteAbelianGroup((6,))):
        for lat in enumerate_subgroups(group):
            adj = adjoint_lattice(lat)
            cv = float(covolume(lat))
            gs = [
                rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)
                for _ in range(5)
            ]
            b = bessel_bound_opt(gs, lat)
            bo = bessel_bound_opt(gs, adj)
            assert np.all(np.abs(bo - cv * b) <= 1e-8 * np.maximum(1.0, b))


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (5,), (6,), (2, 2)], ids=str)
def test_stacked_bessel_bound_matches_analysis_oracle(orders):
    # the oracle builds each window's analysis matrix row by row from tf_shift
    # and takes |C|_2^2: no shift_stack, no frame operator, no eigvalsh
    group = FiniteAbelianGroup(orders)
    rng = np.random.default_rng(41)
    for lat in enumerate_subgroups(group):
        gs = rng.standard_normal((5, group.size)) + 1j * rng.standard_normal((5, group.size))
        want = [bessel_bound_by_analysis(g, lat) for g in gs]
        assert bessel_bound_opt(gs, lat) == pytest.approx(want, rel=1e-12)


def dft_matrix(group):
    # (F f)(w) = |G|^(-1/2) sum_t f(t) conj(w(t)), entry by entry from exact
    # Fraction phases; shares no code with groups.pairing or the duality layer
    elems = list(itertools.product(*(range(n) for n in group.orders)))
    mat = np.array([[fraction_character(group, w, t).conjugate() for t in elems] for w in elems])
    return mat / np.sqrt(group.size)


def fourier_turn(lat):
    # J(x, w) = (w, -x): the lattice that F maps the shifts of lat onto
    k = len(lat.group.orders)
    rows = np.hstack([lat.rows[:, k:], (-lat.rows[:, :k]) % lat.group.orders])
    return lattice_from_generators(lat.group, rows)


@pytest.mark.parametrize(
    "orders", [(n,) for n in range(2, 9)] + [(2, 2), (2, 3)], ids=lambda o: "x".join(map(str, o))
)
def test_fourier_covariance(orders):
    # F shift(x, w) F* is shift(w, -x) up to a phase, so J maps adjoints to
    # adjoints, and the window F g over J lat has the Bessel bound of g over lat
    group = FiniteAbelianGroup(orders)
    F = dft_matrix(group)
    assert np.allclose(F @ F.conj().T, np.eye(group.size), atol=1e-12)
    rng = np.random.default_rng(29)
    for lat in enumerate_subgroups(group):
        turned = fourier_turn(lat)
        assert np.array_equal(fourier_turn(lat.adjoint).codes, turned.adjoint.codes)
        gs = rng.standard_normal((3, group.size)) + 1j * rng.standard_normal((3, group.size))
        want = bessel_bound_opt(gs, lat)
        assert bessel_bound_opt(gs @ F.T, turned) == pytest.approx(want, rel=1e-12)


def test_frame_operator_rejects_a_stack_of_the_wrong_shape():
    triv = lattice_from_generators(Z4, [])
    for bad in (np.ones(4), np.ones((2, 3))):
        with pytest.raises(InvalidElementError, match="stack"):
            frame_operator(bad, triv)


def test_window_json_round_trip():
    g = np.array([1, 2j, -0.5, 0], dtype=complex)
    data = json.loads(json.dumps({"orders": [4], "values": [[v.real, v.imag] for v in g]}))
    back = window_from_dict(data, group_from_dict(data))
    assert np.array_equal(back, g)
    # the values must fill the group, one per element
    with pytest.raises(InvalidElementError, match="window has 4 entries, group has 2"):
        window_from_dict(data, Z2)
