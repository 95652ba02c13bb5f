import numpy as np
import pytest

from gaborlab import groups
from gaborlab.algebra import commutant, span_equal
from gaborlab.campaigns import bessel_duality_sweep
from gaborlab.duality import (
    gabor_bimodule,
    shift_algebra,
    verify_bessel_duality,
    verify_cdim_covolume,
    verify_commutant,
    verify_gabor_alignment,
)
from gaborlab.gabor import Window, shift_stack
from gaborlab.groups import (
    FiniteAbelianGroup,
    ResourceLimitError,
    covolume,
    enumerate_subgroups,
    lattice_from_generators,
    phase_point,
)
from gaborlab.vnmod import cdim, induced_trace

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))


def lat_trivial(group):
    return lattice_from_generators(group, [])


def lat_full(group):
    gens = [phase_point(group, (1,), (0,)), phase_point(group, (0,), (1,))]
    return lattice_from_generators(group, gens)


def lat_square():
    gens = [phase_point(Z4, (2,), (0,)), phase_point(Z4, (0,), (2,))]
    return lattice_from_generators(Z4, gens)


def delta(group):
    vals = np.zeros(group.size, dtype=complex)
    vals[0] = 1.0
    return Window(group, vals)


# ------------------------------------------------------------- construction


def test_bimodule_for_trivial_lattice():
    lat = lat_trivial(Z4)
    bm = gabor_bimodule(lat)
    assert bm.left.image_algebra.dimension == 1
    # the adjoint is everything, so the right action fills all of B(L2)
    assert lat.adjoint.size == 16
    assert bm.right.image_algebra.dimension == 16


def test_bimodule_for_full_lattice():
    bm = gabor_bimodule(lat_full(Z4))
    assert bm.left.image_algebra.dimension == 16
    assert bm.right.image_algebra.dimension == 1


def test_bimodule_for_square_lattice():
    bm = gabor_bimodule(lat_square())
    left = bm.left.image_algebra
    right = bm.right.image_algebra
    assert left.dimension == 4
    assert right.dimension == 4
    ok, dev = span_equal(commutant(left), right)
    assert ok, dev
    ok, dev = span_equal(commutant(right), left)
    assert ok, dev


def test_bimodule_group_cap():
    big = FiniteAbelianGroup((16,))
    with pytest.raises(ResourceLimitError):
        gabor_bimodule(lat_full(big))


def test_shift_algebra_basis_is_orthonormal():
    alg = shift_algebra(lat_square())
    flat = alg.basis_flat
    gram = flat.conj() @ flat.T
    assert np.allclose(gram, np.eye(4), atol=1e-12)


# ------------------------------------------------------------ verification


@pytest.mark.parametrize("make", [lambda: lat_trivial(Z4), lambda: lat_full(Z4), lat_square])
def test_commutant_reports_pass(make):
    checks = verify_commutant(make())
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_cdim_covolume_worked_values():
    for make, want in ((lambda: lat_full(Z4), 0.25), (lat_square, 1.0), (lambda: lat_trivial(Z2), 2.0)):
        lat = make()
        bm = gabor_bimodule(lat)
        value = cdim(bm.left)
        assert value.max_dev_from_scalar(want) <= 1e-9
        checks = verify_cdim_covolume(lat, bm=bm)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_bessel_duality_full_lattice():
    lat = lat_full(Z4)
    g = delta(Z4)
    checks = verify_bessel_duality(g, lat, bm=gabor_bimodule(lat))
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["bessel-duality"].lhs == pytest.approx(1.0, abs=1e-12)
    assert by_name["right-norm-bessel"].rhs == pytest.approx(4.0, abs=1e-12)


def test_bessel_duality_halfline_lattice():
    gens = [phase_point(Z4, (2,), (0,)), phase_point(Z4, (0,), (1,))]
    lat = lattice_from_generators(Z4, gens)
    g = delta(Z4)
    checks = verify_bessel_duality(g, lat, bm=gabor_bimodule(lat))
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["bessel-duality"].lhs == pytest.approx(2.0, abs=1e-12)
    assert by_name["bessel-duality"].rhs == pytest.approx(2.0, abs=1e-12)


def test_bessel_duality_zero_window():
    lat = lat_square()
    g = Window(Z4, np.zeros(4, dtype=complex))
    checks = verify_bessel_duality(g, lat, bm=gabor_bimodule(lat))
    assert all(c.passed for c in checks)
    assert checks[0].lhs == 0.0
    assert checks[0].rhs == 0.0


def test_gabor_alignment_check():
    check = verify_gabor_alignment(lat_square())
    assert check.passed


def test_induced_trace_matches_covolume_trace():
    # trace induced on the adjoint shifts equals covol on the zero shift, 0 elsewhere
    lat = lat_square()
    bm = gabor_bimodule(lat)
    tr = induced_trace(bm.left, bm.right.image_algebra)
    covol = float(covolume(lat))
    shifts = shift_stack(lat.adjoint)
    for i, z in enumerate(lat.adjoint.elements):
        want = covol if (z.x == (0,) and z.w == (0,)) else 0.0
        assert tr(shifts[i]) == pytest.approx(want, abs=1e-9)


def test_one_adjoint_per_lattice(monkeypatch):
    calls = []
    adjoint_lattice = groups.adjoint_lattice

    def counted(lat):
        calls.append(lat)
        return adjoint_lattice(lat)

    monkeypatch.setattr(groups, "adjoint_lattice", counted)
    bessel_duality_sweep(4, 3)
    # Z2, Z3 and Z4 have 5 + 6 + 15 lattices, each windowed 3 times
    assert len(calls) == 26


def test_random_window_sweep_small_groups():
    rng = np.random.default_rng(17)
    for group in (Z2, FiniteAbelianGroup((2, 2))):
        for lat in enumerate_subgroups(group):
            bm = gabor_bimodule(lat)
            for _ in range(3):
                vals = rng.normal(size=group.size) + 1j * rng.normal(size=group.size)
                g = Window(group, vals)
                checks = verify_bessel_duality(g, lat, bm=bm)
                assert all(c.passed for c in checks)
