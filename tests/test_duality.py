import warnings

import numpy as np
import pytest

import gaborlab.bimodule
from gaborlab import algebra, campaigns, cli, duality, groups, vnmod
from gaborlab.algebra import (
    block_matrix_algebra,
    commutant,
    span_equal,
    twisted_group_algebra,
)
from gaborlab.campaigns import (
    _gaussian_windows,
    basic_construction_sweep,
    bessel_duality_sweep,
    bounded_vector_sweep,
    cdim_sweep,
    coefficient_change_sweep,
    commutant_sweep,
    cross_oracle_sweep,
    determinism_probe,
    duality_report,
    norm_inequality_sweep,
)
from gaborlab.duality import (
    gabor_bimodule,
    verify_bessel_duality,
    verify_cdim_covolume,
    verify_commutant,
)
from gaborlab.gabor import shift_stack
from gaborlab.groups import (
    FiniteAbelianGroup,
    InvalidElementError,
    Lattice,
    ResourceLimitError,
    covolume,
    enumerate_subgroups,
    lattice_from_generators,
)
from gaborlab.reporting import campaign_rng
from gaborlab.vnmod import cdim, induced_trace
from reference import point

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))


def lat_trivial(group):
    return lattice_from_generators(group, [])


def lat_full(group):
    gens = [point(group, (1,), (0,)), point(group, (0,), (1,))]
    return lattice_from_generators(group, gens)


def lat_square():
    gens = [point(Z4, (2,), (0,)), point(Z4, (0,), (2,))]
    return lattice_from_generators(Z4, gens)


def delta(group):
    vals = np.zeros(group.size, dtype=complex)
    vals[0] = 1.0
    return vals


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
    alg = twisted_group_algebra(lat_square())
    flat = alg.basis_flat
    gram = flat.conj() @ flat.T
    assert np.allclose(gram, np.eye(4), atol=1e-12)


# ------------------------------------------------------------ verification


@pytest.mark.parametrize("make", [lambda: lat_trivial(Z4), lambda: lat_full(Z4), lat_square])
def test_commutant_reports_pass(make):
    checks = verify_commutant(gabor_bimodule(make()))
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_cdim_covolume_worked_values():
    for make, want in ((lambda: lat_full(Z4), 0.25), (lat_square, 1.0), (lambda: lat_trivial(Z2), 2.0)):
        lat = make()
        bm = gabor_bimodule(lat)
        assert np.max(np.abs(cdim(bm.left) - want)) <= 1e-9
        checks = verify_cdim_covolume(lat, bm)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_one_cdim_per_side_per_lattice(monkeypatch):
    calls = []

    def counted(module):
        calls.append(module)
        return cdim(module)

    for module in (duality, gaborlab.bimodule):
        monkeypatch.setattr(module, "cdim", counted)
    lat = lat_square()
    bm = gabor_bimodule(lat)
    assert all(c.passed for c in verify_cdim_covolume(lat, bm))
    assert [id(m) for m in calls] == [id(bm.left), id(bm.right)]


def test_each_bimodule_pairs_its_blocks_once(monkeypatch):
    # a cdim array is in its algebra's block order, so only two different
    # algebras are ever paired: no call gets one stack twice, and each
    # bimodule pairs its two actions' centers once, for all its readers
    calls, bimodules, pair = [], [], vnmod.pair_blocks

    def spy(a, b):
        calls.append((a, b))
        return pair(a, b)

    def counted_bimodule(lat):
        bimodules.append(gabor_bimodule(lat))
        return bimodules[-1]

    for module in (vnmod, gaborlab.bimodule, campaigns):
        monkeypatch.setattr(module, "pair_blocks", spy)
    monkeypatch.setattr(campaigns, "gabor_bimodule", counted_bimodule)
    runs = [
        (lambda: all(c.passed for c in cdim_sweep(4)), 5 + 6 + 15),
        (lambda: duality_report((2, 2), trials=1).all_passed, 67),
    ]
    for run, lattices in runs:
        calls.clear()
        bimodules.clear()
        assert run()
        assert len({id(bm) for bm in bimodules}) == len(bimodules) == lattices
        assert len(calls) == lattices
        assert all(a is not b for a, b in calls)
        assert all("partners" in vars(bm) for bm in bimodules)


def test_one_algebra_and_one_split_per_lattice(monkeypatch):
    built, split, bimodules = counted_algebras(monkeypatch), counted_splits(monkeypatch), []
    assert duality_report((2, 2), trials=1).all_passed
    # Z2^2's lattices are closed under the adjoint, so each lattice's algebra
    # is built and split once for both of its sides: the left of its own
    # bimodule and, transposed, the right of its adjoint's; cdim,
    # cdim_blockwise and the commutant read that one split
    lats = enumerate_subgroups(FiniteAbelianGroup((2, 2)))
    assert len(built) == len(set(built)) == len(lats) == 67 and set(built) == set(lats)
    assert len(split) == 67
    assert {id(basis) for basis in split} == {id(twisted_group_algebra(lat).basis) for lat in lats}

    def counted_bimodule(lat):
        bimodules.append(lat)
        return gabor_bimodule(lat)

    monkeypatch.setattr(campaigns, "gabor_bimodule", counted_bimodule)
    assert all(c.passed for c in campaigns.commutant_sweep(3))
    # Z2 and Z3 have 5 + 6 lattices
    assert len(bimodules) == 11


def test_one_bessel_run_splits_no_algebra(monkeypatch, capsys):
    split = counted_splits(monkeypatch)
    argv = ["bessel", "--orders", "4", "--lattice", '{"generators": [[[2], [0]], [[0], [1]]]}']
    argv += ["--window", '{"values": [[1, 0], [0, 0], [0, 0], [0, 0]]}']
    assert cli.run(argv) == 0
    assert split == []


def test_bessel_duality_full_lattice():
    lat = lat_full(Z4)
    g = delta(Z4)
    checks = verify_bessel_duality([g], lat, bm=gabor_bimodule(lat))
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["bessel-duality"].lhs == pytest.approx(1.0, abs=1e-12)
    assert by_name["right-norm-bessel"].rhs == pytest.approx(4.0, abs=1e-12)


def test_bessel_duality_halfline_lattice():
    gens = [point(Z4, (2,), (0,)), point(Z4, (0,), (1,))]
    lat = lattice_from_generators(Z4, gens)
    g = delta(Z4)
    checks = verify_bessel_duality([g], lat, bm=gabor_bimodule(lat))
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["bessel-duality"].lhs == pytest.approx(2.0, abs=1e-12)
    assert by_name["bessel-duality"].rhs == pytest.approx(2.0, abs=1e-12)


def test_bessel_duality_zero_window():
    # every bound of the zero window is 0, so no check could fail: bad input
    lat = lat_square()
    g = np.zeros(4, dtype=complex)
    with pytest.raises(InvalidElementError, match="window is zero"):
        verify_bessel_duality([g], lat, bm=gabor_bimodule(lat))


def test_no_windows_is_rejected_by_name():
    # with no window, vector or sample no check could run, so each entry point refuses
    lat = lat_square()
    calls = (
        (lambda: verify_bessel_duality([], lat, prefixes=[]), "no windows"),
        (lambda: verify_bessel_duality([], lat, prefixes=[], bm=gabor_bimodule(lat)), "no windows"),
        (lambda: duality_report((2, 2), trials=0), "no windows"),
        (lambda: bessel_duality_sweep(trials=0), "no windows"),
        (lambda: norm_inequality_sweep(3, 0, 3), "no vectors"),
        (lambda: basic_construction_sweep(0, 3), "no samples"),
        (lambda: coefficient_change_sweep(0, 3), "no vectors"),
    )
    for call, match in calls:
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-20, 1e100])
def test_bessel_gate_is_relative_at_every_scale(scale, monkeypatch):
    lat = lattice_from_generators(Z4, [point(Z4, (2,), (0,)), point(Z4, (0,), (1,))])
    bm = gabor_bimodule(lat)
    vals = np.array([1.0, 1j]) @ np.random.default_rng(5).normal(size=(2, 4))
    base = verify_bessel_duality([vals], lat, tol=1e-30, bm=bm)
    scaled = verify_bessel_duality([vals * scale], lat, tol=1e-30, bm=bm)
    for got, want in zip(scaled, base):
        assert got.deviation == pytest.approx(want.deviation, abs=1e-14)
        assert got.lhs == pytest.approx(want.lhs * scale**2, rel=1e-12)
        assert got.rhs == pytest.approx(want.rhs * scale**2, rel=1e-12)
    # the default tolerance passes at every scale
    assert all(c.passed for c in verify_bessel_duality([vals * scale], lat, bm=bm))

    # an adjoint bound 1e-6 too large, relative to itself, fails a gate of
    # 1e-8 and passes one of 1e-4 at every scale; a gate that is absolute
    # for small bounds would pass a tiny window at both
    exact = duality.bessel_bound_opt

    def skewed(units, lattice):
        return exact(units, lattice) * (1.0 + 1e-6 if lattice is lat.adjoint else 1.0)

    monkeypatch.setattr(duality, "bessel_bound_opt", skewed)
    for tol, passed in ((1e-8, False), (1e-4, True)):
        checks = verify_bessel_duality([vals * scale], lat, tol=tol, bm=bm)
        gate = {c.name: c for c in checks}["bessel-duality"]
        assert gate.passed is passed
        assert gate.deviation == pytest.approx(1e-6, rel=1e-6)


def test_bessel_overflowing_window_is_rejected():
    lat = lat_square()
    for value in (1e200, 5e153):
        # 1e200: |g|^2 overflows; 5e153: |g|^2 fits but the bounds do not
        g = np.full(4, value, dtype=complex)
        with pytest.raises(InvalidElementError, match="overflow"):
            verify_bessel_duality([g], lat, bm=gabor_bimodule(lat))
    for value in (1e-200, 1e-160):
        # 1e-200: |g|^2 is 0 in floats; 1e-160: |g|^2 is subnormal, with digits lost
        g = np.full(4, value, dtype=complex)
        with pytest.raises(InvalidElementError, match="underflows a float"):
            verify_bessel_duality([g], lat, bm=gabor_bimodule(lat))


def test_bessel_duality_on_a_stack_equals_one_window_at_a_time():
    rng = np.random.default_rng(23)
    scales = (1e-150, 1.0, 1e150, 1.0, 1e-150, 1e150)
    for lat in enumerate_subgroups(Z4):
        bm = gabor_bimodule(lat)
        windows = np.array([(rng.normal(size=4) + 1j * rng.normal(size=4)) * s for s in scales])
        prefixes = [f"win{t:02d}/" for t in range(len(windows))]
        stacked = verify_bessel_duality(windows, lat, prefixes=prefixes, bm=bm)
        single = [
            c
            for g, prefix in zip(windows, prefixes)
            for c in verify_bessel_duality([g], lat, prefixes=[prefix], bm=bm)
        ]
        assert [(c.name, c.passed) for c in stacked] == [(c.name, c.passed) for c in single]
        assert len(stacked) == 3 * len(windows)
        for got, want in zip(stacked, single):
            assert got.lhs == pytest.approx(want.lhs, rel=1e-13)
            assert got.rhs == pytest.approx(want.rhs, rel=1e-13)
    with pytest.raises(ValueError, match="prefixes"):
        verify_bessel_duality(windows, lat, prefixes=["one"], bm=bm)
    with pytest.raises(InvalidElementError, match="stack"):
        verify_bessel_duality(windows[:, :3], lat, prefixes=prefixes, bm=bm)


def test_a_zero_window_anywhere_in_a_stack_is_rejected():
    lat = lat_square()
    bm = gabor_bimodule(lat)
    g = np.array([1.0, 2j, -1.0, 0.5])
    zero = np.zeros(4, dtype=complex)
    for stack in ([zero, g, g], [g, zero, g], [g, g, zero]):
        with pytest.raises(InvalidElementError, match="window is zero"):
            verify_bessel_duality(stack, lat, prefixes=["a/", "b/", "c/"], bm=bm)


def test_a_window_with_a_nan_or_infinite_entry_is_rejected():
    lat = lat_square()
    bm = gabor_bimodule(lat)
    g = np.array([1.0, 2j, -1.0, 0.5])
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)):
        stack = np.array([g, g, g])
        stack[1, 2] = bad
        # refused by name, before any arithmetic could warn about it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidElementError, match="window entries must be finite"):
                verify_bessel_duality(stack, lat, prefixes=["a/", "b/", "c/"], bm=bm)


def test_gabor_alignment_check():
    lat = lat_square()
    check = verify_cdim_covolume(lat, gabor_bimodule(lat))[-1]
    assert check.name == "trace-alignment" and check.passed


def test_every_a3_check_carries_the_tolerance():
    # every check, trace alignment included, is gated at the tolerance given
    checks = cdim_sweep(4, tol=1e-3)
    assert {c.name.rsplit("/", 1)[1] for c in checks} >= {"trace-alignment", "cdim-product-one"}
    assert {c.tolerance for c in checks} == {1e-3}


def test_induced_trace_matches_covolume_trace():
    # trace induced on the adjoint shifts equals covol on the zero shift, 0 elsewhere
    lat = lat_square()
    bm = gabor_bimodule(lat)
    tr = induced_trace(bm.left, bm.right.image_algebra)
    covol = float(covolume(lat))
    shifts = shift_stack(lat.adjoint)
    for i, z in enumerate(lat.adjoint.rows.tolist()):
        want = covol if z == [0, 0] else 0.0
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
    # A2 and A3 visit the same enumerated lattices, whose adjoints are known
    commutant_sweep(4)
    cdim_sweep(4)
    assert len(calls) == 26


def test_random_window_sweep_small_groups():
    rng = np.random.default_rng(17)
    for group in (Z2, FiniteAbelianGroup((2, 2))):
        for lat in enumerate_subgroups(group):
            bm = gabor_bimodule(lat)
            for _ in range(3):
                vals = rng.normal(size=group.size) + 1j * rng.normal(size=group.size)
                checks = verify_bessel_duality([vals], lat, bm=bm)
                assert all(c.passed for c in checks)


def test_window_t_of_a_draw_does_not_depend_on_the_trial_count():
    for group in (Z4, FiniteAbelianGroup((2, 3))):
        longest = _gaussian_windows(group, 30, 5, "duality", 2)
        assert longest.shape == (30, group.size)
        for trials in (1, 7, 29):
            assert np.array_equal(_gaussian_windows(group, trials, 5, "duality", 2), longest[:trials])


def test_one_generator_per_lattice(monkeypatch):
    keys = []

    def spy(seed, *key):
        keys.append(key)
        return campaign_rng(seed, *key)

    monkeypatch.setattr(campaigns, "campaign_rng", spy)
    count = len(enumerate_subgroups(Z2))
    assert len(bounded_vector_sweep((2,), 100, 3)) == 300 * count
    assert keys == [("bounded", 2, li) for li in range(count)]
    keys.clear()
    assert duality_report((2,), trials=3, seed=3).all_passed
    assert keys == [("duality", li) for li in range(count)]


def test_each_random_draw_has_its_own_key_path(monkeypatch):
    # A5's instances, their vectors and its Gabor vectors, and A8's
    # instances, each split straight from the master seed
    keys = []

    def spy(seed, *key):
        keys.append((seed, key))
        return campaign_rng(seed, *key)

    monkeypatch.setattr(campaigns, "campaign_rng", spy)
    count = len(enumerate_subgroups(Z2))
    norm_inequality_sweep(2, 5, 3, gabor_orders=(2,))
    want = [("instance", 0), ("trials", 0), ("instance", 1), ("trials", 1)]
    want += [("gabor", 2, li) for li in range(count)]
    assert keys == [(3, key) for key in want]
    keys.clear()
    cross_oracle_sweep(3, max_order=2)
    assert keys == [(3, ("cross", i)) for i in range(10)]


def counted_algebras(monkeypatch) -> list:
    """The lattices whose twisted group algebra is built from now on: each
    build reads the lattice's shift stack once."""
    built, stack = [], shift_stack

    def counted(lat):
        built.append(lat)
        return stack(lat)

    monkeypatch.setattr(algebra, "shift_stack", counted)
    return built


def counted_splits(monkeypatch) -> list:
    """The bases of the algebras split into blocks from now on."""
    split, eigenbasis = [], algebra._generic_eigenbasis

    def counted(basis, rng):
        split.append(basis)
        return eigenbasis(basis, rng)

    monkeypatch.setattr(algebra, "_generic_eigenbasis", counted)
    return split


def test_each_a9_render_builds_its_own_bimodules(monkeypatch):
    # warm the caches first: A9 must still build both renders from scratch,
    # building and splitting the algebra of each of Z4's 15 lattices once per
    # render, and enumerating Z4 once per render
    assert duality_report((4,), trials=1).all_passed
    built, split = counted_algebras(monkeypatch), counted_splits(monkeypatch)
    enumerated, enumerate_z4 = [], enumerate_subgroups

    def counted_enumeration(group):
        enumerated.append(enumerate_z4(group))
        return enumerated[-1]

    monkeypatch.setattr(campaigns, "enumerate_subgroups", counted_enumeration)
    assert all(c.passed for c in determinism_probe(7, 4))
    assert len(built) == len(split) == 2 * 15
    assert len(enumerated) == 2 and enumerated[0] is not enumerated[1]


def test_shared_builds_are_read_only():
    lat = lat_square()
    for shared in (
        gabor_bimodule(lat).left.algebra.basis,
        *gabor_bimodule(lat).left.algebra.blocks,
        block_matrix_algebra([2, 1]).basis,
        *block_matrix_algebra([2, 1]).blocks,
        shift_stack(lat),
    ):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0


def test_equal_inputs_share_one_build():
    lats = enumerate_subgroups(Z4)
    assert enumerate_subgroups(Z4) is lats
    for lat in lats:
        again = Lattice(Z4, lat.rows)
        assert again == lat and again is not lat
        assert gabor_bimodule(lat) is gabor_bimodule(again)
        assert twisted_group_algebra(lat) is twisted_group_algebra(again)
        # the enumerated adjoint is equal to the computed one, so the adjoint's
        # bimodule acts on the left by the algebra whose transpose acts here
        assert lat.adjoint in lats
        right = gabor_bimodule(lat).right.algebra
        assert right._transpose_of is gabor_bimodule(lat.adjoint).left.algebra
    assert block_matrix_algebra([2, 1]) is block_matrix_algebra((2, 1))


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: bounded_vector_sweep((2, 4), 100, 3),
        lambda: norm_inequality_sweep(5, 100, 3),
        lambda: cross_oracle_sweep(3),
    ],
    ids=["a4", "a5", "a8"],
)
def test_a_warm_sweep_repeats_every_number_of_a_cold_one(sweep):
    def numbers():
        return [(c.name, c.passed, c.lhs, c.rhs, c.deviation) for c in sweep()]

    cold = numbers()  # the fixture emptied the caches
    assert numbers() == cold


def test_vector_sweep_builds_one_algebra_per_distinct_lattice(monkeypatch):
    built = counted_algebras(monkeypatch)
    bounded_vector_sweep((2, 4, 6), 100, 3)
    norm_inequality_sweep(50, 100, 3)
    cross_oracle_sweep(3, max_order=4)
    # A4 visits Z2, Z4 and Z6, A5 and A8 visit Z2, Z3 and Z4; each group's
    # lattices are closed under the adjoint, so every algebra serves two sides
    distinct = {lat for n in (2, 3, 4, 6) for lat in enumerate_subgroups(FiniteAbelianGroup((n,)))}
    assert len(built) == len(set(built)) == len(distinct) == 56
