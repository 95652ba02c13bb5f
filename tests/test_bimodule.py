import zlib

import numpy as np
import pytest

import gaborlab.bimodule
import gaborlab.vnmod
from gaborlab.algebra import (
    StarAlgebra,
    TraceFunctional,
    block_matrix_algebra,
    center,
    commutant,
    full_matrix_algebra,
    gns,
    span_equal,
)
from gaborlab.bimodule import (
    Bimodule,
    HypothesisError,
    check_alignment,
    gaussian_vector,
    left_bounded_operator,
    operator_norm,
    random_instance,
    right_bounded_operator,
    verify_hypotheses,
    verify_left_right_bounded,
)
from gaborlab.duality import gabor_bimodule
from gaborlab.gabor import Window, bessel_bound_opt, frame_operator
from gaborlab.groups import FiniteAbelianGroup, covolume, lattice_from_generators
from gaborlab.reporting import campaign_rng
from gaborlab.vnmod import (
    LeftModule,
    RightModule,
    blockwise_deviation,
    bounded_operator,
    cdim,
    induced_trace,
)
from reference import bounded_operator_loop, operator_norm_loop, point

Z4 = FiniteAbelianGroup((4,))


def halfline_lattice():
    # {0,2} x Z_4 over Z_4: index 2 in time, full in frequency
    gens = [point(Z4, (2,), (0,)), point(Z4, (0,), (1,))]
    return lattice_from_generators(Z4, gens)


def delta_window(group):
    vals = np.zeros(group.size, dtype=complex)
    vals[0] = 1.0
    return Window(group, vals)


def regular_right_module(alg, kappa):
    sp = gns(alg, kappa)
    images = np.stack([sp.right(b) for b in alg.basis])
    return RightModule(alg, kappa, images)


# ----------------------------------------------------------- operator basics


def test_zero_vector_gives_zero_operators():
    bm = gabor_bimodule(halfline_lattice())
    zero = np.zeros((1, bm.space_dim), dtype=complex)
    assert operator_norm(left_bounded_operator(zero, bm)) == [0.0]
    assert operator_norm(right_bounded_operator(zero, bm)) == [0.0]


def test_bounded_operator_norm_on_regular_module():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    rng = np.random.default_rng(31)
    for _ in range(10):
        co = rng.normal(size=4) + 1j * rng.normal(size=4)
        n = alg.reconstruct(co)
        f = mod.space.hat(n)
        got = operator_norm(bounded_operator([f], mod))[0]
        want = np.linalg.norm(n, ord=2)
        assert got == pytest.approx(want, abs=1e-10)


def test_gabor_worked_instance_norms():
    lat = halfline_lattice()
    bm = gabor_bimodule(lat)
    g = delta_window(Z4)
    # frame operator diag(4,0,4,0), so the optimal Bessel bound is 4
    s = frame_operator([g.values], lat)[0]
    assert np.allclose(s, np.diag([4.0, 0, 4.0, 0]), atol=1e-12)
    rn = operator_norm(right_bounded_operator([g.values], bm))[0]
    assert rn**2 == pytest.approx(4.0, abs=1e-9)
    # left norm squared: adjoint-side Bessel bound divided by the covolume
    b_adj = bessel_bound_opt([g.values], lat.adjoint)[0]
    assert b_adj == pytest.approx(2.0, abs=1e-12)
    assert float(covolume(lat)) == 0.5
    ln = operator_norm(left_bounded_operator([g.values], bm))[0]
    assert ln**2 == pytest.approx(b_adj / float(covolume(lat)), abs=1e-9)
    assert ln == pytest.approx(rn, abs=1e-9)


def test_stacked_bounded_operator_and_norm_equal_a_per_vector_loop():
    rng = np.random.default_rng(33)
    instances = (
        random_instance(3, blocks=[(2, 4, 2)]),
        random_instance(5),
        gabor_bimodule(halfline_lattice()),
    )
    for bm in instances:
        fs = np.array([gaussian_vector(rng, bm.space_dim) for _ in range(20)])
        for mod in (bm.left, bm.right):
            stacked = bounded_operator(fs, mod)
            loop = bounded_operator_loop(fs, mod)
            # one GEMM sums in another order than the per-vector einsum
            err = np.linalg.norm(stacked - loop, axis=(1, 2))
            assert np.all(err <= 1e-13 * np.linalg.norm(loop, axis=(1, 2)))
            assert np.array_equal(operator_norm(stacked), operator_norm_loop(stacked))
    # an empty stack gives no operators, no norms and no reports
    assert operator_norm(bounded_operator(fs[:0], bm.left)).shape == (0,)
    assert verify_left_right_bounded(bm, trials=0) == []


def test_left_operator_module_identity():
    # L_{f n} = L_f composed with left multiplication on the GNS side
    bm = random_instance(11, blocks=[(2, 2, 2)])
    rng = np.random.default_rng(32)
    sp = bm.right.space
    for _ in range(10):
        f = gaussian_vector(rng, bm.space_dim)
        co = rng.normal(size=bm.right.algebra.dimension)
        n = bm.right.algebra.reconstruct(co)
        lhs = left_bounded_operator([bm.right.act(n) @ f], bm)[0]
        rhs = left_bounded_operator([f], bm)[0] @ sp.left(n)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


# -------------------------------------------------------------- alignment


def test_gabor_module_is_aligned():
    assert check_alignment(gabor_bimodule(halfline_lattice())) <= 1e-9


def test_scaled_trace_breaks_alignment():
    bm = gabor_bimodule(halfline_lattice())
    doubled = RightModule(bm.right.algebra, bm.right.trace.scaled(2.0), bm.right.images)
    skew = Bimodule(bm.left, doubled)
    assert check_alignment(skew) > 1e-3


def test_induced_trace_instance_is_aligned():
    bm = random_instance(5, blocks=[(2, 2, 2), (1, 2, 2)])
    assert check_alignment(bm) <= 1e-9


# ------------------------------------------------------------- hypotheses


def test_mismatched_centers_detected():
    diag = block_matrix_algebra([1, 1])
    kappa = TraceFunctional.from_matrix_trace(diag)
    right = RightModule(diag, kappa, np.stack([b.T for b in diag.basis]))
    scalars = StarAlgebra(np.eye(2)[None, :, :].astype(complex) / np.sqrt(2))
    tau = TraceFunctional(scalars, np.array([m[0, 0] for m in scalars.basis]))
    left = LeftModule(scalars, tau, scalars.basis)
    bm = Bimodule(left, right)
    with pytest.raises(HypothesisError) as err:
        verify_hypotheses(bm)
    assert err.value.hypothesis == "matching centers"
    assert err.value.deviation > 0


def test_unfaithful_side_fails_its_hypothesis():
    # the scalar left module of test_mismatched_centers_detected and the
    # unfaithful right module of test_cdim_requires_faithful_action
    scalars = StarAlgebra(np.eye(2)[None, :, :].astype(complex) / np.sqrt(2))
    tau = TraceFunctional(scalars, np.array([m[0, 0] for m in scalars.basis]))
    left = LeftModule(scalars, tau, scalars.basis)
    alg = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    right = RightModule(alg, kappa, np.stack([b[:2, :2].T for b in alg.basis]))
    assert left.faithful and not right.faithful
    bm = Bimodule(left, right)
    assert bm.right is right
    with pytest.raises(HypothesisError) as err:
        verify_hypotheses(bm)
    assert err.value.hypothesis == "right action faithful"


def test_each_module_derives_generators_and_synthesis_once(monkeypatch):
    seen = {"spanning_generators": [], "_synthesis": []}
    for name, calls in seen.items():
        original = getattr(gaborlab.vnmod, name)

        def counted(module, *args, _original=original, _calls=calls):
            _calls.append(module)
            return _original(module, *args)

        for mod in (gaborlab.vnmod, gaborlab.bimodule):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    bm = random_instance(3, blocks=[(2, 4, 2)])
    verify_left_right_bounded(bm, trials=5)
    for name, calls in seen.items():
        assert len(calls) == 2, name
        assert {id(m) for m in calls} == {id(bm.left), id(bm.right)}, name


def test_hypotheses_pass_on_seeded_instance():
    bm = random_instance(7, blocks=[(2, 4, 2)])
    verify_hypotheses(bm)
    assert check_alignment(bm) <= 1e-9
    _, center_defect = span_equal(center(bm.left.image_algebra), center(bm.right.image_algebra))
    assert center_defect <= 1e-8


# -------------------------------------------------------- norm inequality


def test_norm_equality_on_gabor_module():
    reports = verify_left_right_bounded(gabor_bimodule(halfline_lattice()), trials=25, seed=1)
    assert all(r.passed for r in reports)
    assert all(r.equality_deviation is not None for r in reports)
    assert max(r.slack for r in reports) <= 1e-9


def test_norm_inequality_on_multiplicity_instance():
    bm = random_instance(3, blocks=[(2, 4, 2)])
    assert bm.cdim_product().sup_norm() == pytest.approx(4.0, abs=1e-9)
    reports = verify_left_right_bounded(bm, trials=50, seed=2)
    assert all(r.passed for r in reports)
    # brute-force check on a few vectors
    for t in (0, 7, 23):
        f = gaussian_vector(campaign_rng(2, t), bm.space_dim)
        ln = operator_norm(left_bounded_operator([f], bm))[0]
        rn = operator_norm(right_bounded_operator([f], bm))[0]
        assert rn <= 4.0 * ln + 1e-9
        assert ln <= 4.0 * rn + 1e-9


def test_trivial_scalar_instance():
    bm = random_instance(9, blocks=[(1, 1, 1)])
    assert bm.space_dim == 1
    reports = verify_left_right_bounded(bm, trials=5, seed=0)
    assert all(r.passed for r in reports)


def test_random_instance_determinism_and_caps():
    a = random_instance(42)
    b = random_instance(42)
    assert np.array_equal(a.left.images, b.left.images)
    assert np.array_equal(a.right.images, b.right.images)
    with pytest.raises(ValueError):
        random_instance(0, space_cap=1000)
    with pytest.raises(ValueError):
        random_instance(0, blocks=[(2, 3, 2)])


# --------------------------------------------------- product identity


def cdim_product_identity_deviation(bm):
    """Deviation in: cdim(left) * cdim(right) = cdim of the left module on
    the GNS space of the right action's commutant."""
    product = bm.cdim_product()
    big = commutant(bm.right.image_algebra)
    big_trace = induced_trace(bm.right, big)
    sp = gns(big, big_trace)
    images = np.stack([sp.left(bm.left.act(b)) for b in bm.left.algebra.basis])
    moved = LeftModule(bm.left.algebra, bm.left.trace, images, check=False)
    return blockwise_deviation(product, cdim(moved))


def test_cdim_product_identity():
    for seed in (1, 2, 3):
        bm = random_instance(seed)
        assert cdim_product_identity_deviation(bm) <= 1e-9
    assert cdim_product_identity_deviation(gabor_bimodule(halfline_lattice())) <= 1e-9


def test_campaign_rng_reproducible():
    a = gaussian_vector(campaign_rng(5, 3), 8)
    b = gaussian_vector(campaign_rng(5, 3), 8)
    c = gaussian_vector(campaign_rng(5, 4), 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # oracle: the splits written out by hand (bimodule's former per-trial and
    # per-instance seeds, and the str-keyed campaign split) give the same streams
    def spawned(seed, *key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    for seed in (0, 5, 2**40 + 3):
        for t in (0, 3, 99):
            want = gaussian_vector(spawned(seed, t), 8)
            assert np.array_equal(gaussian_vector(campaign_rng(seed, t), 8), want)
        want = spawned(seed, 0xB10C).uniform(size=8)
        assert np.array_equal(campaign_rng(seed, 0xB10C).uniform(size=8), want)
        want = spawned(seed, zlib.crc32(b"bessel"), 4, 2).uniform(size=8)
        assert np.array_equal(campaign_rng(seed, "bessel", 4, 2).uniform(size=8), want)
