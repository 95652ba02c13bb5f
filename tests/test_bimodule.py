import math
import zlib

import numpy as np
import pytest

import gaborlab.bimodule
import gaborlab.vnmod
from gaborlab.algebra import (
    SpanError,
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
    bounded_norms,
    check_alignment,
    gaussian_vector,
    operator_norm,
    random_instance,
    verify_hypotheses,
    verify_left_right_bounded,
)
from gaborlab.campaigns import _construction_instances
from gaborlab.duality import gabor_bimodule
from gaborlab.gabor import Window, bessel_bound_opt, frame_operator
from gaborlab.groups import (
    FiniteAbelianGroup,
    covolume,
    enumerate_subgroups,
    lattice_from_generators,
)
from gaborlab.reporting import campaign_rng
from gaborlab.vnmod import (
    LeftModule,
    RightModule,
    blockwise_deviation,
    bounded_operator,
    cdim,
    gns_right_module,
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
    for mod in (bm.left, bm.right):
        assert operator_norm(bounded_operator(zero, mod)) == [0.0]
        assert bounded_norms(zero, mod) == [0.0]


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
    rn = operator_norm(bounded_operator([g.values], bm.left))[0]
    assert rn**2 == pytest.approx(4.0, abs=1e-9)
    # left norm squared: adjoint-side Bessel bound divided by the covolume
    b_adj = bessel_bound_opt([g.values], lat.adjoint)[0]
    assert b_adj == pytest.approx(2.0, abs=1e-12)
    assert float(covolume(lat)) == 0.5
    ln = operator_norm(bounded_operator([g.values], bm.right))[0]
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
            # the Gram's eigvalsh rounds otherwise than the oracle's SVD
            want = operator_norm_loop(stacked)
            assert np.all(np.abs(operator_norm(stacked) - want) <= 1e-14 * want)
    # an empty stack gives no operators, no norms and no reports
    assert operator_norm(bounded_operator(fs[:0], bm.left)).shape == (0,)
    assert verify_left_right_bounded(bm, trials=0) == []


def test_operator_norm_is_the_largest_singular_value():
    rng = np.random.default_rng(41)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    stacks = {
        "square": gaussian(20, 6, 6),
        "tall": gaussian(20, 9, 4),
        "wide": gaussian(20, 4, 9),
        "rank-deficient": gaussian(20, 8, 2) @ gaussian(20, 2, 7),
        "zero": np.zeros((3, 5, 4), dtype=complex),
        "mixed-scales": gaussian(3, 5, 7) * np.array([1e-200, 1.0, 1e200])[:, None, None],
    }
    for name, mats in stacks.items():
        for scale in (1.0, 1e-200, 1e200):
            if name == "mixed-scales" and scale != 1.0:
                continue
            want = operator_norm_loop(mats * scale)
            got = operator_norm(mats * scale)
            assert np.all(np.abs(got - want) <= 1e-14 * want), (name, scale)
    # one 36-entry column near the largest float: its sums of squares must not overflow
    edge = np.zeros((1, 36, 4), dtype=complex)
    edge[0, :, 0] = 1e307
    assert operator_norm(edge)[0] == pytest.approx(6e307, rel=1e-14)
    assert operator_norm(np.zeros((0, 4, 5), dtype=complex)).shape == (0,)
    assert np.array_equal(operator_norm(np.zeros((3, 0, 5), dtype=complex)), np.zeros(3))


def norm_test_modules():
    """Every side of random_instance(0..9) and of every Z2-Z4 Gabor bimodule,
    and A7's six modules (the GNS space over the big and the sub algebra)."""
    mods = []
    for bm in [random_instance(seed) for seed in range(10)] + [
        gabor_bimodule(lat)
        for order in (2, 3, 4)
        for lat in enumerate_subgroups(FiniteAbelianGroup((order,)))
    ]:
        mods += [bm.left, bm.right]
    for _, big, sub in _construction_instances():
        sp = gns(big, TraceFunctional.from_matrix_trace(big))
        mods += [gns_right_module(sp, big), gns_right_module(sp, sub)]
    return mods


def test_bounded_norms_are_the_operator_norms_at_every_scale():
    rng = np.random.default_rng(43)
    for mod in norm_test_modules():
        fs = gaussian_vector(rng, 8, mod.space_dim)
        for scale in (1.0, 1e-150, 1e150):
            want = operator_norm_loop(bounded_operator_loop(fs * scale, mod))
            got = bounded_norms(fs * scale, mod)
            assert np.all(np.abs(got - want) <= 1e-14 * want), (mod.space_dim, scale)
        assert np.array_equal(bounded_norms(np.zeros((2, mod.space_dim)), mod), [0.0, 0.0])
        assert bounded_norms(fs[:0], mod).shape == (0,)


def test_bounded_operator_gram_is_multiplication_by_the_inner_product():
    # L_f^* L_f commutes with the regular action on the other side, so it
    # multiplies by x = <f, f>, whose class is L_f^* f; and x is positive
    rng = np.random.default_rng(44)
    for mod in norm_test_modules():
        sp = mod.space
        fs = gaussian_vector(rng, 4, mod.space_dim)
        ops = bounded_operator(fs, mod)
        xs = sp.unhat(np.einsum("tad,ta->td", ops.conj(), fs))
        multiply = sp.right if isinstance(mod, LeftModule) else sp.left
        grams = ops.conj().transpose(0, 2, 1) @ ops
        scale = np.linalg.norm(grams, axis=(1, 2))
        assert np.all(np.linalg.norm(grams - multiply(xs), axis=(1, 2)) <= 1e-12 * scale)
        assert np.all(np.linalg.norm(xs - xs.conj().transpose(0, 2, 1), axis=(1, 2)) <= 1e-12 * scale)
        assert np.all(np.linalg.eigvalsh(xs)[:, 0] >= -1e-12 * scale)


def test_left_operator_module_identity():
    # L_{f n} = L_f composed with left multiplication on the GNS side
    bm = random_instance(11, blocks=[(2, 2, 2)])
    rng = np.random.default_rng(32)
    sp = bm.right.space
    for _ in range(10):
        f = gaussian_vector(rng, bm.space_dim)
        co = rng.normal(size=bm.right.algebra.dimension)
        n = bm.right.algebra.reconstruct(co)
        lhs = bounded_operator([bm.right.act(n) @ f], bm.right)[0]
        rhs = bounded_operator([f], bm.right)[0] @ sp.left(n)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


# -------------------------------------------------------------- alignment


def test_gabor_module_is_aligned():
    assert check_alignment(gabor_bimodule(halfline_lattice())) <= 1e-9


def test_scaled_trace_breaks_alignment():
    bm = gabor_bimodule(halfline_lattice())
    trace = TraceFunctional(bm.right.algebra, bm.right.trace.values * 2.0, check=False)
    doubled = RightModule(bm.right.algebra, trace, bm.right.images)
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
    # the matcher's distance: |I - diag(1, 0)|_HS / |I|_HS from the scalar
    # block to its nearest diagonal one
    assert math.isfinite(err.value.deviation)
    assert err.value.deviation == pytest.approx(1 / math.sqrt(2), rel=1e-12)


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


def test_the_trace_alignment_hypothesis_takes_the_tolerance():
    bm = random_instance(7, blocks=[(2, 4, 2)])
    tau = bm.left.trace
    tilted = TraceFunctional(tau.algebra, tau.values * (1 + 1e-6))
    off = Bimodule(LeftModule(tau.algebra, tilted, bm.left.images), bm.right)
    assert 1e-9 < check_alignment(off) < 1e-3
    with pytest.raises(HypothesisError) as err:
        verify_left_right_bounded(off, trials=5)
    assert err.value.hypothesis == "trace alignment"
    assert len(verify_left_right_bounded(off, trials=5, tol=1e-3)) == 5


def test_the_hypotheses_build_no_image_algebra():
    # faithfulness, commutation and matching centers are read off each
    # algebra's blocks and the actions of its generators
    bimodules = [gabor_bimodule(lat) for lat in enumerate_subgroups(Z4)]
    bimodules += [random_instance(seed) for seed in range(5)]
    for bm in bimodules:
        assert "image_algebra" not in vars(bm.left) and "image_algebra" not in vars(bm.right)
        verify_hypotheses(bm)
        bm.cdim_product()
        assert "image_algebra" not in vars(bm.left) and "image_algebra" not in vars(bm.right)


def test_actions_that_do_not_commute_are_rejected():
    # M2 acting on C^2 on both sides: the two actions are all of B(C^2)
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    left = LeftModule(alg, kappa, alg.basis)
    right = RightModule(alg, kappa, alg.basis.transpose(0, 2, 1))
    with pytest.raises(SpanError, match="do not commute"):
        Bimodule(left, right)


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
    # brute-force check on a few of the vectors drawn
    fs = gaussian_vector(campaign_rng(2, "vectors"), 50, bm.space_dim)
    for t in (0, 7, 23):
        f = fs[t]
        ln = operator_norm(bounded_operator([f], bm.right))[0]
        rn = operator_norm(bounded_operator([f], bm.left))[0]
        assert rn <= 4.0 * ln + 1e-9
        assert ln <= 4.0 * rn + 1e-9


def test_vector_t_of_a_draw_does_not_depend_on_the_trial_count(monkeypatch):
    drawn = []

    def spy(fs, module):
        drawn.append(fs)
        return bounded_norms(fs, module)

    monkeypatch.setattr(gaborlab.bimodule, "bounded_norms", spy)
    bm = random_instance(3, blocks=[(2, 4, 2)])
    for trials in (40, 1, 9, 39):
        verify_left_right_bounded(bm, trials=trials, seed=6)
    longest = drawn[0]
    for fs in drawn[1:]:
        assert np.array_equal(fs, longest[: len(fs)])


def test_one_generator_per_call_apart_from_the_instance(monkeypatch):
    keys = []

    def spy(seed, *key):
        keys.append((seed, key))
        return campaign_rng(seed, *key)

    monkeypatch.setattr(gaborlab.bimodule, "campaign_rng", spy)
    # the bimodule command passes one seed to both
    bm = random_instance(8)
    assert keys == [(8, (0xB10C,))]
    verify_left_right_bounded(bm, trials=50, seed=8)
    assert len(keys) == 2
    streams = [campaign_rng(seed, *key).standard_normal(16) for seed, key in keys]
    assert not np.array_equal(*streams)


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
        random_instance(0, blocks=[(2, 3, 2)])
    with pytest.raises(ValueError, match="exceed the space cap"):
        random_instance(0, blocks=[(3, 11, 1)])


@pytest.mark.parametrize("seed", range(4))
def test_random_instance_lays_out_each_block(seed):
    # per block (n, m, d): the right images are I_m (x) E_ab^T, written out
    # here, and the left images are d x d matrix units commuting with them
    # whose diagonal sums to the block's projection
    blocks = [(2, 4, 2), (1, 2, 1), (3, 2, 2), (1, 1, 1)]
    bm = random_instance(seed, blocks=blocks)
    h = bm.space_dim
    right, projs, labels, offset = [], [], [], 0
    for i, (n, m, d) in enumerate(blocks):
        inside = slice(offset, offset + m * n)
        for unit in np.eye(n * n).reshape(n * n, n, n):
            image = np.zeros((h, h), dtype=complex)
            image[inside, inside] = np.kron(np.eye(m), unit.T)
            right.append(image)
        proj = np.zeros((h, h))
        proj[inside, inside] = np.eye(m * n)
        projs.append(proj)
        labels += [(i, a, b) for a in range(d) for b in range(d)]
        offset += m * n
    assert np.array_equal(bm.right.images, np.array(right))
    units = dict(zip(labels, bm.left.images))
    for (i, a, b), x in units.items():
        assert np.max(np.abs(x.conj().T - units[i, b, a])) <= 1e-13
        for (j, c, e), y in units.items():
            want = units[i, a, e] if (i, b) == (j, c) else 0.0
            assert np.max(np.abs(x @ y - want)) <= 1e-13
        assert np.max(np.abs(x @ bm.right.images - bm.right.images @ x)) <= 1e-13
    for i, (_, _, d) in enumerate(blocks):
        assert np.max(np.abs(sum(units[i, a, a] for a in range(d)) - projs[i])) <= 1e-13


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
