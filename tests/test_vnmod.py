import math
import tracemalloc

import numpy as np
import pytest

from gaborlab import algebra, bimodule, vnmod
from gaborlab.algebra import (
    InclusionError,
    StarAlgebra,
    TraceFunctional,
    ampliated_matrix_algebra,
    block_matrix_algebra,
    center,
    center_valued_trace,
    commutant,
    full_matrix_algebra,
    generate_algebra,
    gns,
    minimal_central_projections,
    span_equal,
    twisted_group_algebra,
    _vec,
)
from gaborlab.bimodule import bounded_norms, gaussian_vector
from gaborlab.campaigns import _construction_instances, _cyclic_sweep
from gaborlab.duality import gabor_bimodule
from gaborlab.groups import FiniteAbelianGroup, enumerate_subgroups, lattice_from_generators
from gaborlab.reporting import campaign_rng
from gaborlab.vnmod import (
    FaithfulnessError,
    LeftModule,
    PreconditionError,
    RightModule,
    SpanError,
    basic_construction,
    bounded_operator,
    cdim,
    cdim_blockwise,
    direct_sum,
    gns_right_module,
    induced_trace,
    induced_trace_evaluator,
    jones_projection,
    jones_sandwich_span,
    pair_blocks,
    push_down,
    spanning_generators,
    _synthesis,
)
from reference import block_ranks_loop, pair_blocks_loop
from seeded import seeded_instance, seeded_vectors


def row_module(alg, kappa):
    """The algebra's column space as a right module under row-vector action."""
    images = np.stack([b.T for b in alg.basis])
    return RightModule(alg, kappa, images)


def regular_right_module(alg, kappa):
    sp = gns(alg, kappa)
    images = np.stack([sp.right(b) for b in alg.basis])
    return RightModule(alg, kappa, images)


def regular_over_sub(big, sub, kappa_big):
    """GNS space of the big algebra as a right module over a subalgebra."""
    return gns_right_module(gns(big, kappa_big), sub)


def random_element(alg, rng):
    co = rng.normal(size=alg.dimension) + 1j * rng.normal(size=alg.dimension)
    return alg.reconstruct(co)


# ----------------------------------------------------------- module plumbing


def test_module_rejects_wrong_multiplicativity():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    with pytest.raises(SpanError):
        # plain (non-transposed) action is left-multiplicative, not right
        RightModule(alg, kappa, alg.basis)


def test_module_projection_on_regular_module():
    alg = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    _, p = _synthesis(mod, [mod.space.hat_identity()])
    assert np.allclose(p, np.eye(alg.dimension), atol=1e-10)


def test_module_projection_row_module_single_generator():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = row_module(alg, kappa)
    mod.generators = [np.array([1.0, 0.0])]
    value = cdim(mod)
    assert value == pytest.approx([0.5], abs=1e-9)


def test_module_projection_redundant_generators():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    e1 = np.array([1.0, 0.0])
    lean_mod, padded_mod = row_module(alg, kappa), row_module(alg, kappa)
    lean_mod.generators = [e1]
    padded_mod.generators = [e1, e1, np.zeros(2)]
    lean = cdim(lean_mod)
    padded = cdim(padded_mod)
    assert np.max(np.abs(lean - padded)) <= 1e-9


def test_module_projection_needs_spanning_generators():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    short = mod.space.hat(np.diag([1.0, 0.0])) * 0.0
    with pytest.raises(SpanError):
        _synthesis(mod, [short])


def test_spanning_generators_do_span():
    alg = block_matrix_algebra([2, 2])
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    gens = spanning_generators(mod)
    _, p = _synthesis(mod, gens)
    # projection of full rank equal to the space dimension
    assert int(round(np.trace(p).real)) == mod.space_dim


def test_spanning_generators_raise_when_no_orbit_adds_a_direction():
    alg = block_matrix_algebra([2])
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = RightModule(alg, kappa, np.zeros((alg.dimension, 3, 3)), check=False)
    with pytest.raises(SpanError, match="no new directions"):
        spanning_generators(mod)


def generic_span_modules():
    """Both sides of seeded_instance(0..9) and of every Z2-Z8 Gabor bimodule,
    and A7's six GNS modules: 248 modules."""
    mods = []
    for seed in range(10):
        bm = seeded_instance(seed)
        mods += [bm.left, bm.right]
    for _, _, lat in _cyclic_sweep(range(2, 9)):
        bm = gabor_bimodule(lat)
        mods += [bm.left, bm.right]
    for _, big, sub in _construction_instances():
        sp = gns(big, TraceFunctional.from_matrix_trace(big))
        mods += [gns_right_module(sp, big), gns_right_module(sp, sub)]
    return mods


def test_generic_generators_are_the_fewest_and_keep_the_synthesis_conditioned():
    # a module spanned by k vectors is a quotient of A^k, so no spanning set
    # has fewer than ceil(max cdim) vectors; the synthesis map's smallest
    # nonzero singular value stays at least 1e-3 of its largest
    mods = generic_span_modules()
    assert len(mods) == 248
    for mod in mods:
        fewest = math.ceil(max(cdim_blockwise(mod)) - 1e-9)
        assert len(mod.generators) == fewest
        synth = np.hstack(bounded_operator(np.array(mod.generators), mod))
        svals = np.linalg.svd(synth, compute_uv=False)
        assert svals[mod.space_dim - 1] >= 1e-3 * svals[0]


# ------------------------------------------- faithfulness from the blocks


def partial_module(alg, kappa, coords):
    """The algebra compressed to some coordinates, as a left module: it acts
    through the central blocks that the coordinates cover, and kills the rest."""
    return LeftModule(alg, kappa, alg.basis[:, coords][:, :, coords])


def faithfulness_cases():
    """Named modules, faithful and not, over the algebras gaborlab builds."""
    cases = []
    for seed in range(10):
        bm = seeded_instance(seed)
        cases += [(f"random{seed}/left", bm.left), (f"random{seed}/right", bm.right)]
    for n in (2, 3, 4):
        for li, lat in enumerate(enumerate_subgroups(FiniteAbelianGroup((n,)))):
            bm = gabor_bimodule(lat)
            cases += [(f"gabor-n{n}/lat{li}/left", bm.left), (f"gabor-n{n}/lat{li}/right", bm.right)]
    # the unfaithful module of test_cdim_requires_faithful_action
    alg = block_matrix_algebra([2, 1])
    images = np.stack([b[:2, :2].T for b in alg.basis])
    cases.append(("m2m1-through-m2", RightModule(alg, TraceFunctional.from_matrix_trace(alg), images)))
    # M1 + M2 + M1 on C^4: through the two M1 blocks, through the M1 + M2 blocks
    # (each killing a third block), and their direct sum, which kills none
    alg = block_matrix_algebra([1, 2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    ends, head = partial_module(alg, kappa, [0, 3]), partial_module(alg, kappa, [0, 1, 2])
    cases += [
        ("m1m2m1-through-ends", ends),
        ("m1m2m1-through-head", head),
        ("m1m2m1-sum", direct_sum(ends, head)),
        ("m1m2m1-doubled-ends", direct_sum(ends, ends)),
    ]
    return cases


def test_faithful_agrees_with_the_rank_of_the_images():
    seen = {True: 0, False: 0}
    lattice_count = sum(len(enumerate_subgroups(FiniteAbelianGroup((n,)))) for n in (2, 3, 4))
    for label, mod in faithfulness_cases():
        svals = np.linalg.svd(mod.images_flat, compute_uv=False)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        assert mod.faithful == (rank == mod.algebra.dimension), label
        seen[mod.faithful] += 1
    # every random and Gabor side is faithful; four of the block modules are not
    assert seen == {True: 20 + 2 * lattice_count + 1, False: 4}


def test_image_centers_equal_the_centers_of_the_image_algebras():
    # the images of the central projections, which the hypotheses pair, span
    # the center of the image algebra
    for label, mod in faithfulness_cases():
        if mod.faithful:
            images = mod.act(mod.algebra.central_projections)
            units = StarAlgebra(images / np.linalg.norm(images, axis=(1, 2))[:, None, None])
            ok, dev = span_equal(units, center(mod.image_algebra), 1e-10)
            assert ok, (label, dev)


def test_each_algebra_is_split_once(monkeypatch):
    calls = []
    split = algebra._generic_eigenbasis

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(algebra, "_generic_eigenbasis", counted)
    alg = block_matrix_algebra([2, 1])
    mod = row_module(alg, TraceFunctional.from_matrix_trace(alg))
    commutant(alg)
    center(alg)
    minimal_central_projections(alg)
    assert mod.faithful
    cdim(mod)
    cdim_blockwise(mod)
    assert len(calls) == 1


def test_a_stacked_action_is_the_action_of_each_matrix():
    rng = np.random.default_rng(18)
    bm = seeded_instance(4)
    for mod in (bm.left, bm.right):
        mats = np.stack([random_element(mod.algebra, rng) for _ in range(5)])
        stacked = mod.act(mats)
        assert stacked.shape == (5, mod.space_dim, mod.space_dim)
        for got, mat in zip(stacked, mats):
            assert np.array_equal(got, mod.act(mat))
        # a (2, 5) stack of stacks acts row for row too
        assert np.array_equal(mod.act(np.stack([mats, mats[::-1]]))[1], stacked[::-1])


# -------------------------------------------------------------------- cdim


def test_cdim_regular_module_is_one():
    alg = block_matrix_algebra([2, 3])
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    value = cdim(mod)
    assert np.max(np.abs(value - 1.0)) <= 1e-9


def test_cdim_rows_over_full_algebra():
    for n in (2, 3):
        alg = full_matrix_algebra(n)
        kappa = TraceFunctional.from_matrix_trace(alg)
        mod = row_module(alg, kappa)
        value = cdim(mod)
        assert value == pytest.approx([1.0 / n], abs=1e-9)
        oracle = cdim_blockwise(mod)
        assert np.max(np.abs(value - oracle)) <= 1e-9


def test_cdim_regular_m4_over_ampliated_m2():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    mod = regular_over_sub(big, sub, kappa)
    value = cdim(mod)
    assert value == pytest.approx([4.0], abs=1e-9)
    # block formula oracle: 16-dimensional space over a 4-dimensional factor
    oracle = cdim_blockwise(mod)
    assert oracle == pytest.approx([4.0])


def test_cdim_requires_faithful_action():
    alg = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    images = np.stack([b[:2, :2].T for b in alg.basis])
    mod = RightModule(alg, kappa, images)
    assert not mod.faithful
    with pytest.raises(FaithfulnessError):
        cdim(mod)


def test_cdim_additive_on_direct_sums():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    rows = row_module(alg, kappa)
    reg = regular_right_module(alg, kappa)
    both = direct_sum(rows, reg)
    got = cdim(both)
    # all three modules are over alg, so their arrays share its block order
    want = cdim(rows) + cdim(reg)
    assert np.max(np.abs(got - want)) <= 1e-9
    assert got == pytest.approx([1.5], abs=1e-9)


def test_direct_sum_needs_matching_algebra():
    a2 = full_matrix_algebra(2)
    a3 = full_matrix_algebra(3)
    k2 = TraceFunctional.from_matrix_trace(a2)
    k3 = TraceFunctional.from_matrix_trace(a3)
    with pytest.raises(PreconditionError):
        direct_sum(row_module(a2, k2), row_module(a3, k3))


def test_cdim_generator_independent():
    alg = block_matrix_algebra([2, 2])
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    gens = spanning_generators(mod)
    rng = np.random.default_rng(21)
    extra = rng.normal(size=mod.space_dim) + 1j * rng.normal(size=mod.space_dim)
    padded = regular_right_module(alg, kappa)
    padded.generators = list(gens) + [extra]
    a = cdim(mod)
    b = cdim(padded)
    assert np.max(np.abs(a - b)) <= 1e-9


def test_two_cdim_routes_agree_everywhere():
    m2 = full_matrix_algebra(2)
    k2 = TraceFunctional.from_matrix_trace(m2)
    sum22 = block_matrix_algebra([2, 2])
    ks = TraceFunctional.from_matrix_trace(sum22)
    big = full_matrix_algebra(4)
    kb = TraceFunctional.from_matrix_trace(big)
    mods = [
        row_module(m2, k2),
        regular_right_module(m2, k2),
        row_module(sum22, ks),
        regular_right_module(sum22, ks),
        regular_over_sub(big, ampliated_matrix_algebra(2, 2), kb),
    ]
    for mod in mods:
        assert np.max(np.abs(cdim(mod) - cdim_blockwise(mod))) <= 1e-9


def large_lattice_modules():
    """Lattice algebras on L2(G) for |G| = 16, past gabor_bimodule's group cap:
    three seeded lattices each of Z16, Z4 x Z4 and Z2 x Z8, each lattice
    generated by two random phase-space points, traced by Tr / |G|."""
    rng = np.random.default_rng(16)
    mods = []
    for orders in ((16,), (4, 4), (2, 8)):
        group = FiniteAbelianGroup(orders)
        for _ in range(3):
            gens = rng.integers(0, orders * 2, size=(2, 2 * len(orders))).tolist()
            alg = twisted_group_algebra(lattice_from_generators(group, gens))
            tau = TraceFunctional(alg, np.trace(alg.basis, axis1=1, axis2=2) / group.size)
            mods.append(LeftModule(alg, tau, alg.basis))
    return mods


def test_batched_block_ranks_and_matches_equal_the_per_block_loops(monkeypatch):
    bms = [seeded_instance(seed) for seed in range(10)] + [
        gabor_bimodule(lat)
        for order in (2, 3, 4, 6)
        for lat in enumerate_subgroups(FiniteAbelianGroup((order,)))
    ]
    a7_mods = []
    for _, big, sub in _construction_instances():
        sp = gns(big, TraceFunctional.from_matrix_trace(big))
        a7_mods += [gns_right_module(sp, big), gns_right_module(sp, sub)]
    mods = [mod for bm in bms for mod in (bm.left, bm.right)] + large_lattice_modules() + a7_mods
    assert max(mod.algebra.dimension for mod in mods) == 256

    def forbidden(*args, **kwargs):
        raise AssertionError("cdim_blockwise takes no SVD and no numerical rank")

    for mod in mods:
        projections = mod.algebra.central_projections
        space_ranks = np.rint(np.trace(mod.act(projections), axis1=1, axis2=2).real)
        want = space_ranks / block_ranks_loop(mod.algebra)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", forbidden)
            patch.setattr(vnmod, "numerical_rank", forbidden)
            got = cdim_blockwise(mod)
        assert np.array_equal(got, want)
    for bm in bms:
        a, b = (side.act(side.algebra.central_projections) for side in (bm.left, bm.right))
        partners, dist = pair_blocks(a, b)
        want_partners, want_dist = pair_blocks_loop(a, b)
        assert partners.tolist() == want_partners
        assert dist == pytest.approx(want_dist, rel=1e-12, abs=1e-15)


def test_the_one_block_gate_has_a_wide_margin():
    # pair_blocks' gate is SPAN_ATOL = 1e-10: every matched distance must sit
    # far below it and every other block far above it, on both sides' images
    # of the bimodules the campaigns build and on A7's sub/big pairs
    groups = [FiniteAbelianGroup((n,)) for n in range(2, 9)]
    groups += [FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((2, 3))]
    bms = [seeded_instance(seed) for seed in range(10)]
    bms += [gabor_bimodule(lat) for group in groups for lat in enumerate_subgroups(group)]
    stacks = [
        tuple(side.act(side.algebra.central_projections) for side in (bm.left, bm.right))
        for bm in bms
    ]
    stacks += [
        (sub.central_projections, big.central_projections)
        for _, big, sub in _construction_instances()
    ]
    assert 1e-13 < vnmod.SPAN_ATOL < 1.0
    for a, b in stacks:
        partners, worst = pair_blocks(a, b)
        dists = np.linalg.norm(_vec(a)[:, None] - _vec(b)[None], axis=-1)
        dists /= np.maximum(1.0, np.linalg.norm(_vec(a), axis=-1))[:, None]
        matched = np.zeros(dists.shape, dtype=bool)
        matched[np.arange(len(partners)), partners] = True
        assert np.max(dists[matched]) <= 1e-13
        assert np.min(dists[~matched], initial=np.inf) >= 1.0
        assert worst == np.max(dists[matched])


# --------------------------------------------------------- jones projection


def test_jones_projection_onto_self():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    e = jones_projection(gns(alg, kappa), alg)
    assert np.allclose(e, np.eye(4), atol=1e-10)


def test_jones_projection_onto_diagonal():
    alg = full_matrix_algebra(2)
    diag = StarAlgebra(np.array([np.diag([1.0, 0]), np.diag([0, 1.0])]).astype(complex))
    kappa = TraceFunctional.from_matrix_trace(alg)
    sp = gns(alg, kappa)
    e = jones_projection(sp, diag)
    assert int(round(np.trace(e).real)) == 2
    for d in diag.basis:
        hat = sp.hat(d)
        assert np.allclose(e @ hat, hat, atol=1e-10)
    off = np.zeros((2, 2), dtype=complex)
    off[0, 1] = 1.0
    assert np.linalg.norm(e @ sp.hat(off)) <= 1e-10


def test_jones_projection_requires_containment():
    big = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(big)
    with pytest.raises(InclusionError):
        jones_projection(gns(big, kappa), full_matrix_algebra(3))


def test_jones_projection_fixes_identity():
    alg = full_matrix_algebra(2)
    diag = StarAlgebra(np.array([np.diag([1.0, 0]), np.diag([0, 1.0])]).astype(complex))
    kappa = TraceFunctional.from_matrix_trace(alg)
    sp = gns(alg, kappa)
    e = jones_projection(sp, diag)
    hat1 = sp.hat_identity()
    assert np.allclose(e @ hat1, hat1, atol=1e-10)


def test_jones_compression_relation():
    big = full_matrix_algebra(3)
    sub = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = random_element(big, rng)
        lhs = ctx.jones @ ctx.encode_left(n) @ ctx.jones
        rhs = ctx.encode_left(ctx_expect(ctx, n)) @ ctx.jones
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(n))


def ctx_expect(ctx, n):
    """Trace-orthogonal expectation of the big algebra onto the subalgebra."""
    gram = np.array(
        [[ctx.trace(bi.conj().T @ bj) for bj in ctx.sub.basis] for bi in ctx.sub.basis]
    )
    rhs = np.array([ctx.trace(bi.conj().T @ n) for bi in ctx.sub.basis])
    return ctx.sub.reconstruct(np.linalg.solve(gram, rhs))


# -------------------------------------------------------- basic construction


def test_basic_construction_over_self():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    ctx = basic_construction(alg, alg, kappa)
    assert np.allclose(ctx.jones, np.eye(4), atol=1e-10)
    ok, dev = span_equal(ctx.algebra, ctx.left_image)
    assert ok, dev


def test_basic_construction_over_scalars():
    alg = full_matrix_algebra(2)
    scalars = StarAlgebra(np.eye(2)[None, :, :].astype(complex) / np.sqrt(2))
    kappa = TraceFunctional.from_matrix_trace(alg)
    ctx = basic_construction(alg, scalars, kappa)
    assert ctx.algebra.dimension == 16
    assert ctx.commutant_defect <= 1e-10


def test_basic_construction_commutant_identity():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    assert ctx.commutant_defect <= 1e-10
    rc = commutant(ctx.module.image_algebra)
    ok, dev = span_equal(ctx.algebra, rc)
    assert ok, dev


def test_jones_sandwich_spans_construction():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    sandwich = jones_sandwich_span(ctx)
    ok, dev = span_equal(sandwich, ctx.algebra)
    assert ok, dev


def test_weighted_center_trace_identity():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    ez_big = center_valued_trace(big, kappa)
    ez_gen = center_valued_trace(ctx.algebra, ctx.induced)
    weight = ctx.encode_left(ctx.weight)
    rng = np.random.default_rng(23)
    for _ in range(20):
        n1 = random_element(big, rng)
        n2 = random_element(big, rng)
        mid = ctx.encode_left(n1) @ ctx.jones @ ctx.encode_left(n2)
        lhs = weight @ ez_gen(mid)
        rhs = ctx.encode_left(ez_big(n1 @ n2))
        scale = max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale


# --------------------------------------------------------------- push down


def test_push_down_recovers_plain_element():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = random_element(big, rng)
        got = push_down(ctx.encode_left(n) @ ctx.jones, ctx)
        assert np.allclose(got, n, atol=1e-9 * max(1.0, np.linalg.norm(n)))


def test_push_down_of_sandwich():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    rng = np.random.default_rng(25)
    for _ in range(10):
        n1 = random_element(big, rng)
        n2 = random_element(big, rng)
        a = ctx.encode_left(n1) @ ctx.jones @ ctx.encode_left(n2)
        got = push_down(a, ctx)
        want = n1 @ ctx_expect(ctx, n2)
        scale = max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(got - want) <= 1e-9 * scale


def test_push_down_random_element_residual():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    rng = np.random.default_rng(26)
    for _ in range(10):
        a = random_element(ctx.algebra, rng)
        n = push_down(a, ctx)
        resid = np.linalg.norm(a @ ctx.jones - ctx.encode_left(n) @ ctx.jones)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(a))
        # least-squares oracle: best n in the big algebra for the same residual
        cols = np.column_stack(
            [(ctx.encode_left(b) @ ctx.jones).reshape(-1) for b in big.basis]
        )
        co, *_ = np.linalg.lstsq(cols, (a @ ctx.jones).reshape(-1), rcond=None)
        want = big.reconstruct(co)
        assert np.allclose(n, want, atol=1e-8 * max(1.0, np.linalg.norm(want)))


def test_push_down_needs_matching_centers():
    big = block_matrix_algebra([2, 1])
    scalars = StarAlgebra(np.eye(3)[None, :, :].astype(complex) / np.sqrt(3))
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, scalars, kappa)
    assert not ctx.centers_match
    with pytest.raises(PreconditionError):
        push_down(ctx.jones, ctx)


# ------------------------------------------------------- A6 and A7 on stacks


def assert_stack_is_the_loop(fn, mats):
    """fn on a whole stack against fn on one matrix (or vector) at a time."""
    stacked = fn(mats)
    loop = np.array([fn(m) for m in mats])
    assert stacked.shape == loop.shape
    assert np.max(np.abs(stacked - loop)) <= 1e-13 * max(1.0, float(np.max(np.abs(loop))))


def test_stacked_forms_equal_a_per_matrix_loop():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, sub, kappa)
    sp = ctx.space
    rng = np.random.default_rng(35)
    ns = np.array([random_element(big, rng) for _ in range(7)])
    # elements of the generated algebra commute with the right action over sub
    ops = np.array([random_element(ctx.algebra, rng) for _ in range(7)])
    vecs = rng.normal(size=(7, sp.dim)) + 1j * rng.normal(size=(7, sp.dim))
    for fn, mats in (
        (sp.left, ns),
        (sp.right, ns),
        (sp.unhat, vecs),
        (kappa, ns),
        (ctx.expect_onto_big, ops),
        (center_valued_trace(ctx.algebra), ops),
        (ctx.decode_left, sp.left(ns)),
        (lambda a: push_down(a, ctx), ops),
        (induced_trace_evaluator(ctx.module), ops),
    ):
        assert_stack_is_the_loop(fn, mats)
    assert np.allclose(ctx.decode_left(sp.left(ns)), ns, atol=1e-12)
    assert push_down(ops[:0], ctx).shape == (0, 4, 4)


def test_stacked_push_down_keeps_its_preconditions():
    big = block_matrix_algebra([2, 1])
    scalars = StarAlgebra(np.eye(3)[None, :, :].astype(complex) / np.sqrt(3))
    ctx = basic_construction(big, scalars, TraceFunctional.from_matrix_trace(big))
    with pytest.raises(PreconditionError, match="matching centers"):
        push_down(np.stack([ctx.jones] * 3), ctx)
    big = full_matrix_algebra(4)
    kappa = TraceFunctional.from_matrix_trace(big)
    ctx = basic_construction(big, ampliated_matrix_algebra(2, 2), kappa)
    ctx.dim_value = np.zeros(len(ctx.dim_value))
    with pytest.raises(PreconditionError, match="strictly positive"):
        push_down(np.stack([ctx.jones] * 3), ctx)


def one_draw(rng, dim):
    """The per-trial draw the stacks replace: real parts, then imaginary parts."""
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_stacked_draws_are_the_per_trial_draws():
    # A6 draws n1 then n2 for each trial, then one element per push-down
    # trial; A7 draws 1000 vectors. The stacks are those very draws.
    for idx, (_, big, sub) in enumerate(_construction_instances()):
        ctx = basic_construction(big, sub, TraceFunctional.from_matrix_trace(big))
        stacked = campaign_rng(3, "construction", idx)
        pairs = gaussian_vector(stacked, 100, 2, big.dimension)
        pushes = gaussian_vector(stacked, 100, ctx.algebra.dimension)
        loop = campaign_rng(3, "construction", idx)
        for t in range(100):
            assert np.array_equal(pairs[t, 0], one_draw(loop, big.dimension))
            assert np.array_equal(pairs[t, 1], one_draw(loop, big.dimension))
        for t in range(100):
            assert np.array_equal(pushes[t], one_draw(loop, ctx.algebra.dimension))

        fs = gaussian_vector(campaign_rng(3, "subalgebra", idx), 1000, big.dimension)
        loop = campaign_rng(3, "subalgebra", idx)
        want = np.array([one_draw(loop, big.dimension) for _ in range(1000)])
        assert np.array_equal(fs, want)
        # one vector is the first row of a stack
        one = gaussian_vector(campaign_rng(3, "subalgebra", idx), big.dimension)
        assert np.array_equal(one, want[0])


# ------------------------------------------------------------ bounded memory


def traced_peak_mb(fn) -> float:
    """The peak of the memory fn allocates while it runs, from tracemalloc, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_span_builders_and_a7_norms_stay_under_a_memory_bound():
    # on m6-over-m3 (n = 36) the whole candidate stacks took 54.9 MB in the
    # sandwich and 26.7 MB in the closure; A7's norms of 1000 vectors take
    # 22.6 MB whole and 2.9 MB at bounded_norms' 125 vectors a time
    idx = 2
    _, big, sub = _construction_instances()[idx]
    ctx = basic_construction(big, sub, TraceFunctional.from_matrix_trace(big))
    gens = [ctx.space.left(g) for g in big.gen_matrices()] + [ctx.jones]
    over_big = gns_right_module(ctx.space, big)
    over_big.space  # built once, outside the traced call
    fs = gaussian_vector(campaign_rng(3, "subalgebra", idx), 1000, big.dimension)
    for fn in (
        lambda: jones_sandwich_span(ctx),
        lambda: generate_algebra(gens),
        lambda: bounded_norms(fs, over_big),
    ):
        assert traced_peak_mb(fn) < 12.0


def test_bounded_norms_of_many_vectors_stay_under_a_memory_bound():
    # `bimodule --random --seed 1 --blocks 8 --trials 5000` (h = 32): the whole
    # (5000, h * h) stack of pairs peaked at 150.9 MB traced, 3.8 MB chunked
    bm = seeded_instance(1, block_count=8)
    assert bm.space_dim == 32
    fs = seeded_vectors(1, 5000, bm.space_dim)
    for module in (bm.left, bm.right):
        module.space  # built once, outside the traced call
        assert traced_peak_mb(lambda: bounded_norms(fs, module)) < 16.0


def test_chunked_norms_are_the_per_chunk_norms():
    chunk = bimodule._NORM_TRIALS
    for idx, (_, big, sub) in enumerate(_construction_instances()):
        sp = gns(big, TraceFunctional.from_matrix_trace(big))
        fs = gaussian_vector(campaign_rng(3, "subalgebra", idx), 1000, big.dimension)
        for module in (gns_right_module(sp, big), gns_right_module(sp, sub)):
            for trials in (1000, 600, 0):
                part = fs[:trials]
                got = bounded_norms(part, module)
                want = [bounded_norms(part[s : s + chunk], module) for s in range(0, trials, chunk)]
                assert np.array_equal(got, np.concatenate(want or [np.empty(0)]))


# ------------------------------------------------------------ induced trace


def test_induced_trace_on_regular_module_is_kappa():
    alg = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    tr = induced_trace(mod, commutant(mod.image_algebra))
    sp = mod.space
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = random_element(alg, rng)
        assert tr(sp.left(n)) == pytest.approx(kappa(n), abs=1e-9)


def test_induced_trace_rows_over_full_algebra():
    n = 3
    alg = full_matrix_algebra(n)
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = row_module(alg, kappa)
    tr = induced_trace(mod, commutant(mod.image_algebra))
    assert tr.algebra.dimension == 1
    assert tr(np.eye(n)) == pytest.approx(1.0, abs=1e-9)


def test_induced_trace_defining_identity():
    # tau(L_f L_f^*) = kappa(L_f^* L_f) for every vector f
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = row_module(alg, kappa)
    tr = induced_trace(mod, commutant(mod.image_algebra))
    sp = mod.space
    rng = np.random.default_rng(28)
    for _ in range(100):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        lf = bounded_operator([f], mod)[0]
        lhs = tr(lf @ lf.conj().T)
        # L_f^* L_f commutes with the right action, so it is an algebra element
        elem = sp.unhat(lf.conj().T @ lf @ sp.hat_identity())
        assert lhs == pytest.approx(complex(kappa(elem)), abs=1e-9)


# ------------------------------------------------- dimension-trace identities


def test_center_trace_identity_for_bounded_vectors():
    # cdim-weighted center trace of L_f L_f^* equals the center trace of L_f^* L_f
    cases = []
    m3 = full_matrix_algebra(3)
    cases.append(row_module(m3, TraceFunctional.from_matrix_trace(m3)))
    sum22 = block_matrix_algebra([2, 2])
    cases.append(row_module(sum22, TraceFunctional.from_matrix_trace(sum22)))
    rng = np.random.default_rng(29)
    for mod in cases:
        tilde = commutant(mod.image_algebra)
        tr_tilde = induced_trace(mod, tilde)
        ez_tilde = center_valued_trace(tilde, tr_tilde)
        ez_n = center_valued_trace(mod.algebra, mod.trace)
        value = cdim(mod)
        weight = sum(c * mod.act(q) for c, q in zip(value, mod.algebra.central_projections))
        for _ in range(20):
            f = rng.normal(size=mod.space_dim) + 1j * rng.normal(size=mod.space_dim)
            lf = bounded_operator([f], mod)[0]
            lhs = weight @ ez_tilde(lf @ lf.conj().T)
            rhs_elem = ez_n(mod.space.unhat(lf.conj().T @ lf @ mod.space.hat_identity()))
            rhs = mod.act(rhs_elem)
            scale = max(1.0, np.linalg.norm(rhs))
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale


def test_cdim_product_with_commutant_module():
    m3 = full_matrix_algebra(3)
    sum22 = block_matrix_algebra([2, 2])
    mods = [
        row_module(m3, TraceFunctional.from_matrix_trace(m3)),
        row_module(sum22, TraceFunctional.from_matrix_trace(sum22)),
        regular_over_sub(
            full_matrix_algebra(4),
            ampliated_matrix_algebra(2, 2),
            TraceFunctional.from_matrix_trace(full_matrix_algebra(4)),
        ),
    ]
    for mod in mods:
        tilde = commutant(mod.image_algebra)
        tr_tilde = induced_trace(mod, tilde)
        left = LeftModule(tilde, tr_tilde, tilde.basis, check=False)
        # tilde lives in the operator space, where mod's blocks act
        partners, _ = pair_blocks(mod.act(mod.algebra.central_projections), tilde.central_projections)
        product = cdim(mod) * cdim(left)[partners]
        assert np.max(np.abs(product - 1.0)) <= 1e-9


def test_coefficient_change_through_inclusion():
    # factor case: C^4 over M_4 and over M_2 x 1
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kb = TraceFunctional.from_matrix_trace(big)
    ks = TraceFunctional.from_matrix_trace(sub)
    h_over_big = row_module(big, kb)
    h_over_sub = RightModule(sub, ks, np.stack([b.T for b in sub.basis]))
    reg_over_sub = regular_over_sub(big, sub, kb)
    lhs = cdim(h_over_sub)
    partners, _ = pair_blocks(sub.central_projections, big.central_projections)
    rhs = cdim(reg_over_sub) * cdim(h_over_big)[partners]
    assert np.max(np.abs(lhs - rhs)) <= 1e-9
    assert lhs == pytest.approx([1.0], abs=1e-9)


def test_coefficient_change_two_blocks():
    big = block_matrix_algebra([2, 2])
    kb = TraceFunctional.from_matrix_trace(big)
    # subalgebra = the center, whose blocks match the big algebra's
    zb = np.zeros((2, 4, 4), dtype=complex)
    zb[0, :2, :2] = np.eye(2) / np.sqrt(2)
    zb[1, 2:, 2:] = np.eye(2) / np.sqrt(2)
    sub = StarAlgebra(zb, generators=(np.diag([1.0, 1.0, 0, 0]).astype(complex),))
    ks = TraceFunctional(sub, np.array([kb(b) for b in sub.basis]))
    h_over_big = row_module(big, kb)
    h_over_sub = RightModule(sub, ks, np.stack([b.T for b in sub.basis]))
    reg_over_sub = regular_over_sub(big, sub, kb)
    assert cdim(h_over_big) == pytest.approx([0.5, 0.5], abs=1e-9)
    assert cdim(reg_over_sub) == pytest.approx([4.0, 4.0], abs=1e-9)
    lhs = cdim(h_over_sub)
    partners, _ = pair_blocks(sub.central_projections, big.central_projections)
    rhs = cdim(reg_over_sub) * cdim(h_over_big)[partners]
    assert np.max(np.abs(lhs - rhs)) <= 1e-9
    assert sorted(lhs) == pytest.approx([2.0, 2.0], abs=1e-9)


# ------------------------------------------------- center-valued dimension


def test_center_coefficient_guards():
    with pytest.raises(ValueError, match="negative center coefficient -1.000e"):
        vnmod._center_coefficients([-1.0])
    # below 1e-8 in size, a negative is rounding and clips to 0
    got = vnmod._center_coefficients([-1e-9, 2.5])
    assert got.tolist() == [0.0, 2.5]
    assert got.dtype == float
    with pytest.raises(ValueError, match="center coefficients must be real"):
        vnmod._center_coefficients(np.array([1.0 + 1e-6j]))
    assert vnmod._center_coefficients(np.array([1.0 + 1e-12j])).tolist() == [1.0]


def test_cdim_rejects_a_complex_trace(monkeypatch):
    # a decoded multiplier off by a phase gives complex Tr(q x) / Tr(q); cdim
    # hands the guard the complex values, so it raises instead of taking .real
    alg = full_matrix_algebra(2)
    mod = row_module(alg, TraceFunctional.from_matrix_trace(alg))
    assert cdim(mod) == pytest.approx([0.5], abs=1e-9)
    decode = vnmod._decode_multiplier
    monkeypatch.setattr(vnmod, "_decode_multiplier", lambda sp, b: decode(sp, b) * np.exp(1e-6j))
    with pytest.raises(ValueError, match="center coefficients must be real"):
        cdim(mod)


def test_both_cdim_routes_are_in_block_order():
    # entry i belongs to central_projections[i], i.e. to blocks[i]: the block
    # formula is rank(act(P_i)) / d_i^2 with d_i the size of blocks[i]
    groups = [FiniteAbelianGroup((n,)) for n in range(2, 7)]
    bms = [gabor_bimodule(lat) for group in groups for lat in enumerate_subgroups(group)]
    bms += [seeded_instance(seed) for seed in range(10)]
    for mod in (side for bm in bms for side in (bm.left, bm.right)):
        blocks = mod.algebra.blocks
        value, oracle = cdim(mod), cdim_blockwise(mod)
        assert value.shape == oracle.shape == (len(blocks),)
        projections = mod.algebra.central_projections
        for i, q in enumerate(projections):
            rank = np.linalg.matrix_rank(mod.act(q))
            assert oracle[i] == rank / blocks[i].shape[0] ** 2
        assert np.max(np.abs(value - oracle)) <= 1e-9


def test_pair_blocks_requires_unique_match():
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    partners, worst = pair_blocks(np.array([p1, p2]), np.array([p2, p1]))
    assert partners.tolist() == [1, 0] and worst == 0.0
    assert (np.array([1.0, 2.0]) * np.array([3.0, 4.0])[partners]).tolist() == [4.0, 6.0]
    with pytest.raises(ValueError, match="block 0 matched 2 partners"):
        pair_blocks(np.array([p1, p2]), np.array([p1, p1]))
    with pytest.raises(ValueError, match="block 1 matched 0 partners"):
        pair_blocks(np.array([p1, p1]), np.array([p1, p2]))
