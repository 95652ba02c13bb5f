import numpy as np
import pytest

from gaborlab.algebra import (
    InclusionError,
    StarAlgebra,
    TraceFunctional,
    ampliated_matrix_algebra,
    block_matrix_algebra,
    center_valued_trace,
    commutant,
    full_matrix_algebra,
    gns,
    span_equal,
)
from gaborlab.bimodule import gaussian_vector
from gaborlab.campaigns import _construction_instances
from gaborlab.reporting import campaign_rng
from gaborlab.vnmod import (
    CenterElement,
    FaithfulnessError,
    LeftModule,
    PreconditionError,
    RightModule,
    SpanError,
    basic_construction,
    blockwise_deviation,
    blockwise_product,
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
    assert value.coefficients == pytest.approx([0.5], abs=1e-9)


def test_module_projection_redundant_generators():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    e1 = np.array([1.0, 0.0])
    lean_mod, padded_mod = row_module(alg, kappa), row_module(alg, kappa)
    lean_mod.generators = [e1]
    padded_mod.generators = [e1, e1, np.zeros(2)]
    lean = cdim(lean_mod)
    padded = cdim(padded_mod)
    assert blockwise_deviation(lean, padded) <= 1e-9


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


# -------------------------------------------------------------------- cdim


def test_cdim_regular_module_is_one():
    alg = block_matrix_algebra([2, 3])
    kappa = TraceFunctional.from_matrix_trace(alg)
    mod = regular_right_module(alg, kappa)
    value = cdim(mod)
    assert value.max_dev_from_scalar(1.0) <= 1e-9


def test_cdim_rows_over_full_algebra():
    for n in (2, 3):
        alg = full_matrix_algebra(n)
        kappa = TraceFunctional.from_matrix_trace(alg)
        mod = row_module(alg, kappa)
        value = cdim(mod)
        assert value.coefficients == pytest.approx([1.0 / n], abs=1e-9)
        oracle = cdim_blockwise(mod)
        assert blockwise_deviation(value, oracle) <= 1e-9


def test_cdim_regular_m4_over_ampliated_m2():
    big = full_matrix_algebra(4)
    sub = ampliated_matrix_algebra(2, 2)
    kappa = TraceFunctional.from_matrix_trace(big)
    mod = regular_over_sub(big, sub, kappa)
    value = cdim(mod)
    assert value.coefficients == pytest.approx([4.0], abs=1e-9)
    # block formula oracle: 16-dimensional space over a 4-dimensional factor
    oracle = cdim_blockwise(mod)
    assert oracle.coefficients == pytest.approx([4.0])


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
    a, b = cdim(rows), cdim(reg)
    want = CenterElement(
        a.projections, [a.coefficients[i] + b.coefficients[j] for i, j in pair_blocks(a, b)]
    )
    assert blockwise_deviation(got, want) <= 1e-9
    assert got.coefficients == pytest.approx([1.5], abs=1e-9)


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
    assert blockwise_deviation(a, b) <= 1e-9


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
        assert blockwise_deviation(cdim(mod), cdim_blockwise(mod)) <= 1e-9


# --------------------------------------------------------- jones projection


def test_jones_projection_onto_self():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    e = jones_projection(alg, alg, kappa)
    assert np.allclose(e, np.eye(4), atol=1e-10)


def test_jones_projection_onto_diagonal():
    alg = full_matrix_algebra(2)
    diag = StarAlgebra(np.array([np.diag([1.0, 0]), np.diag([0, 1.0])]).astype(complex))
    kappa = TraceFunctional.from_matrix_trace(alg)
    e = jones_projection(alg, diag, kappa)
    sp = gns(alg, kappa)
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
        jones_projection(big, full_matrix_algebra(3), kappa)


def test_jones_projection_fixes_identity():
    alg = full_matrix_algebra(2)
    diag = StarAlgebra(np.array([np.diag([1.0, 0]), np.diag([0, 1.0])]).astype(complex))
    kappa = TraceFunctional.from_matrix_trace(alg)
    e = jones_projection(alg, diag, kappa)
    sp = gns(alg, kappa)
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
    weight = ctx.encode_left(ctx.dim_value.matrix)
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
    projections = ctx.dim_value.projections
    ctx.dim_value = CenterElement(projections, np.zeros(len(projections)))
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
        weight = sum(
            c * mod.act(q) for c, q in zip(value.coefficients, value.projections)
        )
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
        product = blockwise_product(
            cdim(mod), cdim(left), embed_a=mod.act, embed_b=lambda m: m
        )
        assert product.max_dev_from_scalar(1.0) <= 1e-9


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
    rhs = blockwise_product(cdim(reg_over_sub), cdim(h_over_big))
    assert blockwise_deviation(lhs, rhs) <= 1e-9
    assert lhs.coefficients == pytest.approx([1.0], abs=1e-9)


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
    assert cdim(h_over_big).coefficients == pytest.approx([0.5, 0.5], abs=1e-9)
    assert cdim(reg_over_sub).coefficients == pytest.approx([4.0, 4.0], abs=1e-9)
    lhs = cdim(h_over_sub)
    rhs = blockwise_product(cdim(reg_over_sub), cdim(h_over_big))
    assert blockwise_deviation(lhs, rhs) <= 1e-9
    assert sorted(lhs.coefficients) == pytest.approx([2.0, 2.0], abs=1e-9)


# ---------------------------------------------------------- center elements


def test_center_element_guards():
    p = np.eye(2)
    with pytest.raises(ValueError):
        CenterElement([p], [-1.0])
    with pytest.raises(ValueError):
        CenterElement([p], [1.0, 2.0])
    elem = CenterElement([p], [2.5])
    assert elem.sup_norm() == 2.5
    assert elem.max_dev_from_scalar(1.0) == 1.5


def test_pair_blocks_requires_unique_match():
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    a = CenterElement([p1, p2], [1.0, 2.0])
    b = CenterElement([p2, p1], [3.0, 4.0])
    got = blockwise_product(a, b)
    assert got.coefficients == pytest.approx([4.0, 6.0])
    clash = CenterElement([p1, p1], [1.0, 1.0])
    with pytest.raises(ValueError):
        blockwise_product(a, clash)
