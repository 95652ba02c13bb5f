import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from gaborlab import algebra
from gaborlab.algebra import (
    ConditionalExpectation,
    FaithfulnessError,
    InclusionError,
    SpanError,
    StarAlgebra,
    TraceFunctional,
    _cluster_cuts,
    ampliated_matrix_algebra,
    block_matrix_algebra,
    center,
    center_valued_trace,
    commutant,
    full_matrix_algebra,
    generate_algebra,
    gns,
    minimal_central_projections,
    orthonormal_extension,
    span_equal,
    twisted_group_algebra,
)
from gaborlab.bimodule import random_instance
from gaborlab.campaigns import _construction_instances
from gaborlab.duality import gabor_bimodule
from gaborlab.gabor import tf_shift
from gaborlab.groups import (
    FiniteAbelianGroup,
    adjoint_lattice,
    enumerate_subgroups,
    lattice_from_generators,
)
from gaborlab.reporting import TOL_SPAN
from gaborlab import vnmod
from gaborlab.vnmod import basic_construction, jones_projection, jones_sandwich_span
from reference import add, dense_commutant, generate_algebra_full, orthonormal_extension_loop, point

Z4 = FiniteAbelianGroup((4,))
Z24 = FiniteAbelianGroup((2, 4))


def square_lattice():
    # {0,2} x {0,2} inside the phase space of Z_4, self-adjoint
    gens = [point(Z4, (2,), (0,)), point(Z4, (0,), (2,))]
    return lattice_from_generators(Z4, gens)


def shift_gens(lat):
    return [tf_shift(lat.group, z) for z in lat.rows]


def random_element(alg, rng):
    co = rng.normal(size=alg.dimension) + 1j * rng.normal(size=alg.dimension)
    return alg.reconstruct(co)


def closure_defect(alg):
    """Max residual of basis products and adjoints against the span (slow)."""
    worst = 0.0
    for a in alg.basis:
        worst = max(worst, float(alg.residuals(a.conj().T)))
        for b in alg.basis:
            worst = max(worst, float(alg.residuals(a @ b)))
    return worst


def trace_from_function(alg, fn):
    return TraceFunctional(alg, np.array([fn(b) for b in alg.basis], dtype=complex))


# ---------------------------------------------------------------- generation


def test_generate_identity_only():
    alg = generate_algebra([np.eye(3)])
    assert alg.dimension == 1


def test_generate_nilpotent_fills_m2():
    alg = generate_algebra([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert alg.dimension == 4


def test_generate_square_lattice_shifts():
    lat = square_lattice()
    mats = shift_gens(lat)
    # oracle: the four shifts are already linearly independent
    stacked = np.array([m.reshape(-1) for m in mats])
    assert np.linalg.matrix_rank(stacked) == 4
    alg = generate_algebra(mats)
    assert alg.dimension == 4
    for m in mats:
        assert alg.contains(m)


def test_generation_is_stable():
    lat = square_lattice()
    for alg in (
        generate_algebra([np.array([[0.0, 1.0], [0.0, 0.0]])]),
        generate_algebra(shift_gens(lat)),
        block_matrix_algebra([2, 3]),
    ):
        assert closure_defect(alg) <= 1e-10
        again = generate_algebra(list(alg.basis))
        assert again.dimension == alg.dimension


# ---------------------------------------------------------------- span layer


def record_extensions(monkeypatch):
    """Route every orthonormal_extension call of algebra and vnmod through a
    recorder of (basis, candidates, rows added)."""
    calls = []

    def spy(basis_flat, candidates_flat):
        added = orthonormal_extension(basis_flat, candidates_flat)
        basis = None if basis_flat is None else basis_flat.copy()
        calls.append((basis, np.array(candidates_flat, dtype=complex), added))
        return added

    monkeypatch.setattr(algebra, "orthonormal_extension", spy)
    monkeypatch.setattr(vnmod, "orthonormal_extension", spy)
    return calls


def assert_same_extension(rows, loop_rows):
    """The chunked kernel against the row loop: the same rank decision, and
    rows equal up to rounding (the GEMMs sum in another order)."""
    assert rows.shape == loop_rows.shape
    if rows.size:
        assert np.max(np.abs(rows - loop_rows)) <= 1e-13


def test_orthonormal_extension_equals_the_row_loop_on_every_call(monkeypatch):
    # generate_algebra, image_algebra, spanning_generators, basic_construction
    # and jones_sandwich_span on A6's instances and on random bimodules
    calls = record_extensions(monkeypatch)
    for _, big, sub in _construction_instances():
        jones_sandwich_span(basic_construction(big, sub, TraceFunctional.from_matrix_trace(big)))
    for seed in range(10):
        bm = random_instance(seed)
        for module in (bm.left, bm.right):
            module.image_algebra
            module.generators
    assert len(calls) > 100
    assert max(cands.shape[0] for _, cands, _ in calls) == 36 * 36
    for basis, cands, added in calls:
        assert_same_extension(added, orthonormal_extension_loop(basis, cands))


def test_orthonormal_extension_edge_cases():
    rng = np.random.default_rng(31)
    n = 6
    cands = rng.normal(size=(9, n)) + 1j * rng.normal(size=(9, n))
    basis = orthonormal_extension(None, cands[:3])
    full = orthonormal_extension(None, cands)
    in_span = rng.normal(size=(4, 3)) @ basis
    cases = [
        (None, np.zeros((0, n), dtype=complex)),
        (basis, np.zeros((0, n), dtype=complex)),
        (basis, in_span),
        (full, cands),
        (None, cands),
        (basis, cands),
        (None, cands * 1e-200),
        (basis, cands * 1e150),
        (None, np.vstack([cands[:2] * 1e-200, cands[2:] * 1e150])),
    ]
    for base, cand in cases:
        assert_same_extension(
            orthonormal_extension(base, cand), orthonormal_extension_loop(base, cand)
        )
    assert full.shape == (n, n)
    assert orthonormal_extension(basis, in_span).shape == (0, n)
    assert orthonormal_extension(full, cands).shape == (0, n)
    # nine candidates, three dimensions left
    assert orthonormal_extension(basis, cands).shape == (3, n)
    assert np.allclose(full.conj() @ full.T, np.eye(n), atol=1e-12)


def test_orthonormal_extension_across_chunks():
    # three chunks of candidates; every third one depends on its predecessor
    # (in the same chunk, or in the chunk before at a boundary) and on one
    # far back; the independent ones overfill the free dimensions, and the
    # space fills in the middle of the third chunk
    chunk = algebra._CHUNK
    count, have = 3 * chunk, 10
    independent = [i for i in range(count) if i % 3 != 2]
    free = sum(1 for i in independent if i <= 2 * chunk + chunk // 2)
    last = independent[free - 1]  # the candidate that fills the space
    assert last // chunk == 2 and 0 < last % chunk < chunk - 1 and free < len(independent)
    n = have + free
    rng = np.random.default_rng(34)
    start = rng.normal(size=(have, n)) + 1j * rng.normal(size=(have, n))
    basis = orthonormal_extension(None, start)
    cands = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    for i in range(2, count, 3):
        cands[i] = (0.5 - 2j) * cands[i - 1] + 3.0 * cands[i // 3]
    rows = orthonormal_extension(basis, cands)
    assert rows.shape == (free, n)
    assert_same_extension(rows, orthonormal_extension_loop(basis, cands))
    # the rows come from the first independent candidates, in order
    assert_same_extension(rows, orthonormal_extension(basis, cands[independent[:free]]))
    full = np.vstack([basis, rows])
    assert np.allclose(full.conj() @ full.T, np.eye(n), atol=1e-12)


def test_closure_multiplies_only_the_rows_of_the_last_round(monkeypatch):
    lat = square_lattice()
    for gens in (
        [np.array([[0.0, 1.0], [0.0, 0.0]])],
        shift_gens(lat)[1:3],
        list(block_matrix_algebra([2, 3]).gen_matrices()),
    ):
        calls = record_extensions(monkeypatch)
        alg = generate_algebra(gens)
        assert calls[0][1].shape[0] == 1 + 2 * len(gens)
        for (_, _, before), (_, cands, _) in zip(calls, calls[1:]):
            assert cands.shape[0] == 2 * len(gens) * before.shape[0]
        assert calls[-1][2].shape[0] == 0
        assert sum(added.shape[0] for _, _, added in calls) == alg.dimension


def assert_closure_matches_full_basis(gens):
    gens = list(gens)
    assert np.array_equal(generate_algebra(gens).basis, generate_algebra_full(gens).basis)


@pytest.mark.parametrize("n", range(2, 9))
def test_closure_equals_the_full_basis_closure_on_shift_algebras(n):
    for lat in enumerate_subgroups(FiniteAbelianGroup((n,))):
        assert_closure_matches_full_basis(twisted_group_algebra(lat).gen_matrices())


@pytest.mark.parametrize("index", range(3))
def test_closure_equals_the_full_basis_closure_on_basic_constructions(index):
    # A6's generators of <N, e>: the left action of N's generators and e
    _, big, sub = _construction_instances()[index]
    kappa = TraceFunctional.from_matrix_trace(big)
    sp = gns(big, kappa)
    gens = [sp.left(g) for g in big.gen_matrices()] + [jones_projection(big, sub, kappa)]
    assert_closure_matches_full_basis(gens)


def test_basis_orthonormality_enforced():
    bad = np.array([np.eye(2), np.eye(2)])
    with pytest.raises(SpanError):
        StarAlgebra(bad)


def test_identity_must_lie_in_span():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    with pytest.raises(SpanError):
        StarAlgebra(e12[None, :, :])


def test_recorded_generators_must_lie_in_span():
    e13 = np.zeros((3, 3), dtype=complex)
    e13[0, 2] = 1.0
    basis = block_matrix_algebra([2, 1]).basis
    assert StarAlgebra(basis, generators=(np.eye(3),)).dimension == 5
    with pytest.raises(SpanError, match="generator"):
        StarAlgebra(basis, generators=(np.eye(3), e13))


def test_contains_a_stack_means_every_matrix():
    alg = block_matrix_algebra([2, 1])
    e13 = np.zeros((3, 3), dtype=complex)
    e13[0, 2] = 1.0
    assert alg.contains(alg.basis)
    assert alg.contains(np.eye(3)) and not alg.contains(e13)
    assert not alg.contains(np.concatenate([alg.basis, e13[None]]))


# ---------------------------------------------------------------- commutant


def test_commutant_of_full_is_scalars():
    alg = full_matrix_algebra(3)
    com = commutant(alg)
    assert com.dimension == 1
    assert com.contains(np.eye(3))


def test_commutant_of_scalars_is_full():
    scalars = StarAlgebra(np.eye(3)[None, :, :] / np.sqrt(3))
    com = commutant(scalars)
    assert com.dimension == 9


def test_commutant_of_square_lattice_shifts():
    lat = square_lattice()
    alg = generate_algebra(shift_gens(lat))
    adj = adjoint_lattice(lat)
    # this lattice is self-adjoint, so the commutant is the same span
    assert np.array_equal(adj.codes, lat.codes)
    dual = generate_algebra(shift_gens(adj))
    com = commutant(alg)
    ok, dev = span_equal(com, dual)
    assert ok, dev
    assert com.dimension == 4


def test_double_commutant():
    lat = square_lattice()
    cases = [
        full_matrix_algebra(2),
        block_matrix_algebra([2, 1]),
        ampliated_matrix_algebra(2, 2),
        generate_algebra(shift_gens(lat)),
    ]
    for alg in cases:
        back = commutant(commutant(alg))
        ok, dev = span_equal(alg, back)
        assert ok, dev


def test_span_equal_reports_the_largest_single_residual():
    lat = square_lattice()
    full = full_matrix_algebra(4)
    for a, b in (
        (generate_algebra(shift_gens(lat)), commutant(generate_algebra(shift_gens(lat)))),
        (block_matrix_algebra([2, 2]), full),
        (ampliated_matrix_algebra(2, 2), commutant(ampliated_matrix_algebra(2, 2))),
    ):
        worst = max(
            [float(b.residuals(m)) for m in a.basis] + [float(a.residuals(m)) for m in b.basis]
        )
        equal, got = span_equal(a, b)
        assert got == pytest.approx(worst, rel=1e-12, abs=1e-15)
        assert equal == (a.dimension == b.dimension and worst <= algebra.SPAN_ATOL)
    assert not span_equal(block_matrix_algebra([2, 2]), full)[0]
    assert span_equal(full, full)[0]


def assert_matches_dense(alg):
    got, want = commutant(alg), dense_commutant(alg)
    assert got.dimension == want.dimension
    ok, dev = span_equal(got, want, atol=TOL_SPAN)
    assert ok, dev


@pytest.mark.parametrize("n", range(2, 9))
def test_commutant_matches_dense_on_shift_algebras(n):
    for lat in enumerate_subgroups(FiniteAbelianGroup((n,))):
        assert_matches_dense(twisted_group_algebra(lat))


@pytest.mark.parametrize("index", range(3))
def test_commutant_matches_dense_on_right_action_images(index):
    _, big, sub = _construction_instances()[index]
    ctx = basic_construction(big, sub, TraceFunctional.from_matrix_trace(big))
    assert_matches_dense(ctx.module.image_algebra)


@pytest.mark.parametrize("seed", range(10))
def test_commutant_matches_dense_on_random_instances(seed):
    bm = random_instance(seed)
    assert_matches_dense(bm.left.image_algebra)
    assert_matches_dense(bm.right.image_algebra)


def test_a_merged_first_split_is_drawn_again(monkeypatch):
    # a cluster that merges two ranges fails the unitarity test, so the
    # decomposition draws again; the second draw splits with the real cuts
    cuts = algebra._cluster_cuts
    for alg in (
        block_matrix_algebra([2, 1]),
        ampliated_matrix_algebra(2, 3),
        generate_algebra(shift_gens(square_lattice())),
    ):
        draws = []

        def merge_first(evals):
            draws.append(evals.size)
            return [0, int(evals.size)] if len(draws) == 1 else cuts(evals)

        monkeypatch.setattr(algebra, "_cluster_cuts", merge_first)
        assert_matches_dense(alg)
        assert len(draws) == 2


def test_a_split_that_always_merges_raises(monkeypatch):
    monkeypatch.setattr(algebra, "_cluster_cuts", lambda evals: [0, int(evals.size)])
    for alg in (block_matrix_algebra([2, 1]), ampliated_matrix_algebra(2, 3)):
        for reader in (commutant, center, minimal_central_projections):
            with pytest.raises(algebra.SpectralSplitError):
                reader(alg)


def test_no_constraints_leave_the_whole_span():
    # a zero generator generates only the scalars, whose commutant is everything
    alg = generate_algebra([np.zeros((3, 3))])
    assert alg.dimension == 1
    assert center(alg).dimension == 1
    assert commutant(alg).dimension == 9
    assert_matches_dense(alg)


def test_hermitian_generators_give_the_dense_commutant():
    # every generator of M2 + M1 is Hermitian (diag and the 2-cycle), and the
    # diagonal algebra comes from a single Hermitian generator
    for alg, center_dim in (
        (block_matrix_algebra([2, 1]), 2),
        (generate_algebra([np.diag([1.0, 2.0, 3.0])]), 3),
    ):
        assert all(np.allclose(g, g.conj().T) for g in alg.gen_matrices())
        zen = center(alg)
        assert zen.dimension == center_dim
        assert alg.contains(zen.basis) and dense_commutant(alg).contains(zen.basis)
        assert_matches_dense(alg)


def test_ampliation_is_one_block():
    # M3 with multiplicity 4 on C^12: three ranges of rank 4 in one central
    # block, whose commutant is I_3 (x) M_4
    (w,) = algebra._decompose(ampliated_matrix_algebra(3, 4))
    assert w.shape == (3, 12, 4)
    ranges = w.transpose(1, 0, 2).reshape(12, 12)
    assert np.allclose(ranges.conj().T @ ranges, np.eye(12), atol=1e-12)
    assert commutant(ampliated_matrix_algebra(3, 4)).dimension == 16


def test_the_span_not_the_recorded_generators_decides():
    # the two diagonal generators of M2 + M1 generate only the diagonal, but
    # center and commutant describe the span, M2 + M1
    alg = block_matrix_algebra([2, 1])
    diags = (alg.generators[0], alg.generators[2])
    partial = StarAlgebra(alg.basis, generators=diags)
    zen = center(partial)
    assert zen.dimension == 2
    assert len(minimal_central_projections(partial)) == 2
    com = commutant(partial)
    assert com.dimension == 2
    assert com.contains(zen.basis)


def test_cluster_cuts_merge_small_gaps_and_split_large_ones():
    gap = 1e-6 * 10.0
    assert _cluster_cuts(np.array([0.0, gap, 10.0])) == [0, 2, 3]
    assert _cluster_cuts(np.array([0.0, 2 * gap, 10.0])) == [0, 1, 2, 3]
    # a spread below 1 counts as 1
    assert _cluster_cuts(np.array([0.0, 1e-6, 0.5])) == [0, 2, 3]
    assert _cluster_cuts(np.array([0.0, 2e-6, 0.5])) == [0, 1, 2, 3]
    assert _cluster_cuts(np.array([-3.0, -3.0 + 1e-12, 2.0, 2.0 + 1e-12])) == [0, 2, 4]


def test_cluster_cuts_single_eigenvalue_and_zero_spread():
    assert _cluster_cuts(np.array([4.0])) == [0, 1]
    assert _cluster_cuts(np.array([2.0, 2.0, 2.0])) == [0, 3]


# ---------------------------------------------------------------- center


def test_center_of_full_algebra():
    alg = full_matrix_algebra(2)
    projs = minimal_central_projections(alg)
    assert len(projs) == 1
    assert np.allclose(projs[0], np.eye(2), atol=1e-10)


def test_center_of_diagonal_algebra():
    basis = np.array([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
    alg = StarAlgebra(basis.astype(complex))
    projs = minimal_central_projections(alg)
    assert len(projs) == 3
    got = sorted(tuple(np.round(np.diag(p).real).astype(int)) for p in projs)
    assert got == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_center_of_block_sum():
    alg = block_matrix_algebra([2, 1])
    projs = minimal_central_projections(alg)
    assert len(projs) == 2
    ranks = sorted(int(round(np.trace(p).real)) for p in projs)
    assert ranks == [1, 2]
    total = sum(projs)
    assert np.allclose(total, np.eye(3), atol=1e-10)
    for i, p in enumerate(projs):
        assert np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(p.conj().T, p, atol=1e-10)
        for q in projs[i + 1 :]:
            assert np.linalg.norm(p @ q) <= 1e-10


def test_central_projection_count_matches_center_dim():
    for alg in (full_matrix_algebra(2), block_matrix_algebra([2, 2]), block_matrix_algebra([1, 2, 3])):
        zen = center(alg)
        projs = minimal_central_projections(alg)
        assert len(projs) == zen.dimension


@pytest.mark.parametrize(
    "orders",
    [(n,) for n in range(2, 9)] + [(2, 2), (2, 3), (2, 4), (3, 3)],
    ids=lambda o: "x".join(map(str, o)),
)
def test_center_structure_matches_the_symplectic_radical(orders):
    # the center of a lattice's shift algebra is spanned by the shifts over
    # R = lat & adjoint, and all |R| blocks are full matrix algebras of one size
    group = FiniteAbelianGroup(orders)
    for lat in enumerate_subgroups(group):
        radical = np.intersect1d(lat.codes, lat.adjoint.codes).size
        alg = twisted_group_algebra(lat)
        assert center(alg).dimension == radical
        assert commutant(alg).dimension == lat.adjoint.size
        projs = minimal_central_projections(alg)
        assert len(projs) == radical
        ranks = [int(round(float(np.trace(p).real))) for p in projs]
        assert ranks == [group.size // radical] * radical
        assert math.isqrt(lat.size // radical) ** 2 * radical == lat.size


# ------------------------------------------------- conditional expectations


def lstsq_expectation(sub, kappa, mat):
    """Independent oracle: kappa-orthogonal projection by explicit least squares."""
    gram = np.array([[kappa(bi.conj().T @ bj) for bj in sub.basis] for bi in sub.basis])
    rhs = np.array([kappa(bi.conj().T @ mat) for bi in sub.basis])
    co = np.linalg.solve(gram, rhs)
    return sub.reconstruct(co)


def test_expectation_onto_self_is_identity():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    exp = ConditionalExpectation(alg, alg, kappa)
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = random_element(alg, rng)
        assert np.allclose(exp(n), n, atol=1e-10)


def test_expectation_onto_diagonal():
    alg = full_matrix_algebra(2)
    diag = StarAlgebra(np.array([np.diag([1.0, 0]), np.diag([0, 1.0])]).astype(complex))
    kappa = TraceFunctional.from_matrix_trace(alg)
    exp = ConditionalExpectation(alg, diag, kappa)
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(exp(mat), np.diag([1.0, 4.0]), atol=1e-10)
    rng = np.random.default_rng(2)
    n = random_element(alg, rng)
    assert np.allclose(exp(n), lstsq_expectation(diag, kappa, n), atol=1e-10)


def test_expectation_onto_scalars():
    alg = full_matrix_algebra(2)
    scalars = StarAlgebra(np.eye(2)[None, :, :].astype(complex) / np.sqrt(2))
    kappa = TraceFunctional.from_matrix_trace(alg)
    exp = ConditionalExpectation(alg, scalars, kappa)
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = random_element(alg, rng)
        want = (np.trace(n) / 2.0) * np.eye(2)
        assert np.allclose(exp(n), want, atol=1e-10)
        assert np.allclose(exp(n), lstsq_expectation(scalars, kappa, n), atol=1e-10)


def test_expectation_bimodular_idempotent_unital():
    alg = full_matrix_algebra(3)
    sub = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    exp = ConditionalExpectation(alg, sub, kappa)
    assert np.allclose(exp(np.eye(3)), np.eye(3), atol=1e-10)
    rng = np.random.default_rng(4)
    for _ in range(100):
        b1 = random_element(sub, rng)
        n = random_element(alg, rng)
        b2 = random_element(sub, rng)
        lhs = exp(b1 @ n @ b2)
        rhs = b1 @ exp(n) @ b2
        scale = max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale
        assert np.linalg.norm(exp(exp(n)) - exp(n)) <= 1e-10
        assert abs(kappa(exp(n)) - kappa(n)) <= 1e-10 * max(1.0, abs(kappa(n)))


def test_expectation_positive_on_samples():
    alg = full_matrix_algebra(3)
    sub = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    exp = ConditionalExpectation(alg, sub, kappa)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = random_element(alg, rng)
        evals = np.linalg.eigvalsh(exp(n.conj().T @ n))
        assert evals.min() >= -1e-10


def test_trace_gram_of_a_stack_equals_the_pairwise_traces():
    alg = block_matrix_algebra([2, 3])
    weight = np.diag([2.0, 2.0, 1.0, 1.0, 1.0])
    kappa = trace_from_function(alg, lambda m: np.trace(weight @ m))
    for sub in (alg, center(alg), block_matrix_algebra([2, 1, 1, 1])):
        want = np.array([[kappa(bi.conj().T @ bj) for bj in sub.basis] for bi in sub.basis])
        assert np.allclose(kappa.gram_matrix(sub.basis), want, rtol=0, atol=1e-13)


def test_expectation_rejects_a_trace_degenerate_on_the_subalgebra():
    alg = block_matrix_algebra([1, 1])
    kappa = TraceFunctional(alg, np.array([1.0, 0.0]), check=False)
    with pytest.raises(FaithfulnessError):
        ConditionalExpectation(alg, alg, kappa)


def test_expectation_requires_containment():
    alg = block_matrix_algebra([2, 1])
    outside = full_matrix_algebra(3)
    kappa = TraceFunctional.from_matrix_trace(alg)
    with pytest.raises(InclusionError):
        ConditionalExpectation(alg, outside, kappa)


# -------------------------------------------------------- center-valued trace


def test_cvt_on_m2():
    alg = full_matrix_algebra(2)
    ez = center_valued_trace(alg)
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = random_element(alg, rng)
        assert np.allclose(ez(n), (np.trace(n) / 2.0) * np.eye(2), atol=1e-10)


def test_cvt_on_commutative_algebra():
    basis = np.array([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
    alg = StarAlgebra(basis.astype(complex))
    ez = center_valued_trace(alg)
    rng = np.random.default_rng(7)
    n = random_element(alg, rng)
    assert np.allclose(ez(n), n, atol=1e-10)


def test_cvt_blockwise():
    alg = block_matrix_algebra([2, 3])
    ez = center_valued_trace(alg)
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = random_element(alg, rng)
        want = np.zeros((5, 5), dtype=complex)
        want[:2, :2] = (np.trace(n[:2, :2]) / 2.0) * np.eye(2)
        want[2:, 2:] = (np.trace(n[2:, 2:]) / 3.0) * np.eye(3)
        assert np.allclose(ez(n), want, atol=1e-10)


def test_cvt_is_tracial_on_samples():
    alg = block_matrix_algebra([2, 2])
    ez = center_valued_trace(alg)
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = random_element(alg, rng)
        dev = np.linalg.norm(ez(n.conj().T @ n) - ez(n @ n.conj().T))
        assert dev <= 1e-10 * max(1.0, np.linalg.norm(n) ** 2)


def test_cvt_independent_of_seeding_trace():
    alg = block_matrix_algebra([2, 3])
    plain = TraceFunctional.from_matrix_trace(alg)
    # second faithful trace: reweight the two blocks
    weight = np.diag([1.0, 1.0, 3.0, 3.0, 3.0])
    skew = trace_from_function(alg, lambda m: np.trace(weight @ m))
    ez1 = center_valued_trace(alg, plain)
    ez2 = center_valued_trace(alg, skew)
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = random_element(alg, rng)
        assert np.allclose(ez1(n), ez2(n), atol=1e-9)


def test_cvt_recovers_trace_through_center():
    alg = block_matrix_algebra([2, 3])
    weight = np.diag([2.0, 2.0, 1.0, 1.0, 1.0])
    kappa = trace_from_function(alg, lambda m: np.trace(weight @ m))
    ez = center_valued_trace(alg, kappa)
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = random_element(alg, rng)
        assert abs(kappa(ez(n)) - kappa(n)) <= 1e-9 * max(1.0, abs(kappa(n)))


# --------------------------------------------------------------------- traces


def test_trace_requires_traciality():
    alg = full_matrix_algebra(2)
    # functional m -> m[0, 0] is positive but not tracial on M_2
    with pytest.raises(SpanError):
        trace_from_function(alg, lambda m: m[0, 0])


def test_trace_requires_faithfulness():
    alg = block_matrix_algebra([1, 1])
    with pytest.raises(FaithfulnessError):
        trace_from_function(alg, lambda m: m[0, 0])


def test_trace_evaluation_matches_values():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    rng = np.random.default_rng(12)
    co = rng.normal(size=4) + 1j * rng.normal(size=4)
    mat = alg.reconstruct(co)
    assert kappa(mat) == pytest.approx(np.trace(mat))


# ----------------------------------------------------------------------- gns


def test_gns_scalars_trivial():
    alg = StarAlgebra(np.eye(1)[None, :, :].astype(complex))
    kappa = TraceFunctional.from_matrix_trace(alg)
    space = gns(alg, kappa)
    assert space.dim == 1
    assert space.hat_identity() == pytest.approx(np.array([1.0]))
    assert space.left(np.eye(1)) == pytest.approx(np.eye(1))


def test_gns_counting_measure_on_c2():
    basis = np.array([np.diag([1.0, 0]), np.diag([0, 1.0])]).astype(complex)
    alg = StarAlgebra(basis)
    kappa = TraceFunctional.from_matrix_trace(alg)
    space = gns(alg, kappa)
    hats = [space.hat(b) for b in basis]
    for i, hi in enumerate(hats):
        for j, hj in enumerate(hats):
            want = 1.0 if i == j else 0.0
            assert np.vdot(hj, hi) == pytest.approx(want)


def test_gns_m2_left_action_spectrum():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    space = gns(alg, kappa)
    assert space.dim == 4
    x = np.array([[1.0, 0.5], [0.5, 2.0]])
    got = np.sort(np.linalg.eigvalsh(space.left(x)))
    want = np.sort(np.linalg.eigvalsh(np.kron(x, np.eye(2))))
    assert np.allclose(got, want, atol=1e-10)


def test_gns_inner_product_matches_trace():
    alg = block_matrix_algebra([2, 1])
    kappa = TraceFunctional.from_matrix_trace(alg)
    space = gns(alg, kappa)
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = random_element(alg, rng)
        n = random_element(alg, rng)
        got = np.vdot(space.hat(n), space.hat(m))
        assert got == pytest.approx(kappa(n.conj().T @ m), abs=1e-10)


def test_gns_left_right_commute():
    alg = full_matrix_algebra(2)
    kappa = TraceFunctional.from_matrix_trace(alg)
    space = gns(alg, kappa)
    for m in alg.basis:
        for n in alg.basis:
            lm = space.left(m)
            rn = space.right(n)
            assert np.linalg.norm(lm @ rn - rn @ lm) <= 1e-10


def test_gns_rejects_degenerate_trace():
    alg = block_matrix_algebra([1, 1])
    # weight 0 on the second block: tracial but degenerate
    kappa = TraceFunctional(alg, np.array([1.0, 0.0]), check=False)
    with pytest.raises(FaithfulnessError):
        gns(alg, kappa)


# ------------------------------------------------------- twisted group algebra


def test_twisted_trivial_lattice():
    lat = lattice_from_generators(Z4, [])
    left = gabor_bimodule(lat).left
    assert left.algebra.dimension == 1
    assert left.trace(left.algebra.identity()) == pytest.approx(1.0)


def lam(alg, i):
    # basis is normalized; the representing unitaries carry a sqrt(|G|)
    return alg.basis[i] * np.sqrt(alg.ambient_dim)


def test_twisted_square_lattice_unitary():
    lat = square_lattice()
    alg = twisted_group_algebra(lat)
    assert alg.dimension == 4
    for i in range(alg.dimension):
        u = lam(alg, i)
        assert np.allclose(u @ u.conj().T, np.eye(alg.ambient_dim), atol=1e-12)


def fraction_cocycle(group, z, zp):
    # conj(w'(x)) straight from the definition, with exact Fraction phases,
    # so that it shares no code with the integer pairing in groups
    k = len(group.orders)
    t = sum(Fraction(wj * xj, nj) for wj, xj, nj in zip(zp[k:], z[:k], group.orders))
    return cmath.exp(-2j * math.pi * float(t - math.floor(t)))


@pytest.mark.parametrize("flavor", ["plain", "opposite"])
def test_twisted_cocycle_identity(flavor):
    # every lattice of Z2-Z6, Z2^2 and Z2 x Z3; Z2 x Z4 has L = 4 != 2, so the
    # two coordinates carry different weights
    mixed = lattice_from_generators(
        Z24, [point(Z24, (1, 0), (0, 1)), point(Z24, (0, 1), (1, 0))]
    )
    groups = [FiniteAbelianGroup(o) for o in [(n,) for n in range(2, 7)] + [(2, 2), (2, 3)]]
    for lat in [mixed] + [lat for g in groups for lat in enumerate_subgroups(g)]:
        alg = twisted_group_algebra(lat, flavor=flavor)
        assert alg.dimension == lat.size
        group = lat.group
        pts = [tuple(z) for z in lat.rows.tolist()]
        for i, z in enumerate(pts):
            for j, zp in enumerate(pts):
                if flavor == "plain":
                    phase = fraction_cocycle(group, z, zp)
                else:
                    phase = fraction_cocycle(group, zp, z)
                k = pts.index(add(group, z, zp))
                got = lam(alg, i) @ lam(alg, j)
                want = phase * lam(alg, k)
                assert np.linalg.norm(got - want) <= 1e-12


def test_twisted_canonical_trace():
    lat = square_lattice()
    left = gabor_bimodule(lat).left
    for i, z in enumerate(lat.rows.tolist()):
        want = 1.0 if z == [0, 0] else 0.0
        assert left.trace(lam(left.algebra, i)) == pytest.approx(want, abs=1e-12)


def test_twisted_rejects_unknown_flavor():
    lat = square_lattice()
    with pytest.raises(ValueError):
        twisted_group_algebra(lat, flavor="sideways")
