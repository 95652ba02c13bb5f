"""Modules over tracial matrix algebras.

Finite generation, center-valued dimension, the Jones basic construction
with its push-down map, and traces induced on commutants. Everything is
concrete: a module is a complex vector space together with the images of
an algebra basis under the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    ConditionalExpectation,
    FaithfulnessError,
    GnsSpace,
    InclusionError,
    SPAN_ATOL,
    SpanError,
    StarAlgebra,
    TraceFunctional,
    _CHUNK,
    _SPLIT_SEED,
    _real_if_exact,
    _vec,
    commutant,
    generate_algebra,
    gns,
    numerical_rank,
    orthonormal_extension,
    span_equal,
)


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class BlockMatchError(ValueError):
    """A block has no unique partner; distance is pair_blocks' worst distance."""

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = distance


def pair_blocks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Pair the projections of two (blocks, n, n) stacks in one space, the one
    rule by which gaborlab matches central blocks: P = a[i] pairs with the one
    Q = b[j] not yet taken within |P - Q|_HS / max(1, |P|_HS) <= SPAN_ATOL.

    Returns the partners, the block j of b paired with each block i of a as
    an int array in a's order, and the worst distance from a projection of a
    to its nearest one in b. Raises BlockMatchError, carrying that distance,
    when a block has no unique partner.
    """
    a, b = _vec(a), _vec(b)
    dists = np.linalg.norm(a[:, None] - b[None], axis=-1)
    dists /= np.maximum(1.0, np.linalg.norm(a, axis=-1))[:, None]
    worst = float(dists.min(axis=1).max())
    if len(a) != len(b):
        raise BlockMatchError("the stacks have different block counts", worst)
    partners = np.empty(len(a), dtype=int)
    free = np.ones(len(b), dtype=bool)
    for i, row in enumerate(dists <= SPAN_ATOL):
        hits = np.flatnonzero(row & free)
        if len(hits) != 1:
            raise BlockMatchError(f"block {i} matched {len(hits)} partners", worst)
        partners[i] = hits[0]
        free[hits[0]] = False
    return partners, worst


class _ModuleBase:
    """Shared plumbing for left and right modules over a traced algebra.

    What is derived from the algebra, trace and action (faithfulness, GNS
    space, image algebra, spanning generators, synthesis) is computed on
    first use and kept; faithfulness is read off the algebra's blocks.
    """

    side = "?"

    def __init__(
        self, algebra: StarAlgebra, trace: TraceFunctional, images: np.ndarray, check: bool = True
    ):
        images = np.asarray(images, dtype=complex)
        if images.ndim != 3 or images.shape[0] != algebra.dimension:
            raise SpanError("need one action image per algebra basis element")
        if images.shape[1] != images.shape[2]:
            raise SpanError("action images must be square")
        self.algebra = algebra
        self.trace = trace
        self.images = images
        self.space_dim = int(images.shape[1])
        self.images_flat = _vec(images)
        if check:
            self._validate()

    def _validate(self) -> None:
        eye = np.eye(self.space_dim, dtype=complex)
        if np.linalg.norm(self.act(self.algebra.identity()) - eye) > 1e-10 * self.space_dim:
            raise SpanError("identity does not act as the identity")
        # column j holds the coefficients of basis[j]^*, so row j below is its image
        basis = self.algebra.basis
        adj_coeffs = self.algebra.basis_conj @ _vec(basis.conj().transpose(0, 2, 1)).T
        adj_imgs = (adj_coeffs.T @ self.images_flat).reshape(self.images.shape)
        dev = float(np.max(np.abs(adj_imgs - self.images.conj().transpose(0, 2, 1))))
        if dev > 1e-9:
            raise SpanError(f"action does not respect adjoints (dev {dev:.2e})")
        gens = np.array(self.algebra.gen_matrices())
        acts = self.act(gens)[:, None]
        # prods[i, j] acts g_i g_j, which a right action sends to act(g_j) act(g_i)
        prods = self.act(np.matmul(gens[:, None], gens[None]))
        expect = acts @ acts.swapaxes(0, 1) if self.side == "left" else acts.swapaxes(0, 1) @ acts
        worst = float(np.max(np.abs(prods - expect)))
        scale = max(1.0, float(np.max(np.abs(self.images))))
        if worst > 1e-8 * scale * scale:
            raise SpanError(f"action is not {self.side}-multiplicative (dev {worst:.2e})")

    def act(self, mat: np.ndarray) -> np.ndarray:
        """The action of a matrix of the algebra, or of every matrix of a stack."""
        coeffs = _vec(mat) @ self.algebra.basis_conj.T
        return (coeffs @ self.images_flat).reshape(np.shape(mat)[:-2] + self.images.shape[1:])

    @cached_property
    def faithful(self) -> bool:
        """Whether the action has no kernel: the kernel of a *-action is a sum of
        central blocks, so no minimal central projection may act as 0 (rank 0)."""
        projections = self.algebra.central_projections
        return bool(np.all(np.trace(self.act(projections), axis1=1, axis2=2).real > 0.5))

    @cached_property
    def space(self) -> GnsSpace:
        return gns(self.algebra, self.trace)

    @cached_property
    def image_algebra(self) -> StarAlgebra:
        flat = orthonormal_extension(None, self.images_flat)
        h = self.space_dim
        gens = tuple(self.act(g) for g in self.algebra.gen_matrices())
        return StarAlgebra(flat.reshape(-1, h, h), generators=gens)

    @cached_property
    def generators(self) -> list[np.ndarray]:
        """Vectors whose algebra orbits span the space (raises SpanError if none do)."""
        return spanning_generators(self)

    @cached_property
    def synthesis(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, p) of the synthesis map on the spanning generators."""
        return _synthesis(self, self.generators)


class RightModule(_ModuleBase):
    """A right module: the action reverses products."""

    side = "right"


class LeftModule(_ModuleBase):
    """A left module: the action preserves products."""

    side = "left"


def direct_sum(a: _ModuleBase, b: _ModuleBase) -> _ModuleBase:
    if type(a) is not type(b) or a.algebra is not b.algebra or a.trace is not b.trace:
        raise PreconditionError("direct sum needs two modules over the same traced algebra")
    d = a.algebra.dimension
    h = a.space_dim + b.space_dim
    images = np.zeros((d, h, h), dtype=complex)
    images[:, : a.space_dim, : a.space_dim] = a.images
    images[:, a.space_dim :, a.space_dim :] = b.images
    return type(a)(a.algebra, a.trace, images, check=False)


def spanning_generators(module: _ModuleBase) -> list[np.ndarray]:
    """Seeded complex Gaussian vectors, drawn one at a time until their algebra
    orbits span the space.

    Generic vectors need ceil(max cdim) of them, the fewest any spanning set
    has: a module spanned by k vectors is a quotient of A^k. Raises SpanError
    when an orbit adds no new direction, so no draw can loop forever.
    """
    h = module.space_dim
    rng = np.random.default_rng(_SPLIT_SEED)
    chosen: list[np.ndarray] = []
    span_rows = None
    while span_rows is None or span_rows.shape[0] < h:
        g = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        added = orthonormal_extension(span_rows, module.images @ g)
        if added.shape[0] == 0:
            raise SpanError("orbit added no new directions")
        chosen.append(g)
        span_rows = added if span_rows is None else np.vstack([span_rows, added])
    return chosen


def _synthesis(
    module: _ModuleBase, generators: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Polar isometry u and kernel-complement projection p of the synthesis map.

    T = [L_g1 ... L_gk], the row of the generators' bounded operators, sends a
    k-tuple of GNS vectors to the sum of their actions on the generators; u is
    the partial isometry of its polar decomposition, and p = u*u commutes with
    the componentwise module action on the k-fold GNS space. Requires the
    generators to span; bounded_operator raises SpanError on a wrong length.
    """
    synth = np.hstack(bounded_operator(np.array(generators), module))
    u_full, svals, vh = np.linalg.svd(synth, full_matrices=False)
    rank = numerical_rank(svals)
    if rank < module.space_dim:
        raise SpanError(
            f"generators span only {rank} of {module.space_dim} dimensions"
        )
    vr = vh[:rank]
    u = u_full[:, :rank] @ vr
    p = vr.conj().T @ vr
    return u, p


def _decode_multiplier(sp: GnsSpace, block: np.ndarray) -> np.ndarray:
    """Element whose multiplication matrix (either side) is the given block,
    or one element per block of a stack."""
    return sp.unhat(block @ sp.hat_identity())


def _diagonal_block_sum(mat: np.ndarray, d: int) -> np.ndarray:
    """Sum of the d x d diagonal blocks of an operator on a k-fold GNS space."""
    k = mat.shape[0] // d
    return np.einsum("jajb->ab", mat.reshape(k, d, k, d))


def _center_coefficients(values) -> np.ndarray:
    """The coefficients of a center-valued dimension, one per central block, as
    a float array: an imaginary part above 1e-8 or a value below -1e-8 raises
    ValueError, and smaller negatives are clipped to 0."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if values.size and float(np.max(np.abs(values.imag))) > 1e-8:
            raise ValueError("center coefficients must be real")
        values = values.real
    values = np.asarray(values, dtype=float)
    if values.size and float(values.min()) < -1e-8:
        raise ValueError(f"negative center coefficient {values.min():.3e}")
    return np.maximum(values, 0.0)


def cdim(module: _ModuleBase) -> np.ndarray:
    """Center-valued dimension via the compressed-trace formula on a projection,
    as a (blocks,) array: entry i belongs to module.algebra.central_projections[i].

    x decodes the diagonal blocks of p; the coefficient on each minimal
    central projection q is Tr(q x) / Tr(q), which is the coefficient of the
    center-valued trace of x because that expectation preserves Tr and q is
    central.
    """
    if not module.faithful:
        raise FaithfulnessError("module action has a kernel")
    _, p = module.synthesis
    x = _decode_multiplier(module.space, _diagonal_block_sum(p, module.space.dim))
    projections = module.algebra.central_projections
    return _center_coefficients([np.trace(q @ x) / np.trace(q) for q in projections])


def cdim_blockwise(module: _ModuleBase) -> np.ndarray:
    """Independent route, in the same block order as cdim: per central block,
    space rank over algebra-block dimension.

    Both are traces rounded to integers. A projection acts as a projection,
    whose trace is its rank. With K = sum_i b_i^* b_i over the orthonormal
    basis, Tr(K q) = sum_i |b_i q|^2 is the squared HS norm of the
    orthogonal projection b -> b q of the algebra onto the block A q, which
    is the block's dimension d^2.
    """
    projections = module.algebra.central_projections
    space_ranks = np.rint(np.trace(module.act(projections), axis1=1, axis2=2).real)
    # K from the rows of every b_i, stacked, in one product
    rows = module.algebra.basis.reshape(-1, module.algebra.ambient_dim)
    k = rows.conj().T @ rows
    block_dims = np.rint(np.trace(k @ projections, axis1=1, axis2=2).real)
    return _center_coefficients(space_ranks / block_dims)


def bounded_operator(fs: np.ndarray, module: _ModuleBase) -> np.ndarray:
    """Extension of the orbit map of each f in a (T, space_dim) stack to the
    module's GNS space, as a (T, space_dim, algebra dimension) stack.

    Sends the class of an algebra element to its action on f; the operator
    norm is the smallest constant bounding the orbit against the trace norm.
    """
    fs = np.asarray(fs, dtype=complex)
    h, d = module.space_dim, module.algebra.dimension
    if fs.ndim != 2 or fs.shape[1] != h:
        raise SpanError(f"vectors must be a (T, {h}) stack, got shape {fs.shape}")
    # cols[t, a, i] = sum_b images[i, a, b] fs[t, b]: one GEMM for the stack
    cols = fs @ module.images.transpose(2, 1, 0).reshape(h, h * d)
    return cols.reshape(-1, h, d) @ module.space.chol_upper_inv


def induced_trace_evaluator(module: _ModuleBase) -> Callable[[np.ndarray], complex]:
    """Trace on the commutant of the action, as a plain evaluator.

    Transports the algebra trace tensored with the matrix trace through the
    polar isometry of the module's synthesis map. Only meaningful on
    operators commuting with the action. A stack of operators gives an
    array of values.
    """
    u, _ = module.synthesis
    sp = module.space
    # u = [u_1 ... u_k] in blocks of d columns: the diagonal blocks of u^* op u
    # sum to sum_j u_j^* op u_j, one contraction over the rows of every u_j
    blocks_h = u.reshape(-1, sp.dim).conj().T

    def evaluate(op: np.ndarray):
        moved = (np.asarray(op, dtype=complex) @ u).reshape(np.shape(op)[:-2] + (-1, sp.dim))
        return module.trace(_decode_multiplier(sp, blocks_h @ moved))

    return evaluate


def induced_trace(module: _ModuleBase, algebra: StarAlgebra) -> TraceFunctional:
    """The induced trace as a functional on an algebra inside the commutant,
    evaluated on _CHUNK basis elements at a time."""
    evaluate = induced_trace_evaluator(module)
    basis = algebra.basis
    values = [evaluate(basis[s : s + _CHUNK]) for s in range(0, basis.shape[0], _CHUNK)]
    return TraceFunctional(algebra, np.concatenate(values))


def gns_right_module(space: GnsSpace, sub: StarAlgebra) -> RightModule:
    """The GNS space of an algebra as a right module over a subalgebra, traced
    by the restriction of the algebra's trace."""
    sub_trace = TraceFunctional(sub, space.trace(sub.basis))
    return RightModule(sub, sub_trace, space.right(sub.basis))


def jones_projection(sp: GnsSpace, sub: StarAlgebra) -> np.ndarray:
    """Projection of an algebra's GNS space onto the subalgebra's copy."""
    if not sp.algebra.contains(sub.basis):
        raise InclusionError("subalgebra is not contained in the big algebra")
    hats = np.column_stack([sp.hat(m) for m in sub.basis])
    q, r = np.linalg.qr(hats)
    diag = np.abs(np.diag(r))
    if diag.size and diag.min() <= 1e-10 * max(diag.max(), 1e-300):
        raise FaithfulnessError("trace degenerates on the subalgebra")
    return q @ q.conj().T


@dataclass
class BasicConstruction:
    """Everything the basic construction produces, bundled for reuse."""

    big: StarAlgebra
    sub: StarAlgebra
    trace: TraceFunctional
    space: GnsSpace
    jones: np.ndarray
    algebra: StarAlgebra               # generated by the left action and the Jones projection
    left_image: StarAlgebra            # the left-action copy of the big algebra
    module: RightModule                # the GNS space as a right module over the subalgebra
    induced: TraceFunctional           # induced trace on the generated algebra
    expect_onto_big: ConditionalExpectation
    dim_value: np.ndarray              # cdim of the GNS space over the subalgebra
    weight: np.ndarray                 # sum_i dim_value[i] P_i over sub's central projections
    commutant_defect: float            # span deviation against the right-action commutant
    centers_match: bool                # pair_blocks pairs sub's and big's central projections

    def decode_left(self, op: np.ndarray) -> np.ndarray:
        """Recover n from its left multiplication matrix (or each n of a stack)."""
        return _decode_multiplier(self.space, op)

    def encode_left(self, mat: np.ndarray) -> np.ndarray:
        return self.space.left(mat)


def basic_construction(
    big: StarAlgebra, sub: StarAlgebra, trace: TraceFunctional
) -> BasicConstruction:
    """Algebra generated by the left action and the Jones projection.

    Also verifies that it coincides with the commutant of the right action
    of the subalgebra, carries the induced trace over, and prepares the
    trace-preserving expectation used by the push-down map. The centers
    match when pair_blocks pairs the minimal central projections of sub and
    big, which share one space.
    """
    sp = gns(big, trace)
    e = jones_projection(sp, sub)
    left_gens = [sp.left(g) for g in big.gen_matrices()]
    algebra = generate_algebra(list(left_gens) + [e])

    d = big.dimension
    left_flat = orthonormal_extension(None, _vec(sp.left(big.basis)))
    left_image = StarAlgebra(left_flat.reshape(-1, d, d), generators=tuple(left_gens))

    module = gns_right_module(sp, sub)

    _, defect = span_equal(algebra, commutant(module.image_algebra))

    induced = induced_trace(module, algebra)
    expect = ConditionalExpectation(algebra, left_image, induced)
    dim_value = cdim(module)
    weight = np.einsum("i,iab->ab", dim_value, sub.central_projections)
    centers_ok = True
    try:
        pair_blocks(sub.central_projections, big.central_projections)
    except BlockMatchError:
        centers_ok = False

    return BasicConstruction(
        big=big,
        sub=sub,
        trace=trace,
        space=sp,
        jones=e,
        algebra=algebra,
        left_image=left_image,
        module=module,
        induced=induced,
        expect_onto_big=expect,
        dim_value=dim_value,
        weight=weight,
        commutant_defect=defect,
        centers_match=centers_ok,
    )


def push_down(op: np.ndarray, ctx: BasicConstruction) -> np.ndarray:
    """The unique n with op * e = n * e, by the weighted-expectation formula;
    a stack of operators gives the stack of their n."""
    if not ctx.centers_match:
        raise PreconditionError("push-down needs matching centers")
    if ctx.dim_value.size == 0 or ctx.dim_value.min() <= 0:
        raise PreconditionError("push-down needs strictly positive dimension coefficients")
    compressed = ctx.expect_onto_big(np.asarray(op, dtype=complex) @ ctx.jones)
    raw = ctx.decode_left(compressed)
    return ctx.weight @ raw


def jones_sandwich_span(ctx: BasicConstruction) -> StarAlgebra:
    """Orthonormalized span of (left action) * jones * (left action), built in
    real arithmetic when the left-image basis and jones have exactly zero
    imaginary part; the basis is stored complex either way."""
    imgs, jones = _real_if_exact(ctx.left_image.basis, ctx.jones)
    d = ctx.space.dim
    # one block of products a e b per left element a, so the d^2 x d^2
    # candidate stack never exists
    flat = orthonormal_extension(None, (((a @ jones) @ imgs).reshape(-1, d * d) for a in imgs))
    return StarAlgebra(flat.reshape(-1, d, d))
