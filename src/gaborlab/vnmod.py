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
    SpanError,
    StarAlgebra,
    TraceFunctional,
    _vec,
    center,
    commutant,
    generate_algebra,
    gns,
    minimal_central_projections,
    numerical_rank,
    orthonormal_extension,
    span_equal,
)


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class CenterElement:
    """A center element stored as coefficients on minimal central projections."""

    def __init__(self, projections: Sequence[np.ndarray], coefficients):
        self.projections = [np.asarray(p, dtype=complex) for p in projections]
        coeffs = np.asarray(coefficients)
        if np.iscomplexobj(coeffs):
            if coeffs.size and float(np.max(np.abs(coeffs.imag))) > 1e-8:
                raise ValueError("center coefficients must be real")
            coeffs = coeffs.real
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.projections),):
            raise ValueError("need one coefficient per projection")
        if coeffs.size and float(coeffs.min()) < -1e-8:
            raise ValueError(f"negative center coefficient {coeffs.min():.3e}")
        self.coefficients = np.maximum(coeffs, 0.0)

    @property
    def matrix(self) -> np.ndarray:
        return np.einsum("i,iab->ab", self.coefficients, np.array(self.projections))

    def sup_norm(self) -> float:
        return float(np.max(self.coefficients)) if self.coefficients.size else 0.0

    def max_dev_from_scalar(self, value: float) -> float:
        return float(np.max(np.abs(self.coefficients - value)))

    def __repr__(self) -> str:
        vals = ", ".join(f"{c:.6g}" for c in self.coefficients)
        return f"CenterElement([{vals}])"


def pair_blocks(
    a: CenterElement,
    b: CenterElement,
    embed_a: Callable[[np.ndarray], np.ndarray] | None = None,
    embed_b: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[tuple[int, int]]:
    """Match the blocks of two center elements, optionally through embeddings.

    The embeddings map each side's projections into a common space (an
    identity map by default). Every block must match exactly one partner,
    within 1e-6 relative to the projection's norm.
    """
    if len(a.projections) != len(b.projections):
        raise ValueError("center elements have different block counts")
    imga = [embed_a(p) if embed_a else p for p in a.projections]
    imgb = [embed_b(p) if embed_b else p for p in b.projections]
    pairs = []
    used = set()
    for i, p in enumerate(imga):
        hits = [
            j
            for j, q in enumerate(imgb)
            if j not in used and np.linalg.norm(p - q) <= 1e-6 * max(1.0, float(np.linalg.norm(p)))
        ]
        if len(hits) != 1:
            raise ValueError(f"block {i} matched {len(hits)} partners")
        pairs.append((i, hits[0]))
        used.add(hits[0])
    return pairs


def blockwise_product(
    a: CenterElement,
    b: CenterElement,
    embed_a=None,
    embed_b=None,
) -> CenterElement:
    """Componentwise product on matched blocks, expressed on a's projections."""
    pairs = pair_blocks(a, b, embed_a, embed_b)
    coeffs = np.empty(len(pairs))
    for i, j in pairs:
        coeffs[i] = a.coefficients[i] * b.coefficients[j]
    return CenterElement(a.projections, coeffs)


def blockwise_deviation(a: CenterElement, b: CenterElement, embed_a=None, embed_b=None) -> float:
    pairs = pair_blocks(a, b, embed_a, embed_b)
    return float(max(abs(a.coefficients[i] - b.coefficients[j]) for i, j in pairs))


class _ModuleBase:
    """Shared plumbing for left and right modules over a traced algebra.

    What is derived from the algebra, trace and action (GNS space, image
    algebra, central projections, spanning generators, synthesis) is
    computed on first use and kept.
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
        svals = np.linalg.svd(self.images_flat, compute_uv=False)
        self.faithful = numerical_rank(svals) == algebra.dimension
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
        gens = self.algebra.gen_matrices()
        worst = 0.0
        for g1 in gens:
            a1 = self.act(g1)
            for g2 in gens:
                a2 = self.act(g2)
                prod = self.act(g1 @ g2)
                expect = a1 @ a2 if self.side == "left" else a2 @ a1
                worst = max(worst, float(np.max(np.abs(prod - expect))))
        scale = max(1.0, float(np.max(np.abs(self.images))))
        if worst > 1e-8 * scale * scale:
            raise SpanError(f"action is not {self.side}-multiplicative (dev {worst:.2e})")

    def act(self, mat: np.ndarray) -> np.ndarray:
        c = self.algebra.coeffs(mat)
        return np.einsum("i,iab->ab", c, self.images)

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
    def central_projections(self) -> list[np.ndarray]:
        return minimal_central_projections(self.algebra)

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
    """Greedy canonical-basis vectors until the algebra orbit spans the space."""
    h = module.space_dim
    eye = np.eye(h, dtype=complex)
    chosen: list[np.ndarray] = []
    span_rows = np.zeros((0, h), dtype=complex)
    while span_rows.shape[0] < h:
        if span_rows.shape[0]:
            resid = eye - (eye @ span_rows.conj().T) @ span_rows
        else:
            resid = eye
        norms = np.linalg.norm(resid, axis=1)
        pick = int(np.argmax(norms))
        if norms[pick] <= 1e-12:
            raise SpanError("module vectors cannot span the space")
        g = eye[pick].copy()
        chosen.append(g)
        orbit = np.einsum("iab,b->ia", module.images, g)
        added = orthonormal_extension(span_rows if span_rows.size else None, orbit)
        if added.shape[0] == 0:
            raise SpanError("orbit added no new directions")
        span_rows = np.vstack([span_rows, added]) if span_rows.size else added
    return chosen


def _synthesis(
    module: _ModuleBase, generators: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Polar isometry u and kernel-complement projection p of the synthesis map.

    T sends a k-tuple of GNS vectors to the sum of their actions on the
    generators; u is the partial isometry of its polar decomposition, and
    p = u*u commutes with the componentwise module action on the k-fold
    GNS space. Requires the generators to span.
    """
    gens = [np.asarray(g, dtype=complex).reshape(-1) for g in generators]
    if not gens:
        raise SpanError("need at least one module generator")
    sp = module.space
    cols = []
    for g in gens:
        if g.shape[0] != module.space_dim:
            raise SpanError("generator has the wrong length")
        orbit = np.einsum("iab,b->ai", module.images, g)
        cols.append(orbit @ sp.chol_upper_inv)
    synth = np.hstack(cols)
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


def cdim(module: _ModuleBase) -> CenterElement:
    """Center-valued dimension via the compressed-trace formula on a projection.

    x decodes the diagonal blocks of p; the coefficient on each minimal
    central projection q is Tr(q x) / Tr(q), which is the coefficient of the
    center-valued trace of x because that expectation preserves Tr and q is
    central.
    """
    if not module.faithful:
        raise FaithfulnessError("module action has a kernel")
    _, p = module.synthesis
    x = _decode_multiplier(module.space, _diagonal_block_sum(p, module.space.dim))
    projections = module.central_projections
    coeffs = [(np.trace(q @ x) / np.trace(q)).real for q in projections]
    return CenterElement(projections, coeffs)


def cdim_blockwise(module: _ModuleBase) -> CenterElement:
    """Independent route: per central block, space rank over algebra-block dimension."""
    projections = module.central_projections
    coeffs = []
    for q in projections:
        compression = module.act(q)
        space_rank = int(round(float(np.trace(compression).real)))
        cut = module.algebra.basis @ q
        block_dim = numerical_rank(np.linalg.svd(_vec(cut), compute_uv=False))
        coeffs.append(space_rank / block_dim)
    return CenterElement(projections, coeffs)


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
    """The induced trace as a functional on an algebra inside the commutant."""
    return TraceFunctional(algebra, induced_trace_evaluator(module)(algebra.basis))


def gns_right_module(space: GnsSpace, sub: StarAlgebra) -> RightModule:
    """The GNS space of an algebra as a right module over a subalgebra, traced
    by the restriction of the algebra's trace."""
    sub_trace = TraceFunctional(sub, space.trace(sub.basis))
    return RightModule(sub, sub_trace, space.right(sub.basis))


def jones_projection(
    big: StarAlgebra, sub: StarAlgebra, trace: TraceFunctional
) -> np.ndarray:
    """Projection of the big algebra's GNS space onto the subalgebra's copy."""
    if not big.contains(sub.basis):
        raise InclusionError("subalgebra is not contained in the big algebra")
    sp = gns(big, trace)
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
    dim_value: CenterElement           # cdim of the GNS space over the subalgebra
    commutant_defect: float            # span deviation against the right-action commutant
    centers_match: bool

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
    trace-preserving expectation used by the push-down map.
    """
    e = jones_projection(big, sub, trace)
    sp = gns(big, trace)
    left_gens = [sp.left(g) for g in big.gen_matrices()]
    algebra = generate_algebra(list(left_gens) + [e])

    d = big.dimension
    left_flat = orthonormal_extension(None, _vec(sp.left(big.basis)))
    left_image = StarAlgebra(left_flat.reshape(-1, d, d), generators=tuple(left_gens))

    module = gns_right_module(sp, sub)

    rc = commutant(module.image_algebra)
    _, defect = span_equal(algebra, rc)

    induced = induced_trace(module, algebra)
    expect = ConditionalExpectation(algebra, left_image, induced)
    dim_value = cdim(module)
    centers_ok, _ = span_equal(center(sub), center(big))

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
        commutant_defect=defect,
        centers_match=centers_ok,
    )


def push_down(op: np.ndarray, ctx: BasicConstruction) -> np.ndarray:
    """The unique n with op * e = n * e, by the weighted-expectation formula;
    a stack of operators gives the stack of their n."""
    if not ctx.centers_match:
        raise PreconditionError("push-down needs matching centers")
    if ctx.dim_value.coefficients.size == 0 or ctx.dim_value.coefficients.min() <= 0:
        raise PreconditionError("push-down needs strictly positive dimension coefficients")
    compressed = ctx.expect_onto_big(np.asarray(op, dtype=complex) @ ctx.jones)
    raw = ctx.decode_left(compressed)
    return ctx.dim_value.matrix @ raw


def jones_sandwich_span(ctx: BasicConstruction) -> StarAlgebra:
    """Orthonormalized span of (left action) * jones * (left action)."""
    imgs = ctx.left_image.basis
    halves = np.matmul(imgs, ctx.jones)
    cands = np.matmul(halves[:, None], imgs[None])
    d = ctx.space.dim
    flat = orthonormal_extension(None, _vec(cands.reshape(-1, d, d)))
    return StarAlgebra(flat.reshape(-1, d, d))
