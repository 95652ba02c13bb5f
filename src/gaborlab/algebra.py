"""Finite-dimensional *-algebra engine on complex matrices.

Algebras are always concrete: a unital self-adjoint subspace of n x n
matrices closed under products, carried by a Hilbert-Schmidt orthonormal
basis. Ultraweak closure questions degenerate to exact span equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .gabor import shift_stack
from .groups import Lattice

# singular values, residuals and block norms below RANK_RTOL x scale count as zero
RANK_RTOL = 1e-10
SPAN_ATOL = 1e-10
# the engine's one fixed seed for generic draws: the random self-adjoint
# elements whose spectra split an algebra, and the vectors that span a module
_SPLIT_SEED = 0x5EED
# candidates that orthonormal_extension projects with one GEMM
_CHUNK = 32


class SpanError(ValueError):
    """A span-level invariant failed (missing identity, wrong closure...)."""


class InclusionError(ValueError):
    """An expected subalgebra containment does not hold."""


class FaithfulnessError(ValueError):
    """A functional or action that must be faithful is degenerate."""


class SpectralSplitError(RuntimeError):
    """Random elements kept failing to split the algebra into its central blocks."""


def _vec(mats: np.ndarray) -> np.ndarray:
    mats = np.asarray(mats, dtype=complex)
    return mats.reshape(mats.shape[:-2] + (mats.shape[-1] * mats.shape[-2],))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a real or complex matrix, as one real
    dot product per row over its float64 view (np.linalg.norm would square a
    full copy first)."""
    flat = np.ascontiguousarray(rows).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _project_off(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """w minus its projection onto the orthonormal rows. The coefficients
    w rows^H are computed as conj(conj(w) rows^T), which is exact, so no
    conjugated copy of the rows is ever made."""
    return w - (w.conj() @ rows.T).conj() @ rows


def _real_if_exact(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays as contiguous float64 if all have exactly zero imaginary
    part, else as given: a real GEMM costs about a quarter of the
    floating-point operations of a complex one."""
    if any(np.any(np.imag(a)) for a in arrays):
        return arrays
    return tuple(np.ascontiguousarray(np.real(a)) for a in arrays)


def _prefiltered_chunks(basis_flat: np.ndarray | None, blocks: Iterable[np.ndarray]):
    """The candidates of the blocks that the pre-filter keeps, with their
    scales, in chunks of _CHUNK rows whatever the block edges; the last chunk
    holds the rest, and is empty if nothing is left.

    The pre-filter drops each block's candidates already in the span of the
    basis as the block arrives; its residuals are the first pass against the
    basis. Only the rest of a chunk is carried from one block to the next.
    """
    carry = None
    for block in blocks:
        cands = np.asarray(block, dtype=complex if np.iscomplexobj(block) else float)
        if cands.size == 0:
            continue
        norms = _row_norms(cands)
        scales = np.maximum(norms, 1.0)
        if basis_flat is not None and basis_flat.shape[0]:
            resid = _project_off(cands, basis_flat)
            norms = _row_norms(resid)
        else:
            resid = cands
        keep = norms > (RANK_RTOL / 4.0) * scales
        resid, scales = resid[keep], scales[keep]
        if carry is not None:
            resid, scales = np.concatenate([carry[0], resid]), np.concatenate([carry[1], scales])
        whole = resid.shape[0] - resid.shape[0] % _CHUNK
        for start in range(0, whole, _CHUNK):
            yield resid[start : start + _CHUNK], scales[start : start + _CHUNK]
        carry = resid[whole:], scales[whole:]
    if carry is not None:
        yield carry


def orthonormal_extension(
    basis_flat: np.ndarray | None, candidates: np.ndarray | Iterable[np.ndarray]
) -> np.ndarray:
    """Rows to append to an orthonormal row basis to cover the candidates:
    one (count, n) array, or an iterable of such blocks, consumed once.

    The candidates left by a batched pre-filter go through block
    Gram-Schmidt with one re-orthogonalisation pass (CGS2, "twice is
    enough"), _CHUNK at a time, in the same chunks whatever the block edges.
    One GEMM projects each chunk off the rows accepted so far, and the
    candidates it leaves within RANK_RTOL / 4 x scale, the pre-filter's rule,
    are dropped there; only the survivors are projected off the basis and
    those rows again, the rows left in the span are dropped, and the rest go
    through the row-wise pass against the rows accepted inside the chunk.
    The rows keep the candidates' dtype: float64 candidates give float64
    rows (a complex basis or block makes them complex). The accepted-row
    buffer grows with the rows accepted, up to the dimension left free; once
    the span fills the space no further block is drawn. Deterministic given
    the input order.
    """
    have = 0 if basis_flat is None else basis_flat.shape[0]
    rows = np.empty((0, 0 if basis_flat is None else basis_flat.shape[1]), dtype=complex)
    k = 0
    blocks = [candidates] if isinstance(candidates, np.ndarray) else candidates
    for w, chunk_scales in _prefiltered_chunks(basis_flat, blocks):
        width = w.shape[1]
        free = width - have
        if not k:
            # with no basis, the candidates set the row width and dtype
            rows = np.empty((0, width), dtype=w.dtype)
        if k and w.shape[0]:
            # one projection decides: what it leaves in the span goes, by the pre-filter's rule
            w = _project_off(w, rows[:k])
            keep = _row_norms(w) > (RANK_RTOL / 4.0) * chunk_scales
            w, chunk_scales = w[keep], chunk_scales[keep]
        if w.shape[0] and (k or have):
            if have:
                w = _project_off(w, basis_flat)
            if k:
                w = _project_off(w, rows[:k])
            live = _row_norms(w) > RANK_RTOL * chunk_scales
            w, chunk_scales = w[live], chunk_scales[live]
        dtype = np.result_type(rows, w)
        if k + w.shape[0] > rows.shape[0] or dtype != rows.dtype:
            # room for the whole chunk, doubling at least, never past the free dimension
            size = min(max(k + w.shape[0], 2 * rows.shape[0]), free)
            grown = np.empty((size, width), dtype=dtype)
            grown[:k] = rows[:k]
            rows = grown
        first = k
        # the rows this chunk accepts, conjugated, for the row-wise pass
        fresh_conj = np.empty_like(w)
        for v, scale in zip(w, chunk_scales):
            if k == free:
                break
            if k > first:
                for _ in range(2):
                    v = v - rows[first:k].T @ (fresh_conj[: k - first] @ v)
            nrm = np.linalg.norm(v)
            if nrm > RANK_RTOL * scale:
                rows[k] = v / nrm
                fresh_conj[k - first] = rows[k].conj()
                k += 1
        if k == free:
            # the span fills the space: draw no further block
            break
    return rows[:k].copy()


class StarAlgebra:
    """A unital self-adjoint matrix algebra with an HS-orthonormal basis."""

    def __init__(self, basis: np.ndarray, generators: Sequence[np.ndarray] | None = None):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise SpanError(f"basis must be a stack of square matrices, got {basis.shape}")
        self.basis = basis
        self.ambient_dim = int(basis.shape[1])
        self.basis_flat = _vec(basis)
        self.basis_conj = self.basis_flat.conj()
        self.generators = None if generators is None else tuple(
            np.asarray(g, dtype=complex) for g in generators
        )
        gram = self.basis_conj @ self.basis_flat.T
        if not np.allclose(gram, np.eye(self.dimension), atol=1e-8):
            raise SpanError("basis is not Hilbert-Schmidt orthonormal")
        # modules test their actions on the recorded generators, as elements of the span
        if not self.contains(np.array((self.identity(),) + (self.generators or ()))):
            raise SpanError("the identity or a recorded generator is not in the span")

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[0])

    def coeffs(self, mat: np.ndarray) -> np.ndarray:
        return self.basis_conj @ np.asarray(mat, dtype=complex).reshape(-1)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        """The element with these coefficients, or one per row of a (..., dim) stack."""
        coeffs = np.asarray(coeffs, dtype=complex)
        n = self.ambient_dim
        return (coeffs @ self.basis_flat).reshape(coeffs.shape[:-1] + (n, n))

    def residuals(self, mats: np.ndarray) -> np.ndarray:
        """Distance of each matrix of a stack to the span: one GEMM for all."""
        flat = _vec(mats)
        return np.linalg.norm(flat - (flat @ self.basis_conj.T) @ self.basis_flat, axis=-1)

    def contains(self, mats: np.ndarray) -> bool:
        """Whether a matrix, or every matrix of a stack, lies in the span."""
        scales = np.maximum(1.0, np.linalg.norm(_vec(mats), axis=-1))
        return bool(np.all(self.residuals(mats) <= SPAN_ATOL * scales))

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)

    def gen_matrices(self) -> tuple[np.ndarray, ...]:
        """Generators if recorded, else the whole basis."""
        if self.generators is not None and len(self.generators):
            return self.generators
        return tuple(self.basis)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The algebra as a direct sum of M_d (x) I_m: one read-only (d, n, m)
        stack of isometries W_1..W_d per central block, split once per algebra.

        W_k maps C^m onto the range of the block's k-th minimal projection, and
        the W_k are matched so that sum_k W_k X W_k^* is I_d (x) X. The ranges
        are the eigenvalue clusters of a generic self-adjoint element a. In a's
        eigenbasis a second generic element b is 0 between the clusters of two
        central blocks and c U, U unitary, between two clusters of one block; the
        one rank decision is which of these blocks are linked (above RANK_RTOL
        x |b|). A cluster that merged two ranges leaves a linked block that is
        not a multiple of a unitary, and the split is drawn again.
        """
        rng = np.random.default_rng(_SPLIT_SEED)
        for _ in range(5):
            evecs, cuts = _generic_eigenbasis(self.basis, rng)
            b = self.reconstruct(rng.standard_normal(self.dimension) + 1j * rng.standard_normal(self.dimension))
            rot = evecs.conj().T @ b @ evecs
            starts, sizes = cuts[:-1], np.diff(cuts)
            weight = np.add.reduceat(np.add.reduceat(np.abs(rot) ** 2, starts, axis=0), starts, axis=1)
            linked = np.sqrt(weight) > RANK_RTOL * np.linalg.norm(b)
            # each cluster's first linked cluster; the links must group the clusters
            roots = linked.argmax(axis=0)
            if not np.array_equal(linked, roots[:, None] == roots[None, :]):
                continue
            stacks = []
            for root in np.flatnonzero(roots == np.arange(roots.size)):
                members = np.flatnonzero(roots == root)
                d, m = members.size, int(sizes[root])
                if np.any(sizes[members] != m):
                    break
                cols = np.concatenate([np.arange(cuts[k], cuts[k + 1]) for k in members])
                pairs = rot[np.ix_(cols, cols)].reshape(d, m, d, m).transpose(0, 2, 1, 3)
                units = pairs * (np.sqrt(m) / np.linalg.norm(pairs, axis=(2, 3)))[..., None, None]
                defect = np.matmul(units, units.conj().transpose(0, 1, 3, 2)) - np.eye(m)
                if np.max(np.abs(defect)) > 1e-8:
                    break
                ranges = evecs[:, cols].reshape(-1, d, m).transpose(1, 0, 2)
                stacks.append(np.matmul(ranges, units[:, 0]))
            else:
                for w in stacks:
                    w.flags.writeable = False
                return tuple(stacks)
        raise SpectralSplitError("could not split the algebra into its central blocks after 5 random draws")

    @cached_property
    def central_projections(self) -> np.ndarray:
        """minimal_central_projections of this algebra, computed once and kept
        as one read-only (blocks, n, n) stack, shared by every reader."""
        projections = minimal_central_projections(self)
        projections.flags.writeable = False
        return projections


def generate_algebra(gens: Iterable[np.ndarray]) -> StarAlgebra:
    """Smallest unital self-adjoint algebra containing the generators.

    The closure multiplies by each g, and by g* where it differs exactly from
    g, in real arithmetic when no generator has a nonzero imaginary part; the
    basis is stored complex either way."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise SpanError("need at least one generator")
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise SpanError("generators must be square matrices of equal size")
    work = _real_if_exact(*gens)
    closed_gens = []
    for g in work:
        closed_gens.append(g)
        if not np.array_equal(g.conj().T, g):
            closed_gens.append(g.conj().T)
    seeds = np.array([np.eye(n, dtype=work[0].dtype)] + closed_gens)
    basis_flat = orthonormal_extension(None, seeds.reshape(-1, n * n))
    gen_arr = np.array(closed_gens)[None]
    # frontier rows per block of products: a block holds about _CHUNK products
    step = max(1, _CHUNK // len(closed_gens))
    frontier = basis_flat
    while True:
        # one-sided products reach every word since the identity is present;
        # the older rows' products were candidates in an earlier round, so
        # they already lie in the span and only the rows added last round
        # need multiplying, one block at a time
        blocks = (
            np.matmul(frontier[s : s + step].reshape(-1, 1, n, n), gen_arr).reshape(-1, n * n)
            for s in range(0, frontier.shape[0], step)
        )
        frontier = orthonormal_extension(basis_flat, blocks)
        if frontier.shape[0] == 0:
            break
        basis_flat = np.vstack([basis_flat, frontier])
    return StarAlgebra(basis_flat.reshape(-1, n, n), generators=tuple(gens))


def numerical_rank(svals: np.ndarray) -> int:
    """Singular values above RANK_RTOL x the largest one."""
    floor = float(svals[0]) if svals.size else 0.0
    return int(np.sum(svals > RANK_RTOL * floor)) if floor > 0 else 0


def matrix_units(w: np.ndarray) -> np.ndarray:
    """The matrix units W_a W_b^* of one block M_d (x) I_m, in (a, b) order,
    from its (d, n, m) stack of isometries W_1..W_d."""
    n = w.shape[1]
    return np.matmul(w[:, None], w.conj().transpose(0, 2, 1)[None]).reshape(-1, n, n)


def commutant(alg: StarAlgebra) -> StarAlgebra:
    """Everything commuting with the algebra. The commutant of M_d (x) I_m is
    I_d (x) M_m: the same isometries with d and m swapped, whose units
    sum_k W_k E_pq W_k^* / sqrt(d) are HS-orthonormal by construction."""
    blocks = [matrix_units(w.transpose(2, 1, 0)) / np.sqrt(w.shape[0]) for w in alg.blocks]
    return StarAlgebra(np.concatenate(blocks))


def center(alg: StarAlgebra) -> StarAlgebra:
    """The center: the minimal central projections, each of unit HS norm."""
    return StarAlgebra(np.array([p / np.linalg.norm(p) for p in alg.central_projections]))


def span_equal(a: StarAlgebra, b: StarAlgebra, atol: float = SPAN_ATOL) -> tuple[bool, float]:
    """Mutual containment of two spans; returns (equal, worst residual).

    The coefficients of a's rows in b are the conjugate transpose of those of
    b's rows in a, so one cross product serves both directions."""
    cross = a.basis_flat @ b.basis_conj.T
    in_b = np.linalg.norm(a.basis_flat - cross @ b.basis_flat, axis=-1)
    in_a = np.linalg.norm(b.basis_flat - cross.conj().T @ a.basis_flat, axis=-1)
    worst = max(float(np.max(in_b)), float(np.max(in_a)))
    return (a.dimension == b.dimension and worst <= atol, worst)


def _cluster_cuts(evals: np.ndarray) -> list[int]:
    """Boundaries of the clusters of an ascending spectrum: a gap larger than
    1e-6 x max(spread, 1) starts a new cluster. Returns [0, ..., evals.size]."""
    spread = max(float(evals[-1] - evals[0]), 1.0)
    starts = np.flatnonzero(np.diff(evals) > 1e-6 * spread) + 1
    return [0] + starts.tolist() + [int(evals.size)]


def _generic_eigenbasis(basis: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """Eigenvectors of a random self-adjoint element of span(basis), and the
    cuts between its eigenvalue clusters.

    The element is a Gaussian real combination of the Hermitian and the
    skew-Hermitian parts of the basis, so it is generic in the self-adjoint
    part of a *-closed span.
    """
    herm = (basis + basis.conj().transpose(0, 2, 1)) / 2.0
    skew = (basis - basis.conj().transpose(0, 2, 1)) / 2j
    re = rng.standard_normal(basis.shape[0])
    im = rng.standard_normal(basis.shape[0])
    elem = np.einsum("i,iab->ab", re, herm) + np.einsum("i,iab->ab", im, skew)
    evals, evecs = np.linalg.eigh(elem)
    return evecs, _cluster_cuts(evals)


def minimal_central_projections(alg: StarAlgebra) -> np.ndarray:
    """Mutually orthogonal central projections summing to 1, one per block, as
    one (blocks, n, n) stack in the order of alg.blocks: the i-th is
    P = sum_k W_k W_k^* over blocks[i]. Blocks are paired across algebras by
    content (vnmod.pair_blocks), so no canonical order is needed."""
    cols = [w.transpose(1, 0, 2).reshape(w.shape[1], -1) for w in alg.blocks]
    return np.array([c @ c.conj().T for c in cols])


class TraceFunctional:
    """A positive faithful trace, stored by its values on the algebra basis."""

    def __init__(self, algebra: StarAlgebra, values: np.ndarray, check: bool = True):
        self.algebra = algebra
        self.values = np.asarray(values, dtype=complex).reshape(-1)
        if self.values.shape[0] != algebra.dimension:
            raise SpanError("trace needs one value per basis element")
        # Riesz matrix: trace(X) = Tr(riesz @ X) for X in the span
        self.riesz = np.einsum("i,iab->ba", self.values, algebra.basis.conj())
        self.gram = self.gram_matrix(algebra.basis)
        if check:
            # both gates are relative to the trace's own scale, the top of its Gram
            evals = np.linalg.eigvalsh((self.gram + self.gram.conj().T) / 2.0)
            scale = max(float(np.abs(evals).max()), 1e-300)
            dev = self.traciality_defect()
            if dev > 1e-10 * scale:
                raise SpanError(f"functional is not tracial on the algebra ({dev:.2e})")
            if evals[0] <= 1e-10 * max(float(evals[-1]), 1e-300):
                raise FaithfulnessError(
                    f"trace Gram matrix is not positive definite (min eig {evals[0]:.2e})"
                )

    def gram_matrix(self, mats: np.ndarray) -> np.ndarray:
        """K[i, j] = trace(m_i^* m_j) over a stack, from one stacked product."""
        left = np.matmul(self.riesz, mats.conj().transpose(0, 2, 1))   # T m_i^*
        # the trace pairing needs m_j^T
        return _vec(left) @ _vec(mats.transpose(0, 2, 1)).T

    def traciality_defect(self) -> float:
        basis = self.algebra.basis
        comm = np.matmul(self.riesz, basis) - np.matmul(basis, self.riesz)
        pair = _vec(comm) @ _vec(basis.transpose(0, 2, 1)).T
        return float(np.max(np.abs(pair)))

    def __call__(self, mat: np.ndarray):
        """The trace of a matrix, or an array of traces of a stack."""
        return _vec(np.swapaxes(mat, -1, -2)) @ self.riesz.reshape(-1)

    @classmethod
    def from_matrix_trace(cls, algebra: StarAlgebra) -> "TraceFunctional":
        vals = np.trace(algebra.basis, axis1=1, axis2=2)
        return cls(algebra, vals)


@dataclass
class GnsSpace:
    """Coordinates for L2(N, trace) with left/right actions."""

    algebra: StarAlgebra
    trace: TraceFunctional
    chol_upper: np.ndarray       # K = L L^H stored as upper factor L^H
    chol_upper_inv: np.ndarray

    @property
    def dim(self) -> int:
        return self.algebra.dimension

    def hat(self, mat: np.ndarray) -> np.ndarray:
        return self.chol_upper @ self.algebra.coeffs(mat)

    def unhat(self, vec: np.ndarray) -> np.ndarray:
        """The element with these hat coordinates, or one per row of a stack."""
        return self.algebra.reconstruct(np.asarray(vec, dtype=complex) @ self.chol_upper_inv.T)

    def hat_identity(self) -> np.ndarray:
        return self.hat(self.algebra.identity())

    def _mult_matrix(self, prods: np.ndarray) -> np.ndarray:
        # prods[..., j] is the product with basis j; its coefficients form column j
        coeff_cols = np.swapaxes(_vec(prods) @ self.algebra.basis_conj.T, -1, -2)
        return self.chol_upper @ coeff_cols @ self.chol_upper_inv

    def left(self, mat: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by mat in hat coordinates; a stack of
        matrices gives a stack of multiplication matrices."""
        mat = np.asarray(mat, dtype=complex)
        return self._mult_matrix(np.matmul(mat[..., None, :, :], self.algebra.basis))

    def right(self, mat: np.ndarray) -> np.ndarray:
        """Matrix of right multiplication by mat in hat coordinates, stacked like left."""
        mat = np.asarray(mat, dtype=complex)
        return self._mult_matrix(np.matmul(self.algebra.basis, mat[..., None, :, :]))


def gns(algebra: StarAlgebra, trace: TraceFunctional) -> GnsSpace:
    """GNS coordinates via Cholesky of the trace Gram matrix."""
    if trace.algebra is not algebra:
        if not np.array_equal(trace.algebra.basis, algebra.basis):
            raise SpanError("the trace is stored against another algebra's basis")
        trace = TraceFunctional(algebra, trace.values, check=False)
    gram = (trace.gram + trace.gram.conj().T) / 2.0
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise FaithfulnessError("trace Gram matrix is not positive definite") from exc
    upper = lower.conj().T
    return GnsSpace(algebra, trace, upper, np.linalg.inv(upper))


class ConditionalExpectation:
    """The unique trace-preserving projection of an algebra onto a subalgebra."""

    def __init__(self, big: StarAlgebra, sub: StarAlgebra, trace: TraceFunctional):
        if not big.contains(sub.basis):
            raise InclusionError("subalgebra is not contained in the big algebra")
        self.trace = trace
        gram = trace.gram_matrix(sub.basis)
        gram = (gram + gram.conj().T) / 2.0
        try:
            lower = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise FaithfulnessError("trace is degenerate on the subalgebra") from exc
        transform = np.linalg.inv(lower.conj().T)
        self.onb = np.einsum("ik,iab->kab", transform, sub.basis)
        # pairing rows: value_k(X) = sum_ab weight_k[a,b] X[b,a] = pairing[k] . vec(X^T)
        self._pairing = _vec(np.matmul(self.trace.riesz, self.onb.conj().transpose(0, 2, 1)))

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        """The expectation of a matrix, or of every matrix of a stack."""
        mat = np.asarray(mat, dtype=complex)
        coeffs = _vec(np.swapaxes(mat, -1, -2)) @ self._pairing.T
        return (coeffs @ _vec(self.onb)).reshape(mat.shape)


def center_valued_trace(
    alg: StarAlgebra, trace: TraceFunctional | None = None
) -> ConditionalExpectation:
    """Trace-preserving expectation onto the center.

    Independent of which faithful trace seeds it; the ambient matrix trace is
    always available and is the default.
    """
    if trace is None:
        trace = TraceFunctional.from_matrix_trace(alg)
    return ConditionalExpectation(alg, center(alg), trace)


def twisted_group_algebra(lat: Lattice, flavor: str = "plain") -> StarAlgebra:
    """The twisted group algebra of a lattice: the span of its shifts on L2(G).

    flavor "plain" twists by the cocycle of pi(z) pi(z') = c(z, z') pi(z + z');
    "opposite" spans the transposed shifts, whose products reverse, so it
    twists by the reversed cocycle.
    """
    if flavor not in ("plain", "opposite"):
        raise ValueError(f"flavor must be 'plain' or 'opposite', got {flavor!r}")
    shifts = shift_stack(lat)
    if flavor == "opposite":
        shifts = shifts.transpose(0, 2, 1)
    n = lat.group.size
    return StarAlgebra(shifts / np.sqrt(n), generators=tuple(shifts[lat.index(lat.generators)]))


def read_only(*holders) -> None:
    """Mark the arrays that each object holds as attributes, alone or in a
    tuple, read-only: a cached builder shares its results across callers."""
    for holder in holders:
        for value in vars(holder).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False


@lru_cache(maxsize=256)
def _standard_blocks(shapes: tuple[tuple[int, int], ...]) -> StarAlgebra:
    """The direct sum of M_d (x) I_m over (d, m) in shapes, on consecutive
    coordinates, with two generators per block: sum_a (a+1) E_aa and the
    cyclic shift E_(a+1)a. Built once per shapes and shared by every caller,
    its split into blocks included, so its arrays are read-only."""
    if not shapes or any(d < 1 or m < 1 for d, m in shapes):
        raise SpanError("block sizes and multiplicities must be positive")
    cols = np.eye(sum(d * m for d, m in shapes), dtype=complex)
    basis, gens = [], []
    for d, m in shapes:
        w, cols = cols[:, : d * m].reshape(-1, d, m).transpose(1, 0, 2), cols[:, d * m :]
        units = matrix_units(w)
        basis.append(units / np.sqrt(m))
        steps = np.arange(d)
        diag, shift = units[steps * (d + 1)], units[(steps + 1) % d * d + steps]
        gens += [np.tensordot(steps + 1.0, diag, axes=1), shift.sum(0)]
    alg = StarAlgebra(np.concatenate(basis), generators=tuple(gens))
    read_only(alg)
    return alg


def block_matrix_algebra(sizes: Sequence[int]) -> StarAlgebra:
    """Direct sum of full matrix blocks, with a two-per-block generating set."""
    return _standard_blocks(tuple((int(s), 1) for s in sizes))


def full_matrix_algebra(n: int) -> StarAlgebra:
    return block_matrix_algebra([n])


def ampliated_matrix_algebra(block: int, copies: int) -> StarAlgebra:
    """Copies of a full matrix algebra along the diagonal: a |-> a (x) identity."""
    return _standard_blocks(((int(block), int(copies)),))
