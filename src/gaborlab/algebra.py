"""Finite-dimensional *-algebra engine on complex matrices.

Algebras are always concrete: a unital self-adjoint subspace of n x n
matrices closed under products, carried by a Hilbert-Schmidt orthonormal
basis. Ultraweak closure questions degenerate to exact span equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gabor import shift_stack
from .groups import Lattice

# singular values, residuals and block norms below RANK_RTOL x scale count as zero
RANK_RTOL = 1e-10
SPAN_ATOL = 1e-10
# seeds the random self-adjoint elements whose spectra split an algebra
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
    """The Euclidean norm of each row of a complex matrix, as one real dot
    product per row (np.linalg.norm would square a full copy first)."""
    flat = np.ascontiguousarray(rows).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def orthonormal_extension(basis_flat: np.ndarray | None, candidates_flat: np.ndarray) -> np.ndarray:
    """Rows to append to an orthonormal row basis to cover the candidates.

    A batched pre-filter drops the candidates already in the span. The rest
    go through block Gram-Schmidt with one re-orthogonalisation pass (CGS2,
    "twice is enough"), _CHUNK candidates at a time: GEMMs project each chunk
    off the basis and off the rows accepted so far, the rows left in the span
    are dropped, and only the survivors go through the row-wise pass against
    the rows accepted inside the chunk. Accepted rows go into a buffer sized
    by the dimension left free, so the work stops once the span fills the
    space. Deterministic given the input order.
    """
    cands = np.asarray(candidates_flat, dtype=complex)
    if cands.size == 0:
        return np.zeros((0, 0 if basis_flat is None else basis_flat.shape[1]), dtype=complex)
    have = 0 if basis_flat is None else basis_flat.shape[0]
    norms = _row_norms(cands)
    scales = np.maximum(norms, 1.0)
    if have:
        basis_conj = basis_flat.conj()
        resid = cands - (cands @ basis_conj.T) @ basis_flat
        norms = _row_norms(resid)
    else:
        resid = cands
    keep = norms > (RANK_RTOL / 4.0) * scales
    # the pre-filter's residuals are the first pass against the basis
    resid, scales = resid[keep], scales[keep]
    cap = min(resid.shape[0], cands.shape[1] - have)
    rows = np.empty((cap, cands.shape[1]), dtype=complex)
    rows_conj = np.empty_like(rows)
    k = 0
    for start in range(0, resid.shape[0], _CHUNK):
        if k == cap:
            break
        w, chunk_scales = resid[start : start + _CHUNK], scales[start : start + _CHUNK]
        if k or have:
            if k:
                w = w - (w @ rows_conj[:k].T) @ rows[:k]
            if have:
                w = w - (w @ basis_conj.T) @ basis_flat
            if k:
                w = w - (w @ rows_conj[:k].T) @ rows[:k]
            live = _row_norms(w) > RANK_RTOL * chunk_scales
            w, chunk_scales = w[live], chunk_scales[live]
        first = k
        for v, scale in zip(w, chunk_scales):
            if k > first:
                for _ in range(2):
                    v = v - rows[first:k].T @ (rows_conj[first:k] @ v)
            nrm = np.linalg.norm(v)
            if nrm > RANK_RTOL * scale:
                rows[k] = v / nrm
                rows_conj[k] = rows[k].conj()
                k += 1
                if k == cap:
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


def generate_algebra(gens: Iterable[np.ndarray]) -> StarAlgebra:
    """Smallest unital self-adjoint algebra containing the generators."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise SpanError("need at least one generator")
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise SpanError("generators must be square matrices of equal size")
    closed_gens = []
    for g in gens:
        closed_gens.append(g)
        closed_gens.append(g.conj().T)
    seeds = [np.eye(n, dtype=complex)] + closed_gens
    basis_flat = orthonormal_extension(None, _vec(np.array(seeds)))
    gen_arr = np.array(closed_gens)[None]
    frontier = basis_flat
    while True:
        # one-sided products reach every word since the identity is present;
        # the older rows' products were candidates in an earlier round, so
        # they already lie in the span and only the rows added last round
        # need multiplying
        prods = np.matmul(frontier.reshape(-1, 1, n, n), gen_arr)
        frontier = orthonormal_extension(basis_flat, _vec(prods.reshape(-1, n, n)))
        if frontier.shape[0] == 0:
            break
        basis_flat = np.vstack([basis_flat, frontier])
    return StarAlgebra(basis_flat.reshape(-1, n, n), generators=tuple(gens))


def numerical_rank(svals: np.ndarray) -> int:
    """Singular values above RANK_RTOL x the largest one."""
    floor = float(svals[0]) if svals.size else 0.0
    return int(np.sum(svals > RANK_RTOL * floor)) if floor > 0 else 0


def _decompose(alg: StarAlgebra) -> list[np.ndarray]:
    """The algebra as a direct sum of M_d (x) I_m: one (d, n, m) stack of
    isometries W_1..W_d per central block.

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
        evecs, cuts = _generic_eigenbasis(alg.basis, rng)
        b = alg.reconstruct(rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension))
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
            return stacks
    raise SpectralSplitError("could not split the algebra into its central blocks after 5 random draws")


def commutant(alg: StarAlgebra) -> StarAlgebra:
    """Everything commuting with the algebra: I_d (x) M_m on each central
    block, spanned by sum_k W_k E_pq W_k^* / sqrt(d) over the matrix units
    E_pq, which are HS-orthonormal by construction."""
    n = alg.ambient_dim
    basis = []
    for w in _decompose(alg):
        cols = w.transpose(2, 1, 0)  # [p, a, k]: column p of every W_k
        units = np.matmul(cols[:, None], cols.conj().transpose(0, 2, 1)[None])
        basis.append(units.reshape(-1, n, n) / np.sqrt(w.shape[0]))
    return StarAlgebra(np.concatenate(basis))


def center(alg: StarAlgebra) -> StarAlgebra:
    """The center: the minimal central projections, each of unit HS norm."""
    return StarAlgebra(np.array([p / np.linalg.norm(p) for p in minimal_central_projections(alg)]))


def span_equal(a: StarAlgebra, b: StarAlgebra, atol: float = SPAN_ATOL) -> tuple[bool, float]:
    """Mutual containment of two spans; returns (equal, worst residual)."""
    worst = max(float(np.max(b.residuals(a.basis))), float(np.max(a.residuals(b.basis))))
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


def minimal_central_projections(alg: StarAlgebra) -> list[np.ndarray]:
    """Mutually orthogonal central projections summing to 1, one per block:
    P = sum_k W_k W_k^* over each block of the decomposition."""
    projs = []
    for w in _decompose(alg):
        cols = w.transpose(1, 0, 2).reshape(w.shape[1], -1)
        projs.append(cols @ cols.conj().T)
    projs.sort(
        key=lambda p: (
            int(round(float(np.trace(p).real))),
            _first_support_index(p),
            np.round(p, 9).tobytes(),
        )
    )
    return projs


def _first_support_index(proj: np.ndarray) -> int:
    diag = np.abs(np.diag(proj))
    hits = np.nonzero(diag > 1e-6)[0]
    return int(hits[0]) if hits.size else proj.shape[0]


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
            dev = self.traciality_defect()
            if dev > 1e-10:
                raise SpanError(f"functional is not tracial on the algebra ({dev:.2e})")
            evals = np.linalg.eigvalsh((self.gram + self.gram.conj().T) / 2.0)
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

    def scaled(self, factor: float) -> "TraceFunctional":
        return TraceFunctional(self.algebra, self.values * factor, check=False)

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


def block_matrix_algebra(sizes: Sequence[int]) -> StarAlgebra:
    """Direct sum of full matrix blocks, with a two-per-block generating set."""
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise SpanError("block sizes must be positive")
    total = sum(sizes)
    units = []
    gens = []
    offset = 0
    for s in sizes:
        for a in range(s):
            for b in range(s):
                mat = np.zeros((total, total), dtype=complex)
                mat[offset + a, offset + b] = 1.0
                units.append(mat)
        diag = np.zeros((total, total), dtype=complex)
        shift = np.zeros((total, total), dtype=complex)
        for a in range(s):
            diag[offset + a, offset + a] = a + 1
            shift[offset + (a + 1) % s, offset + a] = 1.0
        gens.extend([diag, shift])
        offset += s
    return StarAlgebra(np.stack(units), generators=tuple(gens))


def full_matrix_algebra(n: int) -> StarAlgebra:
    return block_matrix_algebra([n])


def ampliated_matrix_algebra(block: int, copies: int) -> StarAlgebra:
    """Copies of a full matrix algebra along the diagonal: a |-> a (x) identity."""
    if block < 1 or copies < 1:
        raise SpanError("block size and multiplicity must be positive")
    eye = np.eye(copies, dtype=complex)
    basis = []
    for a in range(block):
        for b in range(block):
            unit = np.zeros((block, block), dtype=complex)
            unit[a, b] = 1.0
            basis.append(np.kron(unit, eye) / np.sqrt(copies))
    diag = np.kron(np.diag(np.arange(1, block + 1).astype(complex)), eye)
    shift = np.kron(np.roll(np.eye(block, dtype=complex), 1, axis=0), eye)
    return StarAlgebra(np.stack(basis), generators=(diag, shift))
