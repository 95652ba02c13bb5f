"""Reference implementations kept only as test oracles.

Nothing in gaborlab calls these; the tests compare the program against them.
"""

import cmath
import itertools
import math
from typing import Iterable

import numpy as np

from gaborlab.algebra import (
    _CHUNK,
    RANK_RTOL,
    SPAN_ATOL,
    SpanError,
    StarAlgebra,
    _vec,
    numerical_rank,
    orthonormal_extension,
)
from gaborlab.gabor import tf_shift
from gaborlab.groups import FiniteAbelianGroup, Lattice


def character_value(group: FiniteAbelianGroup, w: Iterable[int], x: Iterable[int]) -> complex:
    """The character indexed by w evaluated at x: exp(2 pi i sum_j w_j x_j / N_j)."""
    phase = int(group.pairing(group.check(x), group.check(w))[0, 0])
    return cmath.exp(2j * math.pi * (phase / group.lcm))


def point(group: FiniteAbelianGroup, x: Iterable[int], w: Iterable[int]) -> tuple[int, ...]:
    """The phase-space point (x, w) as one row tuple (x_1..x_k, w_1..w_k)."""
    return group.check(x) + group.check(w)


def all_points(group: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """Every phase-space row of G x G, in lexicographic (canonical) order."""
    return list(itertools.product(*(range(n) for n in group.orders * 2)))


def add(group: FiniteAbelianGroup, a, b) -> tuple[int, ...]:
    """Componentwise sum of two elements of G, or of two phase-space rows."""
    orders = group.orders * (len(a) // len(group.orders))
    return tuple((p + q) % n for p, q, n in zip(a, b, orders))


def cocycle(group: FiniteAbelianGroup, z, zp) -> complex:
    """The phase making z -> tf_shift(z) projectively multiplicative, for
    phase-space rows z = (x, w) and zp = (x', w'): conj(w'(x))."""
    k = len(group.orders)
    return complex(character_value(group, zp[k:], z[:k])).conjugate()


def dense_commutant(alg: StarAlgebra) -> StarAlgebra:
    """The commutant as the null space of one dense constraint matrix over all
    n^2 matrix units: each generator h and its adjoint add the block
    kron(I, h^T) - kron(h, I), which maps vec(X) to vec(X h - h X)."""
    n = alg.ambient_dim
    eye = np.eye(n, dtype=complex)
    blocks = []
    scale = 0.0
    for g in alg.gen_matrices():
        for h in (g, g.conj().T):
            blocks.append(np.kron(eye, h.T) - np.kron(h, eye))
            scale = max(scale, float(np.linalg.norm(h)))
    _, svals, vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    rank = int(np.sum(svals > 1e-10 * max(float(svals[0]), scale)))
    return StarAlgebra(vh[rank:].conj().reshape(-1, n, n))


def analysis_matrix(g: np.ndarray, lat: Lattice) -> np.ndarray:
    """Rows conj(tf_shift(z) g) over z in the lattice, built one shift at a
    time, so (C f)_z = <f, shift(z) g> with the inner product linear in f."""
    return np.array([np.conj(tf_shift(lat.group, z) @ g) for z in lat.rows])


def bessel_bound_by_analysis(g: np.ndarray, lat: Lattice) -> float:
    """The optimal Bessel bound of one window as |C|_2^2, the squared spectral
    norm of its analysis matrix."""
    return float(np.linalg.norm(analysis_matrix(g, lat), 2)) ** 2


def bounded_operator_loop(fs: np.ndarray, module) -> np.ndarray:
    """vnmod.bounded_operator one vector at a time: the orbit map of f as
    columns, then the GNS coordinates."""
    return np.array(
        [np.einsum("iab,b->ai", module.images, f) @ module.space.chol_upper_inv for f in fs]
    )


def operator_norm_loop(mats: np.ndarray) -> np.ndarray:
    """bimodule.operator_norm one matrix at a time."""
    return np.array([np.linalg.svd(m, compute_uv=False)[0] for m in mats])


def block_ranks_loop(alg: StarAlgebra) -> list[int]:
    """vnmod.cdim_blockwise's block dimensions, one SVD per minimal central
    projection q: the rank of the span of b q over the basis elements b."""
    return [
        numerical_rank(np.linalg.svd(_vec(np.matmul(alg.basis, q)), compute_uv=False))
        for q in alg.central_projections
    ]


def pair_blocks_loop(a: np.ndarray, b: np.ndarray) -> tuple[list[int], float]:
    """vnmod.pair_blocks one pair of projections at a time: each P of a takes
    its one partner Q among b's projections not yet taken, within
    |P - Q| <= SPAN_ATOL max(1, |P|), and the distance is the worst over a of
    |P - Q| / max(1, |P|) to the nearest Q. Returns the partner of each P in
    a's order and that distance."""
    partners, worst = [], 0.0
    for i, p in enumerate(a):
        scale = max(1.0, float(np.linalg.norm(p)))
        dists = [float(np.linalg.norm(p - q)) / scale for q in b]
        worst = max(worst, min(dists))
        hits = [j for j, dist in enumerate(dists) if j not in partners and dist <= SPAN_ATOL]
        if len(hits) != 1:
            raise ValueError(f"block {i} matched {len(hits)} partners")
        partners.append(hits[0])
    return partners, worst


def orthonormal_extension_loop(basis_flat, candidates_flat) -> np.ndarray:
    """algebra.orthonormal_extension one candidate at a time: modified
    Gram-Schmidt with one re-orthogonalisation pass against the basis and all
    rows accepted so far, which are kept in a list and restacked for every
    candidate."""
    cands = np.asarray(candidates_flat, dtype=complex)
    if cands.size == 0:
        return np.zeros((0, 0 if basis_flat is None else basis_flat.shape[1]), dtype=complex)
    scales = np.maximum(np.linalg.norm(cands, axis=1), 1.0)
    if basis_flat is not None and basis_flat.shape[0]:
        resid = cands - (cands @ basis_flat.conj().T) @ basis_flat
    else:
        resid = cands.copy()
    keep = np.linalg.norm(resid, axis=1) > (RANK_RTOL / 4.0) * scales
    rows: list[np.ndarray] = []
    for v, scale in zip(cands[keep], scales[keep]):
        w = v
        for _ in range(2):
            if basis_flat is not None and basis_flat.shape[0]:
                w = w - basis_flat.T @ (basis_flat.conj() @ w)
            if rows:
                new = np.array(rows)
                w = w - new.T @ (new.conj() @ w)
        nrm = np.linalg.norm(w)
        if nrm > RANK_RTOL * scale:
            rows.append(w / nrm)
    if not rows:
        return np.zeros((0, cands.shape[1]), dtype=complex)
    return np.array(rows)


def generate_algebra_full(gens) -> StarAlgebra:
    """algebra.generate_algebra multiplying the whole basis by the generators
    in every round, not only the rows added in the round before, with the
    same product kernel, the same orthonormal_extension and the same
    candidate rules: g* only where it differs exactly from g, and real
    arithmetic when no generator has a nonzero imaginary part.

    Each round's products of the older rows come first, as one block, and
    must all be dropped; the products of the rows added last round follow in
    generate_algebra's blocks. A real GEMM of this BLAS rounds differently
    with its row count (it takes a small-matrix kernel for small products),
    so only equal blocks give bitwise equal rows."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise SpanError("need at least one generator")
    n = gens[0].shape[0]
    work = gens if any(np.any(g.imag) for g in gens) else [g.real for g in gens]
    closed_gens = [
        h for g in work for h in ((g,) if np.array_equal(g.conj().T, g) else (g, g.conj().T))
    ]
    seeds = [np.eye(n, dtype=work[0].dtype)] + closed_gens
    basis_flat = orthonormal_extension(None, np.array(seeds).reshape(-1, n * n))
    gen_arr = np.array(closed_gens)[None]
    step = max(1, _CHUNK // len(closed_gens))

    def products(rows):
        return np.matmul(rows.reshape(-1, 1, n, n), gen_arr).reshape(-1, n * n)

    frontier = basis_flat
    while True:
        older = basis_flat[: basis_flat.shape[0] - frontier.shape[0]]
        blocks = [products(older)]
        blocks += [products(frontier[s : s + step]) for s in range(0, frontier.shape[0], step)]
        added = orthonormal_extension(basis_flat, blocks)
        if added.shape[0] == 0:
            break
        basis_flat = np.vstack([basis_flat, added])
        frontier = added
    return StarAlgebra(basis_flat.reshape(-1, n, n), generators=tuple(gens))


def report_dict(report) -> dict:
    """The dict that Report.to_json writes, built from the report's public
    fields: json.dumps(report_dict(r), sort_keys=True, indent=2) is its oracle."""
    body = {
        "command": report.command,
        "parameters": report.parameters,
        "summary": {
            "total": len(report.checks),
            "passed": sum(1 for c in report.checks if c.passed),
            "failed": sum(1 for c in report.checks if not c.passed),
        },
        "seed": report.seed,
        "version": report.version,
        "checks": [
            {
                "name": c.name,
                "passed": bool(c.passed),
                "lhs": float(c.lhs),
                "rhs": float(c.rhs),
                "tolerance": float(c.tolerance),
                "deviation": float(c.deviation),
            }
            for c in report.checks
        ],
    }
    if report.data:
        body["data"] = report.data
    return body
