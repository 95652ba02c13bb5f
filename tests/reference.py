"""Reference implementations kept only as test oracles.

Nothing in gaborlab calls these; the tests compare the program against them.
"""

import cmath
import itertools
import math
from typing import Iterable

import numpy as np

from gaborlab.algebra import RANK_RTOL, SpanError, StarAlgebra, _vec, orthonormal_extension
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
    same product kernel and the same orthonormal_extension."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise SpanError("need at least one generator")
    n = gens[0].shape[0]
    closed_gens = [h for g in gens for h in (g, g.conj().T)]
    seeds = [np.eye(n, dtype=complex)] + closed_gens
    basis_flat = orthonormal_extension(None, _vec(np.array(seeds)))
    gen_arr = np.array(closed_gens)[None]
    while True:
        prods = np.matmul(basis_flat.reshape(-1, 1, n, n), gen_arr)
        added = orthonormal_extension(basis_flat, _vec(prods.reshape(-1, n, n)))
        if added.shape[0] == 0:
            break
        basis_flat = np.vstack([basis_flat, added])
    return StarAlgebra(basis_flat.reshape(-1, n, n), generators=tuple(gens))
