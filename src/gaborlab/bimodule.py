"""Bimodules with traces on both sides.

A bimodule couples a left module and a right module on the same space with
commuting actions. The operators attached to a vector f send GNS vectors to
f acted by the corresponding element; comparing their norms across the two
sides is the content of the main norm inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import SpanError, TraceFunctional, block_matrix_algebra, matrix_units
from .reporting import TOL_DIMENSION
from .vnmod import (
    BlockMatchError,
    LeftModule,
    RightModule,
    cdim,
    induced_trace_evaluator,
    pair_blocks,
)

# largest space that random_instance builds
SPACE_CAP = 32
# largest entry of a commutator of the two sides' generator actions
COMMUTE_ATOL = 1e-12
# vectors per chunk of bounded_norms: the pairs conj(f) (x) f of 125 vectors
# take 2.6 MB at h = 36, 2.9 MiB traced, where 1000 at once take 22.6 MiB
_NORM_TRIALS = 125


class HypothesisError(RuntimeError):
    """A named hypothesis of the norm inequality fails."""

    def __init__(self, hypothesis: str, deviation: float):
        self.hypothesis = hypothesis
        self.deviation = float(deviation)
        super().__init__(f"hypothesis {hypothesis!r} fails (deviation {deviation:.3e})")


class Bimodule:
    """Commuting left and right module structures on one space."""

    def __init__(
        self,
        left: LeftModule,
        right: RightModule,
        right_is_full_commutant: bool | None = None,
    ):
        if left.space_dim != right.space_dim:
            raise SpanError("left and right modules live on different spaces")
        self.left = left
        self.right = right
        self.space_dim = left.space_dim
        self.right_is_full_commutant = right_is_full_commutant
        lm = left.act(np.array(left.algebra.gen_matrices()))[:, None]
        rm = right.act(np.array(right.algebra.gen_matrices()))[None]
        worst = float(np.max(np.abs(lm @ rm - rm @ lm)))
        if worst > COMMUTE_ATOL:
            raise SpanError(f"actions do not commute (defect {worst:.3e})")

    @cached_property
    def partners(self) -> np.ndarray:
        """The block of the right algebra paired with each block of the left one,
        by pair_blocks on the two actions' images of their central projections.
        Raises BlockMatchError when the centers do not match, on every read."""
        centers = [side.act(side.algebra.central_projections) for side in (self.left, self.right)]
        partners, _ = pair_blocks(*centers)
        partners.flags.writeable = False
        return partners


def operator_norm(mats: np.ndarray) -> np.ndarray:
    """The largest singular value of every matrix in a (T, m, k) stack, as a
    (T,) array (0 for empty matrices): the square root of the top eigenvalue
    of its Gram matrix on the smaller side, through one batched eigvalsh.

    With 2**e the power of two just above a matrix's largest entry and 2**pad
    above the length of the sums, the conjugate factor is scaled by
    2**-(e + pad) before the product and the Gram by 2**-(e - pad) after it,
    so that neither tiny nor huge entries overflow or underflow on the way;
    scaling by a power of two rounds nothing.
    """
    if not mats.size:
        return np.zeros(mats.shape[0])
    exps = np.frexp(np.abs(mats).max(axis=(1, 2)))[1][:, None, None]
    pad = max(mats.shape[1:]).bit_length()
    conj = np.conjugate(mats, dtype=complex, order="C")
    np.ldexp(conj.view(float), -(exps + pad), out=conj.view(float))
    if mats.shape[1] < mats.shape[2]:
        gram = mats @ conj.transpose(0, 2, 1)
    else:
        gram = conj.transpose(0, 2, 1) @ mats
    np.ldexp(gram.view(float), pad - exps, out=gram.view(float))
    top = np.linalg.eigvalsh(gram)[:, -1]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), exps[:, 0, 0])


def bounded_norms(fs: np.ndarray, module: LeftModule | RightModule) -> np.ndarray:
    """The norm of bounded_operator(f, module) for each f of a (T, space_dim)
    stack, as a (T,) array, from the algebra-valued inner product x = <f, f>.

    L_f sends the class of 1 to f, so L_f^* f is the class of x; L_f^* L_f
    commutes with the regular action on the other side, so it is
    multiplication by x, and a faithful representation is isometric:
    |L_f|^2 is the operator norm of x in the algebra's own n x n matrices.
    The class of x is conj((f^H C) R), C the stacked images and R the GNS
    coordinates: the coefficients f^H A_i f come from the pairs conj(f) (x) f
    against the flat images, so no (T, h, d) operator stack is built.
    Each f is scaled by 2**-e, with 2**e just above its largest entry, and
    its norm by 2**e after, so that neither tiny nor huge vectors overflow or
    underflow on the way; scaling by a power of two rounds nothing.

    The vectors go _NORM_TRIALS at a time, so no (T, h * h) stack of pairs
    is ever whole.
    """
    fs = np.asarray(fs, dtype=complex)
    norms = np.empty(len(fs))
    for s in range(0, len(fs), _NORM_TRIALS):
        part = slice(s, s + _NORM_TRIALS)
        exps = np.frexp(np.abs(fs[part]).max(axis=-1, initial=0.0))[1]
        units = fs[part] * np.ldexp(1.0, -exps)[..., None]
        pairs = (units.conj()[:, :, None] * units[:, None, :]).reshape(len(units), -1)
        hats = ((pairs @ module.images_flat.T) @ module.space.chol_upper_inv).conj()
        norms[part] = np.ldexp(np.sqrt(operator_norm(module.space.unhat(hats))), exps)
    return norms


def check_alignment(bm: Bimodule) -> float:
    """Worst deviation of the left trace from the trace induced by the right one.

    The induced trace on the commutant of the right action restricts to the
    left algebra's image; alignment means the restriction reproduces the
    left trace on every basis element.
    """
    moved = induced_trace_evaluator(bm.right)(bm.left.images)
    return float(np.max(np.abs(bm.left.trace.values - moved), initial=0.0))


@dataclass(frozen=True)
class NormInequality:
    """The norm inequality on a stack of T vectors: the constant, and one (T,)
    array per column whose entry t is vector t's."""

    constant: float                 # sup of the blockwise cdim product
    left_norm: np.ndarray
    right_norm: np.ndarray
    slack: np.ndarray               # worst violation across both inequality directions
    equality_deviation: np.ndarray  # |left_norm - right_norm|
    passed: np.ndarray


def gaussian_vector(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A complex Gaussian vector of length shape[-1]; a longer shape gives an
    array of them, drawn from rng exactly as successive one-vector calls would
    draw its rows (real parts, then imaginary parts, one vector at a time)."""
    pairs = rng.standard_normal(shape[:-1] + (2, shape[-1]))
    return pairs[..., 0, :] + 1j * pairs[..., 1, :]


def verify_hypotheses(bm: Bimodule, tol: float = TOL_DIMENSION) -> None:
    """Check the norm-inequality hypotheses, raising on the first failure; the
    centers match when pair_blocks pairs the two actions' central projections,
    and the traces align within tol."""
    if not bm.left.faithful:
        raise HypothesisError("left action faithful", 1.0)
    if not bm.right.faithful:
        raise HypothesisError("right action faithful", 1.0)
    try:
        # each side finds (and keeps) its spanning generators
        bm.left.generators
        bm.right.generators
    except SpanError as exc:
        raise HypothesisError("finite generation", float("nan")) from exc
    try:
        bm.partners
    except BlockMatchError as exc:
        raise HypothesisError("matching centers", exc.distance) from exc
    deviation = check_alignment(bm)
    if not deviation <= tol:
        raise HypothesisError("trace alignment", deviation)


def verify_left_right_bounded(
    bm: Bimodule, fs: np.ndarray, tol: float = TOL_DIMENSION
) -> NormInequality:
    """Norm inequality between the two bounded-vector operators, on each
    vector of a (T, space_dim) stack.

    Both directions are checked with the same constant, the sup norm of the
    blockwise product of the two center-valued dimensions. When the right
    action is known to fill the commutant of the left one, the norms must
    agree outright, and passed gates the equality deviation too. tol gates
    the trace-alignment hypothesis as well as the norms. An empty stack
    raises ValueError, since no check could run, and a stack of another
    shape raises SpanError.
    """
    if len(fs) == 0:
        raise ValueError("no vectors: the norm inequality needs at least one vector")
    if np.ndim(fs) != 2 or np.shape(fs)[1] != bm.space_dim:
        raise SpanError(f"vectors must be a (T, {bm.space_dim}) stack, got shape {np.shape(fs)}")
    verify_hypotheses(bm, tol)
    constant = float(np.max(cdim(bm.left) * cdim(bm.right)[bm.partners]))
    ln, rn = bounded_norms(fs, bm.right), bounded_norms(fs, bm.left)
    slack = np.maximum(rn - constant * ln, ln - constant * rn)
    eq_dev = np.abs(ln - rn)
    passed = slack <= tol
    if bm.right_is_full_commutant:
        passed &= eq_dev <= tol * np.maximum(1.0, ln)
    return NormInequality(constant, ln, rn, slack, eq_dev, passed)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_instance(
    rng: np.random.Generator,
    block_count: int = 2,
    blocks: Sequence[tuple[int, int, int]] | None = None,
) -> Bimodule:
    """A seeded bimodule exercising the norm inequality beyond the equality case.

    Per block (n, m, d): the right algebra acts as full n x n matrices with
    multiplicity m; the left algebra is a conjugated d x d matrix algebra
    (d dividing m) inside the block's commutant. Centers match by
    construction and the left trace is the induced one, so every hypothesis
    holds. The block sizes (when blocks is None), the trace weights and the
    unitaries are drawn from rng.
    """
    if blocks is None:
        blocks = []
        used = 0
        for _ in range(block_count):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            e = int(rng.integers(1, 3))
            m = d * e
            if used + n * m > SPACE_CAP:
                n, m, d = 1, 1, 1
            if used + n * m > SPACE_CAP:
                break
            blocks.append((n, m, d))
            used += n * m
        if not blocks:
            blocks = [(1, 1, 1)]
    else:
        blocks = [tuple(int(v) for v in b) for b in blocks]
        for n, m, d in blocks:
            if m % d:
                raise ValueError(f"block multiplicity {m} not divisible by {d}")
        if sum(n * m for n, m, _ in blocks) > SPACE_CAP:
            raise ValueError("requested blocks exceed the space cap")

    offsets = np.cumsum([0] + [n * m for n, m, _ in blocks])
    space_dim = int(offsets[-1])
    right_alg = block_matrix_algebra([n for n, _, _ in blocks])
    left_alg = block_matrix_algebra([d for _, _, d in blocks])

    # right action: on each block, M_n acts on the row factor of C^m (x) C^n,
    # as the transposed units of the stack I_m (x) e_a
    cols = np.eye(space_dim, dtype=complex)
    right_images = np.concatenate([
        matrix_units(cols[:, o : o + m * n].reshape(-1, m, n).transpose(2, 0, 1)).transpose(0, 2, 1)
        for o, (n, m, _) in zip(offsets, blocks)
    ])
    weights = [float(rng.uniform(0.5, 2.0)) for _ in blocks]
    kappa_vals = np.concatenate([w * np.eye(n).ravel() for w, (n, _, _) in zip(weights, blocks)])
    right = RightModule(right_alg, TraceFunctional(right_alg, kappa_vals), right_images)

    # left action: M_d (x) I_(m/d) conjugated by a Haar unitary u, then (x) I_n;
    # the stack is u's column groups u_a (x) I_n
    left_images = []
    for o, (n, m, d) in zip(offsets, blocks):
        w = np.zeros((d, space_dim, m // d * n), dtype=complex)
        u = _haar_unitary(rng, m).reshape(m, d, m // d).transpose(1, 0, 2)
        w[:, o : o + m * n] = np.kron(u, np.eye(n))
        left_images.append(matrix_units(w))
    left_images = np.concatenate(left_images)
    # the aligned left trace is the induced one, read off through the action
    tau = TraceFunctional(left_alg, induced_trace_evaluator(right)(left_images))
    left = LeftModule(left_alg, tau, left_images)
    full = all(m == d for _, m, d in blocks)
    return Bimodule(left, right, right_is_full_commutant=full)
