"""Bimodules with traces on both sides.

A bimodule couples a left module and a right module on the same space with
commuting actions. The operators attached to a vector f send GNS vectors to
f acted by the corresponding element; comparing their norms across the two
sides is the content of the main norm inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    SpanError,
    TraceFunctional,
    block_matrix_algebra,
    center,
    span_equal,
)
from .reporting import TOL_DIMENSION, campaign_rng
from .vnmod import (
    CenterElement,
    LeftModule,
    RightModule,
    blockwise_product,
    bounded_operator,
    cdim,
    induced_trace_evaluator,
)

MAX_SPACE_DIM = 64


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
        commute_atol: float = 1e-10,
        right_is_full_commutant: bool | None = None,
    ):
        if left.space_dim != right.space_dim:
            raise SpanError("left and right modules live on different spaces")
        self.left = left
        self.right = right
        self.space_dim = left.space_dim
        self.right_is_full_commutant = right_is_full_commutant
        worst = 0.0
        for lm in self.left.image_algebra.gen_matrices():
            for rm in self.right.image_algebra.gen_matrices():
                worst = max(worst, float(np.max(np.abs(lm @ rm - rm @ lm))))
        if worst > commute_atol:
            raise SpanError(f"actions do not commute (defect {worst:.3e})")

    def cdim_product(self) -> CenterElement:
        """Blockwise cdim(left) * cdim(right), matched inside the operator space."""
        return blockwise_product(
            cdim(self.left),
            cdim(self.right),
            embed_a=self.left.act,
            embed_b=self.right.act,
        )


def left_bounded_operator(fs: np.ndarray, bm: Bimodule) -> np.ndarray:
    """For each f in a (T, space_dim) stack, the operator sending a right-GNS
    vector n-hat to f acted on the right by n."""
    return bounded_operator(fs, bm.right)


def right_bounded_operator(fs: np.ndarray, bm: Bimodule) -> np.ndarray:
    """For each f in a (T, space_dim) stack, the operator sending a left-GNS
    vector m-hat to f acted on the left by m."""
    return bounded_operator(fs, bm.left)


def operator_norm(mats: np.ndarray) -> np.ndarray:
    """The largest singular value of every matrix in a (T, m, k) stack, as a
    (T,) array (0 for empty matrices)."""
    if not mats.size:
        return np.zeros(mats.shape[0])
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def check_alignment(bm: Bimodule) -> float:
    """Worst deviation of the left trace from the trace induced by the right one.

    The induced trace on the commutant of the right action restricts to the
    left algebra's image; alignment means the restriction reproduces the
    left trace on every basis element.
    """
    moved = induced_trace_evaluator(bm.right)(bm.left.images)
    return float(np.max(np.abs(bm.left.trace.values - moved), initial=0.0))


@dataclass
class BoundedVectorReport:
    vector_id: int
    left_norm: float
    right_norm: float
    cdim_product_sup: float
    slack: float                    # worst violation across both inequality directions
    equality_deviation: float | None
    passed: bool

    def to_dict(self) -> dict:
        data = {
            "vector_id": self.vector_id,
            "left_norm": float(self.left_norm),
            "right_norm": float(self.right_norm),
            "cdim_product_sup": float(self.cdim_product_sup),
            "slack": float(self.slack),
            "passed": self.passed,
        }
        if self.equality_deviation is not None:
            data["equality_deviation"] = float(self.equality_deviation)
        return data


def gaussian_vector(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A complex Gaussian vector of length shape[-1]; a longer shape gives an
    array of them, drawn from rng exactly as successive one-vector calls would
    draw its rows (real parts, then imaginary parts, one vector at a time)."""
    pairs = rng.standard_normal(shape[:-1] + (2, shape[-1]))
    return pairs[..., 0, :] + 1j * pairs[..., 1, :]


def verify_hypotheses(bm: Bimodule) -> None:
    """Check the norm-inequality hypotheses, raising on the first failure."""
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
    equal, defect = span_equal(
        center(bm.left.image_algebra), center(bm.right.image_algebra), 1e-8
    )
    if not equal:
        raise HypothesisError("matching centers", defect)
    deviation = check_alignment(bm)
    if not deviation <= TOL_DIMENSION:
        raise HypothesisError("trace alignment", deviation)


def verify_left_right_bounded(
    bm: Bimodule, trials: int = 100, seed: int = 0, tol: float = TOL_DIMENSION
) -> list[BoundedVectorReport]:
    """Norm inequality between the two bounded-vector operators, on random vectors.

    Both directions are checked with the same constant, the sup norm of the
    blockwise product of the two center-valued dimensions. When the right
    action is known to fill the commutant of the left one, the norms must
    agree outright.
    """
    verify_hypotheses(bm)
    constant = bm.cdim_product().sup_norm()
    fs = np.empty((trials, bm.space_dim), dtype=complex)
    for t in range(trials):
        fs[t] = gaussian_vector(campaign_rng(seed, t), bm.space_dim)
    left_norms = operator_norm(left_bounded_operator(fs, bm))
    right_norms = operator_norm(right_bounded_operator(fs, bm))
    reports = []
    for t, (ln, rn) in enumerate(zip(left_norms.tolist(), right_norms.tolist())):
        slack = max(rn - constant * ln, ln - constant * rn)
        passed = slack <= tol
        eq_dev = None
        if bm.right_is_full_commutant:
            eq_dev = abs(ln - rn)
            passed = passed and eq_dev <= tol * max(1.0, ln)
        reports.append(
            BoundedVectorReport(
                vector_id=t,
                left_norm=ln,
                right_norm=rn,
                cdim_product_sup=constant,
                slack=slack,
                equality_deviation=eq_dev,
                passed=passed,
            )
        )
    return reports


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_instance(
    seed: int,
    block_count: int = 2,
    space_cap: int = 32,
    blocks: Sequence[tuple[int, int, int]] | None = None,
) -> Bimodule:
    """A seeded bimodule exercising the norm inequality beyond the equality case.

    Per block (n, m, d): the right algebra acts as full n x n matrices with
    multiplicity m; the left algebra is a conjugated d x d matrix algebra
    (d dividing m) inside the block's commutant. Centers match by
    construction and the left trace is the induced one, so every hypothesis
    holds. Deterministic in the seed.
    """
    if space_cap > MAX_SPACE_DIM:
        raise ValueError(f"space cap {space_cap} exceeds the supported {MAX_SPACE_DIM}")
    rng = campaign_rng(seed, 0xB10C)
    if blocks is None:
        blocks = []
        used = 0
        for _ in range(block_count):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            e = int(rng.integers(1, 3))
            m = d * e
            if used + n * m > space_cap:
                n, m, d = 1, 1, 1
            if used + n * m > space_cap:
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
        if sum(n * m for n, m, _ in blocks) > space_cap:
            raise ValueError("requested blocks exceed the space cap")

    space_dim = sum(n * m for n, m, _ in blocks)
    right_alg = block_matrix_algebra([n for n, _, _ in blocks])
    left_alg = block_matrix_algebra([d for _, _, d in blocks])

    # right action: on each block, matrices act on the row factor of C^m (x) C^n
    right_images = np.zeros((right_alg.dimension, space_dim, space_dim), dtype=complex)
    idx = 0
    offs = 0
    for n, m, _ in blocks:
        for a in range(n):
            for b in range(n):
                unit = np.zeros((n, n), dtype=complex)
                unit[a, b] = 1.0
                right_images[idx, offs : offs + m * n, offs : offs + m * n] = np.kron(
                    np.eye(m), unit.T
                )
                idx += 1
        offs += m * n
    kappa_vals = []
    for n, _, _ in blocks:
        w = float(rng.uniform(0.5, 2.0))
        kappa_vals.extend(w if a == b else 0.0 for a in range(n) for b in range(n))
    kappa = TraceFunctional(right_alg, np.array(kappa_vals, dtype=complex))
    right = RightModule(right_alg, kappa, right_images)

    left_images = np.zeros((left_alg.dimension, space_dim, space_dim), dtype=complex)
    idx = 0
    offs = 0
    for n, m, d in blocks:
        u = _haar_unitary(rng, m)
        e = m // d
        for a in range(d):
            for b in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[a, b] = 1.0
                big = u @ np.kron(unit, np.eye(e)) @ u.conj().T
                left_images[idx, offs : offs + m * n, offs : offs + m * n] = np.kron(
                    big, np.eye(n)
                )
                idx += 1
        offs += m * n
    # the aligned left trace is the induced one, read off through the action
    tau = TraceFunctional(left_alg, induced_trace_evaluator(right)(left_images))
    left = LeftModule(left_alg, tau, left_images)
    full = all(m == d for _, m, d in blocks)
    return Bimodule(left, right, right_is_full_commutant=full)
