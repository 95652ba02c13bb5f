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
    FaithfulnessError,
    SpanError,
    StarAlgebra,
    TraceFunctional,
    block_matrix_algebra,
    center,
    gns,
    span_equal,
)
from .reporting import campaign_rng
from .vnmod import (
    CenterElement,
    LeftModule,
    RightModule,
    blockwise_deviation,
    blockwise_product,
    bounded_operator,
    cdim,
    commutant_of_action,
    induced_trace,
    induced_trace_evaluator,
    reduce_module,
    spanning_generators,
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
        # unfaithful sides are replaced by their reductions up front
        self.left = left if left.faithful else reduce_module(left)
        self.right = right if right.faithful else reduce_module(right)
        self.space_dim = left.space_dim
        self.right_is_full_commutant = right_is_full_commutant
        worst = 0.0
        for lm in self.left.image_algebra.gen_matrices():
            for rm in self.right.image_algebra.gen_matrices():
                worst = max(worst, float(np.max(np.abs(lm @ rm - rm @ lm))))
        self.commutation_defect = worst
        if worst > commute_atol:
            raise SpanError(f"actions do not commute (defect {worst:.3e})")

    def act_left(self, mat: np.ndarray) -> np.ndarray:
        return self.left.act(mat)

    def act_right(self, mat: np.ndarray) -> np.ndarray:
        return self.right.act(mat)

    def cdim_product(self) -> CenterElement:
        """Blockwise cdim(left) * cdim(right), matched inside the operator space."""
        return blockwise_product(
            cdim(self.left),
            cdim(self.right),
            embed_a=self.left.act,
            embed_b=self.right.act,
        )


def left_bounded_operator(f: np.ndarray, bm: Bimodule) -> np.ndarray:
    """The operator sending a right-GNS vector n-hat to f acted on the right by n."""
    return bounded_operator(f, bm.right)


def right_bounded_operator(f: np.ndarray, bm: Bimodule) -> np.ndarray:
    """The operator sending a left-GNS vector m-hat to f acted on the left by m."""
    return bounded_operator(f, bm.left)


def operator_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


@dataclass
class AlignmentReport:
    aligned: bool
    deviation: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.aligned

    def to_dict(self) -> dict:
        return {
            "aligned": self.aligned,
            "deviation": float(self.deviation),
            "tolerance": float(self.tolerance),
        }


def check_alignment(bm: Bimodule, tol: float = 1e-9) -> AlignmentReport:
    """Compare the left trace against the trace induced by the right one.

    The induced trace on the commutant of the right action restricts to the
    left algebra's image; alignment means the restriction reproduces the
    left trace on every basis element.
    """
    evaluate = induced_trace_evaluator(bm.right)
    worst = 0.0
    for mat, value in zip(bm.left.algebra.basis, bm.left.trace.values):
        moved = evaluate(bm.left.act(mat))
        worst = max(worst, abs(complex(value) - moved))
    return AlignmentReport(worst <= tol, worst, tol)


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


def gaussian_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def verify_hypotheses(bm: Bimodule, tol: float = 1e-8) -> dict:
    """Check the norm-inequality hypotheses, raising on the first failure."""
    if not bm.left.faithful:
        raise HypothesisError("left action faithful", 1.0)
    if not bm.right.faithful:
        raise HypothesisError("right action faithful", 1.0)
    try:
        gens_left = spanning_generators(bm.left)
        gens_right = spanning_generators(bm.right)
    except SpanError as exc:
        raise HypothesisError("finite generation", float("nan")) from exc
    equal, defect = span_equal(
        center(bm.left.image_algebra), center(bm.right.image_algebra), tol
    )
    if not equal:
        raise HypothesisError("matching centers", defect)
    alignment = check_alignment(bm)
    if not alignment.aligned:
        raise HypothesisError("trace alignment", alignment.deviation)
    return {
        "left_generators": len(gens_left),
        "right_generators": len(gens_right),
        "center_defect": float(defect),
        "alignment_deviation": float(alignment.deviation),
    }


def verify_left_right_bounded(
    bm: Bimodule, trials: int = 100, seed: int = 0, tol: float = 1e-9
) -> list[BoundedVectorReport]:
    """Norm inequality between the two bounded-vector operators, on random vectors.

    Both directions are checked with the same constant, the sup norm of the
    blockwise product of the two center-valued dimensions. When the right
    action is known to fill the commutant of the left one, the norms must
    agree outright.
    """
    verify_hypotheses(bm)
    constant = bm.cdim_product().sup_norm()
    reports = []
    for t in range(trials):
        f = gaussian_vector(campaign_rng(seed, t), bm.space_dim)
        ln = operator_norm(left_bounded_operator(f, bm))
        rn = operator_norm(right_bounded_operator(f, bm))
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


def cdim_product_identity_deviation(bm: Bimodule) -> float:
    """Deviation in: cdim(left) * cdim(right) = cdim of the left module on
    the GNS space of the right action's commutant."""
    product = bm.cdim_product()
    big = commutant_of_action(bm.right)
    big_trace = induced_trace(bm.right, big)
    sp = gns(big, big_trace)
    images = np.stack([sp.left(bm.left.act(b)) for b in bm.left.algebra.basis])
    moved = LeftModule(bm.left.algebra, bm.left.trace, images, check=False)
    return blockwise_deviation(product, cdim(moved))


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
    evaluate = induced_trace_evaluator(right)
    tau_vals = np.array([evaluate(img) for img in left_images], dtype=complex)
    tau = TraceFunctional(left_alg, tau_vals)
    left = LeftModule(left_alg, tau, left_images)
    full = all(m == d for _, m, d in blocks)
    return Bimodule(left, right, right_is_full_commutant=full)
