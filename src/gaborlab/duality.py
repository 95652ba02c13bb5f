"""The Gabor bimodule over a phase-space lattice and its verification suite.

L2(G) carries the shifts from a lattice on the left and the shifts from its
adjoint on the right. The twisted group algebra of the lattice acts through
the shifts themselves; for the adjoint side the same shift matrices realize
the opposite-twisted algebra, which is what makes the two actions commute.
"""

from __future__ import annotations

import numpy as np

from .algebra import StarAlgebra, commutant, span_equal, twisted_group_algebra
from .bimodule import (
    Bimodule,
    check_alignment,
    left_bounded_operator,
    operator_norm,
    right_bounded_operator,
)
from .gabor import Window, bessel_bound_opt, shift_stack
# Lattice.adjoint makes every adjoint_lattice call; the name stays bound here
# because perfbench's tracer test checks that by-name imports get wrapped.
from .groups import Lattice, ResourceLimitError, adjoint_lattice, covolume  # noqa: F401
from .reporting import Check, flag_check, make_check
from .vnmod import (
    LeftModule,
    RightModule,
    blockwise_deviation,
    blockwise_product,
    cdim,
    cdim_blockwise,
)

DEFAULT_GROUP_CAP = 12


def shift_algebra(lat: Lattice) -> StarAlgebra:
    """Span of the lattice shifts on L2(G); closed because shifts multiply
    projectively."""
    n = lat.group.size
    basis = shift_stack(lat) / np.sqrt(n)
    gens = tuple(basis[lat.index(g)] * np.sqrt(n) for g in lat.generators)
    return StarAlgebra(basis, generators=gens)


def gabor_bimodule(lat: Lattice, cap: int = DEFAULT_GROUP_CAP) -> Bimodule:
    """L2(G) as a bimodule: lattice shifts on the left, adjoint shifts on the right."""
    group = lat.group
    if group.size > cap:
        raise ResourceLimitError(f"group size {group.size} exceeds the cap {cap}")
    adj = lat.adjoint
    left_alg, tau = twisted_group_algebra(lat, "plain")
    right_alg, kappa_unit = twisted_group_algebra(adj, "opposite")
    kappa = kappa_unit.scaled(float(covolume(lat)))

    left_images = shift_stack(lat) / np.sqrt(lat.size)
    right_images = shift_stack(adj) / np.sqrt(adj.size)
    left = LeftModule(left_alg, tau, left_images)
    right = RightModule(right_alg, kappa, right_images)
    return Bimodule(left, right, commute_atol=1e-12, right_is_full_commutant=True)


def verify_commutant(lat: Lattice, tol: float = 1e-10, prefix: str = "") -> list[Check]:
    """The commutant of the lattice shifts is spanned by the adjoint shifts."""
    mine = shift_algebra(lat)
    theirs = shift_algebra(lat.adjoint)
    computed = commutant(mine)
    checks = [
        make_check(f"{prefix}commutant-dim", computed.dimension, theirs.dimension, 0.0)
    ]
    worst_in = max(computed.residual(b) for b in theirs.basis)
    worst_out = max(theirs.residual(b) for b in computed.basis)
    checks.append(flag_check(f"{prefix}adjoint-inside-commutant", worst_in <= tol, worst_in, tol))
    checks.append(flag_check(f"{prefix}commutant-inside-adjoint", worst_out <= tol, worst_out, tol))
    return checks


def verify_cdim_covolume(
    lat: Lattice, tol: float = 1e-9, prefix: str = "", bm: Bimodule | None = None
) -> list[Check]:
    """Center-valued dimension of L2(G) over the shift algebra is the covolume."""
    if bm is None:
        bm = gabor_bimodule(lat)
    left_dim = cdim(bm.left)
    right_dim = cdim(bm.right)
    covol = float(covolume(lat))
    checks = [
        flag_check(
            f"{prefix}cdim-left-covolume",
            left_dim.max_dev_from_scalar(covol) <= tol,
            left_dim.max_dev_from_scalar(covol),
            tol,
        ),
        flag_check(
            f"{prefix}cdim-right-reciprocal",
            right_dim.max_dev_from_scalar(1.0 / covol) <= tol,
            right_dim.max_dev_from_scalar(1.0 / covol),
            tol,
        ),
    ]
    product = blockwise_product(
        left_dim, right_dim, embed_a=bm.left.act, embed_b=bm.right.act
    )
    checks.append(
        flag_check(
            f"{prefix}cdim-product-one",
            product.max_dev_from_scalar(1.0) <= tol,
            product.max_dev_from_scalar(1.0),
            tol,
        )
    )
    cross = max(
        blockwise_deviation(left_dim, cdim_blockwise(bm.left)),
        blockwise_deviation(right_dim, cdim_blockwise(bm.right)),
    )
    checks.append(flag_check(f"{prefix}cdim-cross-oracle", cross <= tol, cross, tol))
    return checks


def verify_bessel_duality(
    g: Window,
    lat: Lattice,
    tol: float = 1e-8,
    prefix: str = "",
    bm: Bimodule | None = None,
) -> list[Check]:
    """The duality identity between the bound over the lattice and its adjoint,
    plus the operator-norm characterizations of both bounds."""
    covol = float(covolume(lat))
    bound = bessel_bound_opt(g, lat)
    bound_adj = bessel_bound_opt(g, lat.adjoint)
    checks = []
    dev = abs(bound_adj - covol * bound)
    lim = tol * max(1.0, bound)
    checks.append(Check(f"{prefix}bessel-duality", dev <= lim, bound_adj, covol * bound, lim, dev))
    if bm is not None:
        rn = operator_norm(right_bounded_operator(g.values, bm))
        dev_r = abs(rn * rn - bound)
        lim_r = tol * max(1.0, bound)
        checks.append(
            Check(f"{prefix}right-norm-bessel", dev_r <= lim_r, rn * rn, bound, lim_r, dev_r)
        )
        ln = operator_norm(left_bounded_operator(g.values, bm))
        dev_l = abs(covol * ln * ln - bound_adj)
        lim_l = tol * max(1.0, bound_adj)
        checks.append(
            Check(
                f"{prefix}left-norm-bessel",
                dev_l <= lim_l,
                covol * ln * ln,
                bound_adj,
                lim_l,
                dev_l,
            )
        )
    return checks


def verify_gabor_alignment(
    lat: Lattice, tol: float = 1e-9, prefix: str = "", bm: Bimodule | None = None
) -> Check:
    if bm is None:
        bm = gabor_bimodule(lat)
    report = check_alignment(bm, tol)
    return flag_check(f"{prefix}trace-alignment", report.aligned, report.deviation, tol)
