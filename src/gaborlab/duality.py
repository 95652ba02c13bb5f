"""The Gabor bimodule over a phase-space lattice and its verification suite.

L2(G) carries the shifts from a lattice on the left and the shifts from its
adjoint on the right. Each twisted group algebra has one realisation, the
span of shifts: the lattice's algebra acts on L2(G) as itself, and the
adjoint's opposite-twisted algebra, the span of the transposed adjoint
shifts, acts by transposing back, which reverses products.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import TraceFunctional, commutant, read_only, twisted_group_algebra
from .bimodule import (
    Bimodule,
    bounded_norms,
    check_alignment,
)
from .gabor import Window, bessel_bound_opt
from .groups import InvalidElementError, Lattice, ResourceLimitError, covolume
# Lattice.adjoint makes every adjoint_lattice call; the name stays bound here
# because perfbench's tracer test checks that by-name imports get wrapped.
from .groups import adjoint_lattice  # noqa: F401
from .reporting import TOL_DIMENSION, TOL_SPAN, TOL_SPECTRAL, Check, make_bound_check, make_check
from .vnmod import (
    LeftModule,
    RightModule,
    blockwise_deviation,
    blockwise_product,
    cdim,
    cdim_blockwise,
)

# largest |G| that gabor_bimodule will build
GROUP_CAP = 12


@lru_cache(maxsize=256)
def gabor_bimodule(lat: Lattice) -> Bimodule:
    """L2(G) as a bimodule: lattice shifts on the left, adjoint shifts on the right.

    The left images are the lattice algebra's basis itself; the right images
    are the transposed basis of the adjoint's opposite algebra. Built once per
    lattice and shared by every caller, with what its algebras and modules
    cache on first use. Its arrays and its algebras' block splits are
    read-only; its modules' GNS factors, generators and synthesis are not.
    """
    group = lat.group
    if group.size > GROUP_CAP:
        raise ResourceLimitError(f"group size {group.size} exceeds the cap {GROUP_CAP}")
    left_alg = twisted_group_algebra(lat, "plain")
    right_alg = twisted_group_algebra(lat.adjoint, "opposite")
    # every shift but the identity is traceless, so the canonical state is Tr / |G|
    tau = TraceFunctional(left_alg, np.trace(left_alg.basis, axis1=1, axis2=2) * (1.0 / group.size))
    kappa = TraceFunctional(
        right_alg, np.trace(right_alg.basis, axis1=1, axis2=2) * (float(covolume(lat)) / group.size)
    )
    left = LeftModule(left_alg, tau, left_alg.basis)
    right = RightModule(right_alg, kappa, right_alg.basis.transpose(0, 2, 1))
    read_only(left_alg, right_alg, tau, kappa, left, right)
    return Bimodule(left, right, right_is_full_commutant=True)


def verify_commutant(bm: Bimodule, tol: float = TOL_SPAN, prefix: str = "") -> list[Check]:
    """The commutant of the lattice shifts is spanned by the adjoint shifts;
    bm is gabor_bimodule(lat).

    The commutant comes from the left algebra's own block split. The adjoint
    shifts are the right action's images, and the commutant's basis,
    transposed, is checked against the span of the transposed adjoint shifts
    that the right algebra holds: transposing is a Hilbert-Schmidt isometry.
    """
    computed = commutant(bm.left.algebra)
    theirs = bm.right.algebra
    worst_in = float(np.max(computed.residuals(bm.right.images)))
    worst_out = float(np.max(theirs.residuals(computed.basis.transpose(0, 2, 1))))
    return [
        make_check(f"{prefix}commutant-dim", computed.dimension, theirs.dimension, 0.0),
        make_bound_check(f"{prefix}adjoint-inside-commutant", worst_in, 0.0, tol),
        make_bound_check(f"{prefix}commutant-inside-adjoint", worst_out, 0.0, tol),
    ]


def verify_cdim_covolume(
    lat: Lattice, bm: Bimodule, tol: float = TOL_DIMENSION, prefix: str = ""
) -> list[Check]:
    """Center-valued dimension of L2(G) over the shift algebra is the covolume,
    and the traces align; bm is gabor_bimodule(lat)."""
    left_dim = cdim(bm.left)
    right_dim = cdim(bm.right)
    covol = float(covolume(lat))
    product = blockwise_product(left_dim, right_dim, embed_a=bm.left.act, embed_b=bm.right.act)
    cross = max(
        blockwise_deviation(left_dim, cdim_blockwise(bm.left)),
        blockwise_deviation(right_dim, cdim_blockwise(bm.right)),
    )
    deviations = {
        "cdim-left-covolume": left_dim.max_dev_from_scalar(covol),
        "cdim-right-reciprocal": right_dim.max_dev_from_scalar(1.0 / covol),
        "cdim-product-one": product.max_dev_from_scalar(1.0),
        "cdim-cross-oracle": cross,
        "trace-alignment": check_alignment(bm),
    }
    return [make_bound_check(f"{prefix}{name}", dev, 0.0, tol) for name, dev in deviations.items()]


def verify_bessel_duality(
    windows: Sequence[Window] | np.ndarray,
    lat: Lattice,
    tol: float = TOL_SPECTRAL,
    prefixes: Sequence[str] = ("",),
    bm: Bimodule | None = None,
) -> list[Check]:
    """The duality identity between the bound over the lattice and its adjoint,
    plus the operator-norm characterizations of both bounds, for each of the
    T windows, given as Windows or as a (T, |G|) stack of their values;
    window t's checks are named after prefixes[t] and come in window order.

    Every side is homogeneous of degree 2 in g, so the checks are decided for
    g / |g| with a gate relative to the bound; the reported deviation is that
    relative one, and the reported sides are scaled back by |g|^2. A zero
    window, or one whose squared norm or bounds overflow a float or fall
    below its smallest normal value, raises InvalidElementError.
    """
    if len(windows) == 0:
        raise ValueError("no windows: the Bessel checks need at least one window")
    if len(prefixes) != len(windows):
        raise ValueError(f"{len(windows)} windows but {len(prefixes)} check prefixes")
    if not isinstance(windows, np.ndarray):
        if any(g.group != lat.group for g in windows):
            raise InvalidElementError("window and lattice live over different groups")
        windows = [g.values for g in windows]
    values = np.array(windows, dtype=complex)
    if values.shape != (len(prefixes), lat.group.size):
        raise InvalidElementError(f"windows must be a (T, {lat.group.size}) stack")
    # |g|, taken after dividing by the largest component so that squaring tiny
    # or huge entries neither underflows nor overflows
    peaks = np.abs(values.view(float)).max(axis=1, initial=0.0)
    if not peaks.all():
        raise InvalidElementError("the window is zero, so every Bessel bound is 0")
    scaled = values / peaks[:, None]
    # <s, s> per row through matmul, which rounds as np.vdot does
    norms = peaks * np.sqrt((scaled.conj()[:, None, :] @ scaled[:, :, None])[:, 0, 0].real)
    with np.errstate(over="ignore", under="ignore"):  # bad input, raised below
        norms_sq = norms * norms
    _reject_outside_normal_floats("the squared norm", norms_sq, norms)
    units = values / norms[:, None]
    covol = float(covolume(lat))
    bound = bessel_bound_opt(units, lat)
    bound_adj = bessel_bound_opt(units, lat.adjoint)
    sides = {"bessel-duality": (bound_adj, covol * bound)}
    if bm is not None:
        rn, ln = bounded_norms(units, bm.left), bounded_norms(units, bm.right)
        sides["right-norm-bessel"] = (rn * rn, bound)
        sides["left-norm-bessel"] = (covol * ln * ln, bound_adj)
    # per check kind: relative deviation, and both sides scaled back by |g|^2
    devs = np.array([np.abs(lhs - rhs) / rhs for lhs, rhs in sides.values()])
    with np.errstate(over="ignore", under="ignore"):
        reported = np.array([(lhs * norms_sq, rhs * norms_sq) for lhs, rhs in sides.values()])
    _reject_outside_normal_floats("a Bessel bound", reported, norms)
    devs, reported = devs.T.tolist(), reported.transpose(2, 0, 1).tolist()
    return [
        Check(f"{prefix}{name}", dev <= tol, lhs, rhs, tol, dev)
        for prefix, window_devs, window_sides in zip(prefixes, devs, reported)
        for name, dev, (lhs, rhs) in zip(sides, window_devs, window_sides)
    ]


def _reject_outside_normal_floats(what: str, values: np.ndarray, norms: np.ndarray) -> None:
    """Raise if a value of window t (last axis) overflows a float, or falls
    below the smallest normal float and so has lost digits."""
    tests = {"overflows": ~np.isfinite(values), "underflows": values < np.finfo(float).tiny}
    for how, bad in tests.items():
        hit = bad.reshape(-1, len(norms)).any(axis=0)
        if hit.any():
            raise InvalidElementError(f"{what} of a window of norm {norms[hit][0]:.3e} {how} a float")

