"""Seeded verification campaigns behind selftest and the acceptance suite.

Every function returns a flat list of named checks and is deterministic in
its arguments. Campaign randomness is split per item through campaign_rng,
so items can run in any order (or concurrently) without changing results.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    StarAlgebra,
    TraceFunctional,
    _standard_blocks,
    ampliated_matrix_algebra,
    block_matrix_algebra,
    center,
    center_valued_trace,
    full_matrix_algebra,
    gns,
    span_equal,
)
from .bimodule import (
    HypothesisError,
    bounded_norms,
    gaussian_vector,
    random_instance,
    verify_left_right_bounded,
)
from .duality import (
    gabor_bimodule,
    verify_bessel_duality,
    verify_cdim_covolume,
    verify_commutant,
)
from .groups import FiniteAbelianGroup, enumerate_subgroups
from .reporting import (
    TOL_DIMENSION,
    TOL_SPAN,
    TOL_SPECTRAL,
    Check,
    Report,
    campaign_rng,
    flag_check,
    make_bound_check,
)
from .vnmod import (
    RightModule,
    basic_construction,
    blockwise_deviation,
    blockwise_product,
    cdim,
    cdim_blockwise,
    direct_sum,
    gns_right_module,
    jones_sandwich_span,
    push_down,
)

DEFAULT_MAX_ORDER = 8
# the memoized builders, bound at import so that a wrapper installed later
# over the module names leaves their cache_clear in reach
_BUILDERS = (gabor_bimodule, _standard_blocks)
# vectors per chunk of A7's norms: the pairs conj(f) (x) f take 2.6 MB at
# h = 36, 2.9 MiB traced, where 1000 at once take 22.6 MiB; the norms then
# work on 6 x 6 matrices
_NORM_TRIALS = 125


def _cyclic_sweep(orders):
    for n in orders:
        group = FiniteAbelianGroup((n,))
        for li, lat in enumerate(enumerate_subgroups(group)):
            yield n, li, lat


def _gaussian_windows(group: FiniteAbelianGroup, trials: int, seed: int, *key) -> np.ndarray:
    """The values of Gaussian windows, the rows of one (trials, |G|) draw from
    campaign_rng(seed, *key), so window t is the same for every trials > t."""
    return gaussian_vector(campaign_rng(seed, *key), trials, group.size)


def _window_prefixes(prefix: str, trials: int) -> list[str]:
    return [f"{prefix}win{t:02d}/" for t in range(trials)]


def bessel_duality_sweep(
    max_order: int = DEFAULT_MAX_ORDER, trials: int = 20, seed: int = 0, tol: float = TOL_SPECTRAL
) -> list[Check]:
    """Adjoint-lattice bound equals covolume times the lattice bound (A1)."""
    checks = []
    for n, li, lat in _cyclic_sweep(range(2, max_order + 1)):
        windows = _gaussian_windows(lat.group, trials, seed, "bessel", n, li)
        prefixes = _window_prefixes(f"n{n}/lat{li:02d}/", trials)
        checks.extend(verify_bessel_duality(windows, lat, tol, prefixes))
    return checks


def commutant_sweep(max_order: int = DEFAULT_MAX_ORDER, tol: float = TOL_SPAN) -> list[Check]:
    """Shifts of the adjoint lattice span exactly the commutant (A2)."""
    checks = []
    for n, li, lat in _cyclic_sweep(range(2, max_order + 1)):
        checks.extend(verify_commutant(gabor_bimodule(lat), tol, prefix=f"n{n}/lat{li:02d}/"))
    return checks


def cdim_sweep(max_order: int = DEFAULT_MAX_ORDER, tol: float = TOL_DIMENSION) -> list[Check]:
    """Dimensions match covolumes on every lattice, plus trace alignment (A3)."""
    checks = []
    for n, li, lat in _cyclic_sweep(range(2, max_order + 1)):
        bm = gabor_bimodule(lat)
        checks.extend(verify_cdim_covolume(lat, bm, tol, prefix=f"n{n}/lat{li:02d}/"))
    return checks


def bounded_vector_sweep(
    orders=(2, 4, 6), trials: int = 100, seed: int = 0, tol: float = TOL_SPECTRAL
) -> list[Check]:
    """Operator-norm characterization of both bounds on random windows (A4)."""
    checks = []
    for n, li, lat in _cyclic_sweep(orders):
        bm = gabor_bimodule(lat)
        windows = _gaussian_windows(lat.group, trials, seed, "bounded", n, li)
        prefixes = _window_prefixes(f"n{n}/lat{li:02d}/", trials)
        checks.extend(verify_bessel_duality(windows, lat, tol, prefixes, bm=bm))
    return checks


def _child_seed(seed: int, label: str, index: int) -> int:
    rng = campaign_rng(seed, label, index)
    return int(rng.integers(0, 2**63 - 1))


def norm_inequality_sweep(
    instances: int = 50,
    trials: int = 100,
    seed: int = 0,
    tol: float = TOL_DIMENSION,
    gabor_orders=(2, 3, 4),
) -> list[Check]:
    """Norm inequality on random instances, equality on the Gabor ones (A5)."""
    checks = []
    for i in range(instances):
        bm = random_instance(_child_seed(seed, "instance", i), block_count=2)
        name = f"inst{i:02d}/"
        try:
            reports = verify_left_right_bounded(
                bm, trials, seed=_child_seed(seed, "trials", i), tol=tol
            )
        except HypothesisError as exc:
            checks.append(
                flag_check(f"{name}hypothesis-{exc.hypothesis}", False, exc.deviation, tol)
            )
            continue
        checks.append(flag_check(f"{name}hypotheses", True, 0.0, tol))
        worst = max((r.slack for r in reports), default=0.0)
        checks.append(make_bound_check(f"{name}norm-inequality", worst, 0.0, tol))
    for n, li, lat in _cyclic_sweep(gabor_orders):
        bm = gabor_bimodule(lat)
        reports = verify_left_right_bounded(
            bm, trials=20, seed=_child_seed(seed, "gabor", n * 100 + li), tol=tol
        )
        worst_eq = max(
            (r.equality_deviation / max(1.0, r.left_norm) for r in reports), default=0.0
        )
        checks.append(
            make_bound_check(f"gabor-n{n}/lat{li:02d}/norm-equality", worst_eq, 0.0, tol)
        )
    return checks


def _construction_instances() -> list[tuple[str, StarAlgebra, StarAlgebra]]:
    return [
        ("m4-over-m2", full_matrix_algebra(4), ampliated_matrix_algebra(2, 2)),
        ("m2m2-over-center", block_matrix_algebra([2, 2]), center(block_matrix_algebra([2, 2]))),
        ("m6-over-m3", full_matrix_algebra(6), ampliated_matrix_algebra(3, 2)),
    ]


def basic_construction_sweep(
    trials: int = 100, seed: int = 0, tol: float = TOL_DIMENSION
) -> list[Check]:
    """Generated algebra, weighted trace identity, push-down residuals (A6)."""
    checks = []
    for idx, (label, big, sub) in enumerate(_construction_instances()):
        kappa = TraceFunctional.from_matrix_trace(big)
        ctx = basic_construction(big, sub, kappa)
        # the two span checks keep TOL_SPAN whatever tol is
        checks.append(
            make_bound_check(f"{label}/commutant-span", ctx.commutant_defect, 0.0, TOL_SPAN)
        )
        equal, defect = span_equal(jones_sandwich_span(ctx), ctx.algebra)
        checks.append(flag_check(f"{label}/sandwich-span", equal, defect, TOL_SPAN))

        ez_big = center_valued_trace(ctx.big)
        ez_gen = center_valued_trace(ctx.algebra)
        weight = ctx.encode_left(ctx.dim_value.matrix)
        rng = campaign_rng(seed, "construction", idx)
        # every trial draws n1, then n2; all trials run as one (trials, ...) stack
        pairs = ctx.big.reconstruct(gaussian_vector(rng, trials, 2, ctx.big.dimension))
        n1, n2 = pairs[:, 0], pairs[:, 1]
        lhs = weight @ ez_gen(ctx.encode_left(n1) @ ctx.jones @ ctx.encode_left(n2))
        rhs = ctx.encode_left(ez_big(n1 @ n2))
        scales = np.maximum(1.0, np.linalg.norm(rhs, axis=(1, 2)))
        worst_tr = np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)) / scales, initial=0.0)
        checks.append(make_bound_check(f"{label}/weighted-trace-identity", worst_tr, 0.0, tol))

        a = ctx.algebra.reconstruct(gaussian_vector(rng, trials, ctx.algebra.dimension))
        resid = a @ ctx.jones - ctx.encode_left(push_down(a, ctx)) @ ctx.jones
        worst_pd = np.max(np.linalg.norm(resid, axis=(1, 2)), initial=0.0)
        checks.append(make_bound_check(f"{label}/push-down-residual", worst_pd, 0.0, tol))
    return checks


def _bounded_norms(fs: np.ndarray, module: RightModule) -> np.ndarray:
    """bounded_norms(fs, module) over _NORM_TRIALS vectors at a time, so that
    no (trials, h * h) stack of pairs is ever whole."""
    norms = np.empty(fs.shape[0])
    for s in range(0, fs.shape[0], _NORM_TRIALS):
        part = slice(s, s + _NORM_TRIALS)
        norms[part] = bounded_norms(fs[part], module)
    return norms


def coefficient_change_sweep(
    trials: int = 1000, seed: int = 0, tol: float = TOL_DIMENSION
) -> list[Check]:
    """Dimension under coefficient change, and the subalgebra norm bound (A7)."""
    checks = []
    for idx, (label, big, sub) in enumerate(_construction_instances()):
        kappa = TraceFunctional.from_matrix_trace(big)
        sp = gns(big, kappa)
        over_big = gns_right_module(sp, big)
        over_sub = gns_right_module(sp, sub)
        base_dim = cdim(over_sub)

        col_big = RightModule(big, kappa, big.basis.transpose(0, 2, 1), check=False)
        col_sub = RightModule(sub, over_sub.trace, sub.basis.transpose(0, 2, 1), check=False)
        for mod_label, h_big, h_sub in (
            ("gns", over_big, over_sub),
            ("columns", col_big, col_sub),
        ):
            dev = blockwise_deviation(cdim(h_sub), blockwise_product(base_dim, cdim(h_big)))
            checks.append(make_bound_check(f"{label}/{mod_label}/cdim-change", dev, 0.0, tol))

        constant = base_dim.sup_norm()
        if label == "m4-over-m2":
            checks.append(
                make_bound_check(f"{label}/constant-is-4", abs(constant - 4.0), 0.0, tol)
            )
        fs = gaussian_vector(campaign_rng(seed, "subalgebra", idx), trials, big.dimension)
        big_norms, sub_norms = _bounded_norms(fs, over_big), _bounded_norms(fs, over_sub)
        worst = float(np.max(big_norms - constant * sub_norms, initial=0.0))
        checks.append(make_bound_check(f"{label}/subalgebra-norm-bound", worst, 0.0, tol))
    return checks


def cross_oracle_sweep(
    seed: int = 0, tol: float = TOL_DIMENSION, max_order: int = 4
) -> list[Check]:
    """Projection-path dimension against the block-formula oracle (A8)."""
    checks = []
    for n, li, lat in _cyclic_sweep(range(2, max_order + 1)):
        bm = gabor_bimodule(lat)
        for side, mod in (("left", bm.left), ("right", bm.right)):
            dev = blockwise_deviation(cdim(mod), cdim_blockwise(mod))
            checks.append(make_bound_check(f"gabor-n{n}/lat{li:02d}/{side}", dev, 0.0, tol))
    for label, big, sub in _construction_instances():
        kappa = TraceFunctional.from_matrix_trace(big)
        gns_over_sub = gns_right_module(gns(big, kappa), sub)
        mods = {
            "gns-over-sub": gns_over_sub,
            "columns-over-big": RightModule(
                big, kappa, big.basis.transpose(0, 2, 1), check=False
            ),
            "doubled": direct_sum(gns_over_sub, gns_over_sub),
        }
        for mod_label, mod in mods.items():
            dev = blockwise_deviation(cdim(mod), cdim_blockwise(mod))
            checks.append(make_bound_check(f"{label}/{mod_label}", dev, 0.0, tol))
    for i in range(10):
        bm = random_instance(_child_seed(seed, "cross", i), block_count=2)
        for side, mod in (("left", bm.left), ("right", bm.right)):
            dev = blockwise_deviation(cdim(mod), cdim_blockwise(mod))
            checks.append(make_bound_check(f"random{i:02d}/{side}", dev, 0.0, tol))
    return checks


def _tolerances(tol: float | None) -> tuple[float, float, float]:
    """Span, dimension and spectral tolerances: the table's, or tol for all three."""
    if tol is None:
        return TOL_SPAN, TOL_DIMENSION, TOL_SPECTRAL
    return tol, tol, tol


def determinism_probe(seed: int = 7, order: int = 4) -> list[Check]:
    """One campaign rendered twice must emit byte-identical JSON (A9, internal form).

    Each render starts with both builder caches empty, as in a fresh process,
    so the second render never reads the objects the first one built.
    """

    def render() -> str:
        for builder in _BUILDERS:
            builder.cache_clear()
        return duality_report((order,), trials=3, seed=seed).to_json()

    same = render() == render()
    return [flag_check("duality-report-deterministic", same, 0.0 if same else 1.0, 0.0)]


def duality_report(
    orders,
    trials: int = 20,
    seed: int = 0,
    tol: float | None = None,
    lattice=None,
) -> Report:
    """Full duality verification for one group: per lattice the commutant,
    dimension, and alignment checks, then the Bessel identities on seeded
    Gaussian windows, the rows of one draw per lattice seeded by
    (command, lattice index)."""
    group = FiniteAbelianGroup(tuple(orders))
    lats = [lattice] if lattice is not None else enumerate_subgroups(group)
    span_tol, dim_tol, spec_tol = _tolerances(tol)
    report = Report(
        command="duality",
        parameters={
            "orders": list(group.orders),
            "all_lattices": lattice is None,
            "trials": trials,
            "tol": tol,
        },
        seed=seed,
    )
    for li, lat in enumerate(lats):
        prefix = f"lat{li:02d}/"
        bm = gabor_bimodule(lat)
        report.extend(verify_commutant(bm, span_tol, prefix=prefix))
        report.extend(verify_cdim_covolume(lat, bm, dim_tol, prefix=prefix))
        windows = _gaussian_windows(group, trials, seed, "duality", li)
        report.extend(
            verify_bessel_duality(windows, lat, spec_tol, _window_prefixes(prefix, trials), bm=bm)
        )
    return report


def selftest_report(
    max_order: int = DEFAULT_MAX_ORDER, seed: int = 0, tol: float | None = None
) -> Report:
    """The whole acceptance campaign, one summary check per criterion.

    Per-criterion counts and the names of any failing checks land in the
    report's data block, so a red summary line can be chased down.
    """
    span_tol, dim_tol, spec_tol = _tolerances(tol)
    small = min(4, max_order)
    sections = [
        ("a1-bessel-duality", bessel_duality_sweep(max_order, 20, seed, spec_tol), spec_tol),
        ("a2-commutant", commutant_sweep(max_order, span_tol), span_tol),
        ("a3-cdim-covolume", cdim_sweep(max_order, dim_tol), dim_tol),
        (
            "a4-bounded-vectors",
            bounded_vector_sweep(
                tuple(n for n in (2, 4, 6) if n <= max_order), 100, seed, spec_tol
            ),
            spec_tol,
        ),
        (
            "a5-norm-inequality",
            norm_inequality_sweep(
                50, 100, seed, dim_tol,
                gabor_orders=tuple(n for n in (2, 3, 4) if n <= max_order),
            ),
            dim_tol,
        ),
        ("a6-basic-construction", basic_construction_sweep(100, seed, dim_tol), dim_tol),
        ("a7-coefficient-change", coefficient_change_sweep(1000, seed, dim_tol), dim_tol),
        ("a8-cross-oracle", cross_oracle_sweep(seed, dim_tol, max_order=small), dim_tol),
        ("a9-determinism", determinism_probe(seed, order=small), 0.0),
    ]
    report = Report(
        command="selftest", parameters={"max_order": max_order, "tol": tol}, seed=seed
    )
    criteria = {}
    for name, checks, ctol in sections:
        worst = max((c.deviation for c in checks), default=0.0)
        # a criterion that ran no check has shown nothing, so it fails
        passed = bool(checks) and all(c.passed for c in checks)
        report.extend([flag_check(name, passed, worst, ctol)])
        criteria[name] = {
            "total": len(checks),
            "passed": sum(1 for c in checks if c.passed),
            "failed": sum(1 for c in checks if not c.passed),
            "failures": [c.name for c in checks if not c.passed][:10],
        }
    report.data["criteria"] = criteria
    return report
