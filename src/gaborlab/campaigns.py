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
    ampliated_matrix_algebra,
    block_matrix_algebra,
    center_valued_trace,
    full_matrix_algebra,
    gns,
    span_equal,
)
from .bimodule import (
    HypothesisError,
    gaussian_vector,
    operator_norm,
    random_instance,
    verify_left_right_bounded,
)
from .duality import (
    gabor_bimodule,
    verify_bessel_duality,
    verify_cdim_covolume,
    verify_commutant,
    verify_gabor_alignment,
)
from .gabor import Window
from .groups import FiniteAbelianGroup, enumerate_subgroups
from .reporting import Check, Report, campaign_rng, flag_check, make_bound_check
from .vnmod import (
    RightModule,
    basic_construction,
    blockwise_deviation,
    bounded_operator,
    cdim,
    cdim_blockwise,
    direct_sum,
    jones_sandwich_span,
    pair_blocks,
    push_down,
)

DEFAULT_MAX_ORDER = 8


def _cyclic_sweep(max_order: int):
    for n in range(2, max_order + 1):
        group = FiniteAbelianGroup((n,))
        for li, lat in enumerate(enumerate_subgroups(group)):
            yield n, li, lat


def _gaussian_window(group: FiniteAbelianGroup, rng: np.random.Generator) -> Window:
    return Window(group, gaussian_vector(rng, group.size))


def bessel_duality_sweep(
    max_order: int = DEFAULT_MAX_ORDER, trials: int = 20, seed: int = 0, tol: float = 1e-8
) -> list[Check]:
    """Adjoint-lattice bound equals covolume times the lattice bound (A1)."""
    checks = []
    for n, li, lat in _cyclic_sweep(max_order):
        for t in range(trials):
            g = _gaussian_window(lat.group, campaign_rng(seed, "bessel", n, li, t))
            checks.extend(
                verify_bessel_duality(g, lat, tol, prefix=f"n{n}/lat{li:02d}/win{t:02d}/")
            )
    return checks


def commutant_sweep(max_order: int = DEFAULT_MAX_ORDER, tol: float = 1e-10) -> list[Check]:
    """Shifts of the adjoint lattice span exactly the commutant (A2)."""
    checks = []
    for n, li, lat in _cyclic_sweep(max_order):
        checks.extend(verify_commutant(lat, tol, prefix=f"n{n}/lat{li:02d}/"))
    return checks


def cdim_sweep(max_order: int = DEFAULT_MAX_ORDER, tol: float = 1e-9) -> list[Check]:
    """Dimensions match covolumes on every lattice, plus trace alignment (A3)."""
    checks = []
    for n, li, lat in _cyclic_sweep(max_order):
        bm = gabor_bimodule(lat)
        checks.extend(verify_cdim_covolume(lat, tol, prefix=f"n{n}/lat{li:02d}/", bm=bm))
        checks.append(verify_gabor_alignment(lat, prefix=f"n{n}/lat{li:02d}/", bm=bm))
    return checks


def bounded_vector_sweep(
    orders=(2, 4, 6), trials: int = 100, seed: int = 0, tol: float = 1e-8
) -> list[Check]:
    """Operator-norm characterization of both bounds on random windows (A4)."""
    checks = []
    for n in orders:
        group = FiniteAbelianGroup((n,))
        for li, lat in enumerate(enumerate_subgroups(group)):
            bm = gabor_bimodule(lat)
            for t in range(trials):
                g = _gaussian_window(group, campaign_rng(seed, "bounded", n, li, t))
                checks.extend(
                    verify_bessel_duality(
                        g, lat, tol, prefix=f"n{n}/lat{li:02d}/win{t:02d}/", bm=bm
                    )
                )
    return checks


def _child_seed(seed: int, label: str, index: int) -> int:
    rng = campaign_rng(seed, label, index)
    return int(rng.integers(0, 2**63 - 1))


def norm_inequality_sweep(
    instances: int = 50,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    space_cap: int = 32,
    gabor_orders=(2, 3, 4),
) -> list[Check]:
    """Norm inequality on random instances, equality on the Gabor ones (A5)."""
    checks = []
    for i in range(instances):
        bm = random_instance(_child_seed(seed, "instance", i), block_count=2, space_cap=space_cap)
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
    for n in gabor_orders:
        group = FiniteAbelianGroup((n,))
        for li, lat in enumerate(enumerate_subgroups(group)):
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
    center_sub = StarAlgebra(
        np.stack(
            [
                np.diag([1, 1, 0, 0]).astype(complex) / np.sqrt(2),
                np.diag([0, 0, 1, 1]).astype(complex) / np.sqrt(2),
            ]
        ),
        generators=(np.diag([1.0, 1, 0, 0]).astype(complex),),
    )
    return [
        ("m4-over-m2", full_matrix_algebra(4), ampliated_matrix_algebra(2, 2)),
        ("m2m2-over-center", block_matrix_algebra([2, 2]), center_sub),
        ("m6-over-m3", full_matrix_algebra(6), ampliated_matrix_algebra(3, 2)),
    ]


def _random_element(alg: StarAlgebra, rng: np.random.Generator) -> np.ndarray:
    return alg.reconstruct(gaussian_vector(rng, alg.dimension))


def basic_construction_sweep(trials: int = 100, seed: int = 0, tol: float = 1e-9) -> list[Check]:
    """Generated algebra, weighted trace identity, push-down residuals (A6)."""
    checks = []
    for idx, (label, big, sub) in enumerate(_construction_instances()):
        kappa = TraceFunctional.from_matrix_trace(big)
        ctx = basic_construction(big, sub, kappa)
        checks.append(
            flag_check(
                f"{label}/commutant-span",
                ctx.commutant_defect <= 1e-10,
                ctx.commutant_defect,
                1e-10,
            )
        )
        sandwich = jones_sandwich_span(ctx)
        equal, defect = span_equal(sandwich, ctx.algebra)
        checks.append(flag_check(f"{label}/sandwich-span", equal, defect, 1e-10))

        ez_big = center_valued_trace(ctx.big)
        ez_gen = center_valued_trace(ctx.algebra)
        weight = ctx.encode_left(ctx.dim_value.matrix)
        rng = campaign_rng(seed, "construction", idx)
        worst_tr = 0.0
        for _ in range(trials):
            n1 = _random_element(ctx.big, rng)
            n2 = _random_element(ctx.big, rng)
            lhs = weight @ ez_gen(ctx.encode_left(n1) @ ctx.jones @ ctx.encode_left(n2))
            rhs = ctx.encode_left(ez_big(n1 @ n2))
            scale = max(1.0, float(np.linalg.norm(rhs)))
            worst_tr = max(worst_tr, float(np.linalg.norm(lhs - rhs)) / scale)
        checks.append(make_bound_check(f"{label}/weighted-trace-identity", worst_tr, 0.0, tol))

        worst_pd = 0.0
        for _ in range(trials):
            a = _random_element(ctx.algebra, rng)
            pushed = push_down(a, ctx)
            resid = a @ ctx.jones - ctx.encode_left(pushed) @ ctx.jones
            worst_pd = max(worst_pd, float(np.linalg.norm(resid)))
        checks.append(make_bound_check(f"{label}/push-down-residual", worst_pd, 0.0, tol))
    return checks


def _coefficient_change_deviation(lhs, base, right) -> float:
    """Blockwise |lhs - base*right| where all three share one center."""
    to_base = dict(pair_blocks(lhs, base))
    to_right = dict(pair_blocks(lhs, right))
    return float(
        max(
            abs(
                lhs.coefficients[i]
                - base.coefficients[to_base[i]] * right.coefficients[to_right[i]]
            )
            for i in range(len(lhs.projections))
        )
    )


def _restriction_trace(sub: StarAlgebra, kappa: TraceFunctional) -> TraceFunctional:
    return TraceFunctional(sub, np.array([kappa(b) for b in sub.basis]))


def coefficient_change_sweep(trials: int = 1000, seed: int = 0, tol: float = 1e-9) -> list[Check]:
    """Dimension under coefficient change, and the subalgebra norm bound (A7)."""
    checks = []
    for idx, (label, big, sub) in enumerate(_construction_instances()):
        kappa = TraceFunctional.from_matrix_trace(big)
        kappa_sub = _restriction_trace(sub, kappa)
        sp = gns(big, kappa)
        over_big = RightModule(
            big, kappa, np.stack([sp.right(b) for b in big.basis]), check=False
        )
        over_sub = RightModule(
            sub, kappa_sub, np.stack([sp.right(b) for b in sub.basis]), check=False
        )
        base_dim = cdim(over_sub)

        col_big = RightModule(big, kappa, big.basis.transpose(0, 2, 1), check=False)
        col_sub = RightModule(sub, kappa_sub, sub.basis.transpose(0, 2, 1), check=False)
        for mod_label, h_big, h_sub in (
            ("gns", over_big, over_sub),
            ("columns", col_big, col_sub),
        ):
            dev = _coefficient_change_deviation(cdim(h_sub), base_dim, cdim(h_big))
            checks.append(make_bound_check(f"{label}/{mod_label}/cdim-change", dev, 0.0, tol))

        constant = base_dim.sup_norm()
        if label == "m4-over-m2":
            checks.append(
                flag_check(
                    f"{label}/constant-is-4", abs(constant - 4.0) <= tol, abs(constant - 4.0), tol
                )
            )
        rng = campaign_rng(seed, "subalgebra", idx)
        worst = 0.0
        for _ in range(trials):
            f = gaussian_vector(rng, big.dimension)
            big_norm = operator_norm(bounded_operator(f, over_big))
            sub_norm = operator_norm(bounded_operator(f, over_sub))
            worst = max(worst, big_norm - constant * sub_norm)
        checks.append(make_bound_check(f"{label}/subalgebra-norm-bound", worst, 0.0, tol))
    return checks


def cross_oracle_sweep(seed: int = 0, tol: float = 1e-9, max_order: int = 4) -> list[Check]:
    """Projection-path dimension against the block-formula oracle (A8)."""
    checks = []
    for n, li, lat in _cyclic_sweep(max_order):
        bm = gabor_bimodule(lat)
        for side, mod in (("left", bm.left), ("right", bm.right)):
            dev = blockwise_deviation(cdim(mod), cdim_blockwise(mod))
            checks.append(make_bound_check(f"gabor-n{n}/lat{li:02d}/{side}", dev, 0.0, tol))
    for label, big, sub in _construction_instances():
        kappa = TraceFunctional.from_matrix_trace(big)
        kappa_sub = _restriction_trace(sub, kappa)
        sp = gns(big, kappa)
        gns_over_sub = RightModule(
            sub, kappa_sub, np.stack([sp.right(b) for b in sub.basis]), check=False
        )
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


def determinism_probe(seed: int = 7, order: int = 4) -> list[Check]:
    """One campaign rendered twice must emit byte-identical JSON (A9, internal form)."""
    orders = (order,)
    same = (
        duality_report(orders, trials=3, seed=seed).to_json()
        == duality_report(orders, trials=3, seed=seed).to_json()
    )
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
    Gaussian windows. Per-window seeds hash (command, lattice index, trial)."""
    group = FiniteAbelianGroup(tuple(orders))
    lats = [lattice] if lattice is not None else enumerate_subgroups(group)
    btol = 1e-8 if tol is None else tol
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
        report.extend(verify_commutant(lat, 1e-10 if tol is None else tol, prefix=prefix))
        report.extend(
            verify_cdim_covolume(lat, 1e-9 if tol is None else tol, prefix=prefix, bm=bm)
        )
        report.extend(
            [verify_gabor_alignment(lat, 1e-9 if tol is None else tol, prefix=prefix, bm=bm)]
        )
        for t in range(trials):
            g = _gaussian_window(group, campaign_rng(seed, "duality", li, t))
            report.extend(
                verify_bessel_duality(g, lat, btol, prefix=f"{prefix}win{t:02d}/", bm=bm)
            )
    return report


def selftest_report(
    max_order: int = DEFAULT_MAX_ORDER, seed: int = 0, tol: float | None = None
) -> Report:
    """The whole acceptance campaign, one summary check per criterion.

    Per-criterion counts and the names of any failing checks land in the
    report's data block, so a red summary line can be chased down.
    """

    def pick(default: float) -> float:
        return default if tol is None else tol

    small = min(4, max_order)
    sections = [
        ("a1-bessel-duality", bessel_duality_sweep(max_order, 20, seed, pick(1e-8)), pick(1e-8)),
        ("a2-commutant", commutant_sweep(max_order, pick(1e-10)), pick(1e-10)),
        ("a3-cdim-covolume", cdim_sweep(max_order, pick(1e-9)), pick(1e-9)),
        (
            "a4-bounded-vectors",
            bounded_vector_sweep(
                tuple(n for n in (2, 4, 6) if n <= max_order), 100, seed, pick(1e-8)
            ),
            pick(1e-8),
        ),
        (
            "a5-norm-inequality",
            norm_inequality_sweep(
                50, 100, seed, pick(1e-9),
                gabor_orders=tuple(n for n in (2, 3, 4) if n <= max_order),
            ),
            pick(1e-9),
        ),
        ("a6-basic-construction", basic_construction_sweep(100, seed, pick(1e-9)), pick(1e-9)),
        ("a7-coefficient-change", coefficient_change_sweep(1000, seed, pick(1e-9)), pick(1e-9)),
        ("a8-cross-oracle", cross_oracle_sweep(seed, pick(1e-9), max_order=small), pick(1e-9)),
        ("a9-determinism", determinism_probe(seed, order=small), 0.0),
    ]
    report = Report(
        command="selftest", parameters={"max_order": max_order, "tol": tol}, seed=seed
    )
    criteria = {}
    for name, checks, ctol in sections:
        worst = max((c.deviation for c in checks), default=0.0)
        passed = all(c.passed for c in checks)
        report.extend([flag_check(name, passed, worst, ctol)])
        criteria[name] = {
            "total": len(checks),
            "passed": sum(1 for c in checks if c.passed),
            "failed": sum(1 for c in checks if not c.passed),
            "failures": [c.name for c in checks if not c.passed][:10],
        }
    report.data["criteria"] = criteria
    return report
