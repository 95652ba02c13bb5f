"""Acceptance gate: every criterion as one test with one printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they complete. Each test drives the corresponding seeded campaign at its
stated tolerance and fails if any check inside the campaign fails.
"""

import hashlib
import json
import time

from gaborlab.campaigns import (
    basic_construction_sweep,
    bessel_duality_sweep,
    bounded_vector_sweep,
    cdim_sweep,
    coefficient_change_sweep,
    commutant_sweep,
    cross_oracle_sweep,
    norm_inequality_sweep,
)
from gaborlab.cli import run


def verdict(label, checks, elapsed, budget=None):
    failed = [c for c in checks if not c.passed]
    worst = max((c.deviation for c in checks), default=0.0)
    status = "PASS" if not failed else "FAIL"
    print(
        f"{label}: {status} ({len(checks)} checks, "
        f"worst deviation {worst:.3e}, {elapsed:.1f}s)"
    )
    assert not failed, f"{label} failing checks: {[c.name for c in failed[:5]]}"
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"


def timed(fn, **kw):
    start = time.perf_counter()
    checks = fn(**kw)
    return checks, time.perf_counter() - start


def test_a1_bessel_duality_sweep():
    checks, dt = timed(bessel_duality_sweep, max_order=8, trials=20, seed=0, tol=1e-8)
    verdict("A1 bessel duality, all lattices n=2..8, 20 windows", checks, dt, budget=120)


def test_a2_commutant_sweep():
    checks, dt = timed(commutant_sweep, max_order=8, tol=1e-10)
    verdict("A2 commutant identity, all lattices n=2..8", checks, dt, budget=60)


def test_a3_cdim_covolume_sweep():
    checks, dt = timed(cdim_sweep, max_order=8, tol=1e-9)
    verdict("A3 cdim = covolume and product = 1", checks, dt)


def test_a4_bounded_vector_sweep():
    checks, dt = timed(bounded_vector_sweep, orders=(2, 4, 6), trials=100, seed=0, tol=1e-8)
    verdict("A4 norm-squared = Bessel bound, 100 windows", checks, dt)


def test_a5_norm_inequality_instances():
    checks, dt = timed(norm_inequality_sweep, instances=50, trials=100, seed=0, tol=1e-9)
    verdict("A5 norm inequality on 50 random instances", checks, dt, budget=180)


def test_a6_basic_construction():
    checks, dt = timed(basic_construction_sweep, trials=100, seed=0, tol=1e-9)
    verdict("A6 basic construction on three inclusions", checks, dt)


def test_a7_coefficient_change():
    checks, dt = timed(coefficient_change_sweep, trials=1000, seed=0, tol=1e-9)
    verdict("A7 coefficient change and subalgebra norm bound", checks, dt)


def test_a8_cross_oracle():
    checks, dt = timed(cross_oracle_sweep, seed=0, tol=1e-9)
    verdict("A8 projection cdim vs block-formula cdim", checks, dt)


def test_a9_selftest_byte_determinism(capsys):
    start = time.perf_counter()
    code1 = run(["selftest", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = run(["selftest", "--seed", "7"])
    out2 = capsys.readouterr().out
    dt = time.perf_counter() - start
    identical = out1 == out2
    ok = code1 == 0 and code2 == 0 and identical
    status = "PASS" if ok else "FAIL"
    print(f"A9 selftest --seed 7 byte determinism: {status} ({len(out1)} bytes, {dt:.1f}s)")
    assert code1 == 0 and code2 == 0
    assert identical, "selftest reports differ between runs"
    report = json.loads(out1)
    assert report["summary"]["failed"] == 0
    # check names, pass flags, summary and per-criterion counts, pinned across versions
    contract = json.dumps(
        [
            [[check["name"], check["passed"]] for check in report["checks"]],
            report["summary"],
            report["data"]["criteria"],
        ],
        sort_keys=True,
    )
    digest = hashlib.sha256(contract.encode()).hexdigest()
    assert digest == "caf6006846d162cce4bdb5d88ed6268d83af4fa383374bc589182f18e75c7045"
