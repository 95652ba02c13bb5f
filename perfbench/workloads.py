"""The benchmark's workloads: the calls one pass makes, and their output checks.

Each workload is a slice of the acceptance campaign (``gaborlab selftest``)
cut so that a different layer dominates it. The workload seed goes to the
campaigns as their ``seed``; it draws the windows, the random instances and
the random algebra elements. Calls are looked up by name when they run, so a
pass made with the tracer installed goes through the wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import traceback
from dataclasses import dataclass, field

# lattice-sweep runs A1-A3 up to Z6 instead of the acceptance suite's Z8:
# at Z8 one pass takes 40-50 s, too long to repeat within one timed run
LATTICE_MAX_ORDER = 6


@dataclass(frozen=True)
class Call:
    target: str  # "<module>.<function>" inside gaborlab
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def _cli_duality(orders: tuple[int, ...], seed: int) -> Call:
    argv = ["duality", "--orders", *map(str, orders), "--trials", "20", "--seed", str(seed)]
    return Call("cli.run", (argv,))


def lattice_sweep(seed: int) -> list[Call]:
    return [
        Call("campaigns.bessel_duality_sweep", (LATTICE_MAX_ORDER, 20, seed)),
        Call("campaigns.commutant_sweep", (LATTICE_MAX_ORDER,)),
        Call("campaigns.cdim_sweep", (LATTICE_MAX_ORDER,)),
        _cli_duality((2, 2), seed),
        _cli_duality((2, 3), seed),
    ]


def vector_sweep(seed: int) -> list[Call]:
    return [
        Call("campaigns.bounded_vector_sweep", ((2, 4, 6), 100, seed)),
        Call("campaigns.norm_inequality_sweep", (50, 100, seed)),
        Call("campaigns.cross_oracle_sweep", (seed,), {"max_order": 4}),
    ]


def algebra_inclusions(seed: int) -> list[Call]:
    return [
        Call("campaigns.basic_construction_sweep", (100, seed)),
        Call("campaigns.coefficient_change_sweep", (1000, seed)),
    ]


# name -> (calls for a seed, checks one pass must return; neither count
# depends on the seed)
WORKLOADS = {
    "lattice-sweep": (lattice_sweep, 8388),
    "vector-sweep": (vector_sweep, 15207),
    "algebra-inclusions": (algebra_inclusions, 22),
}


@dataclass
class PassOutcome:
    checks: int = 0  # checks returned by the calls, CLI reports included
    failed_checks: int = 0
    raised: int = 0  # calls that raised
    output_failures: int = 0  # CLI exit code, CLI summary, or check count wrong
    digest: str = ""  # check names, pass flags and CLI reports


def _resolve(target: str):
    module, _, attr = target.partition(".")
    return getattr(importlib.import_module(f"gaborlab.{module}"), attr)


def run_pass(calls: list[Call], expected_checks: int) -> PassOutcome:
    """Make the calls one after another and check everything they return."""
    out = PassOutcome()
    digest = hashlib.sha256()
    for call in calls:
        fn = _resolve(call.target)
        try:
            if call.target == "cli.run":
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = fn(*call.args, **call.kwargs)
                text = stdout.getvalue()
                report = json.loads(text)
                results = [(c["name"], c["passed"]) for c in report["checks"]]
                out.output_failures += (code != 0) + (report["summary"]["failed"] != 0)
                digest.update(text.encode())
            else:
                results = [(c.name, c.passed) for c in fn(*call.args, **call.kwargs)]
        except Exception:
            traceback.print_exc()
            out.raised += 1
            continue
        out.checks += len(results)
        out.failed_checks += sum(1 for _, passed in results if not passed)
        for name, passed in results:
            digest.update(f"{name}={int(bool(passed))}\n".encode())
    out.output_failures += out.checks != expected_checks
    out.digest = digest.hexdigest()
    return out
