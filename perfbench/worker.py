"""One pass of a workload in a fresh interpreter, so gaborlab's caches start cold.

Usage: worker.py WORKLOAD SEED TRACE SPAWNED_AT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, importing gaborlab and building the workload's calls.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import json
import os
import resource
import sys
import time


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    workload, seed, trace, spawned_at = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    from tracer import LAYERS, Tracer, per_layer_metrics
    from workloads import WORKLOADS, run_pass

    for layer in LAYERS:
        importlib.import_module(f"gaborlab.{layer}")
    make_calls, expected = WORKLOADS[workload]
    calls = make_calls(seed)
    shift_stack = sys.modules["gaborlab.gabor"].shift_stack
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_s = time.monotonic() - spawned_at

    start = time.perf_counter()
    outcome = run_pass(calls, expected)
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": outcome.checks,
        "failed_checks": outcome.failed_checks,
        "raised": outcome.raised,
        "output_failures": outcome.output_failures,
        "digest": outcome.digest,
        "blas_threads": blas_threads(),
    }
    if tracer:
        tracer.remove()
        result["layers"] = per_layer_metrics(tracer, shift_stack.cache_info())
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
