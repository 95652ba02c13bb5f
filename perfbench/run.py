"""gaborlab benchmark: timed passes of one workload, each in a fresh worker.

Usage, from the repository root:

    python3 perfbench/run.py --workload lattice-sweep --seed 0 --seconds 30 --trace 0

One client drives the workload in a closed loop: a pass starts only after
the previous one has returned, and every pass runs in a new worker process
so that gaborlab's own caches start cold, as they do for a CLI user. Passes
repeat until the next one would overrun ``--seconds`` (at least three run).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics. Full results, the machine block and (traced runs) the
spans go to ``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
# no pass starts after LAST_START_S and none runs past DEADLINE_S, so a run
# ends inside 180 s even when the machine is slow
LAST_START_S = 120.0
DEADLINE_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: str) -> str:
    """HEAD of ./.git read as files (the benchmark may run outside a repo)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(src: str) -> int:
    """Non-blank lines of src/gaborlab/*.py (recorded, never gated on)."""
    pkg = os.path.join(src, "gaborlab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for line in fh if line.strip())
    return total


def machine_block(root: str, src: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "commit": git_commit(root),
        "src_lines": src_lines(src),
    }


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # OpenBLAS may use every core; never more threads than cores
    threads = min(int(env.get("OPENBLAS_NUM_THREADS", nproc())), nproc())
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def run_worker(workload: str, seed: int, traced: bool, env: dict, timeout: float) -> dict:
    """One pass; a worker that crashes or times out gives {"error": ...}."""
    spawned = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            "1" if traced else "0", repr(spawned)]
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s"}
    elapsed = time.monotonic() - spawned
    if proc.returncode != 0:
        return {"traced": traced, "error": f"worker exited with {proc.returncode}"}
    try:
        result = json.loads(proc.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        return {"traced": traced, "error": "worker printed no result"}
    result.update(traced=traced, elapsed_s=elapsed)
    return result


def tail_percentile(values: list[float]):
    """(p, value) for the highest of p90/p99/p99.9 with at least ten samples
    above it, or None when the run has too few samples for any of them."""
    ordered = sorted(values)
    for per_mille in (999, 990, 900):
        above = len(ordered) * (1000 - per_mille) // 1000
        if above >= 10:
            return per_mille / 10, ordered[len(ordered) - above - 1]
    return None


def run_passes(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> list[dict]:
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = [p["elapsed_s"] for p in passes if "elapsed_s" in p]
        next_pass = statistics.median(done) if done else 0.0
        kinds = {p["traced"] for p in passes}
        enough = len(passes) >= MIN_PASSES and (not trace or kinds == {False, True})
        if passes and (enough and elapsed + next_pass > seconds or elapsed > LAST_START_S):
            return passes
        traced = trace and len(passes) % 2 == 1  # untraced, traced, untraced, ...
        passes.append(run_worker(workload, seed, traced, env, DEADLINE_S - elapsed))


def summarize(passes: list[dict], expected: int, trace: bool) -> dict:
    ok = [p for p in passes if "error" not in p]
    digests = {p["digest"] for p in ok}
    attempted = sum(max(p.get("checks", 0), expected) for p in passes)
    failed = (
        sum(p["failed_checks"] + p["raised"] + p["output_failures"] for p in ok)
        + (len(passes) - len(ok))  # workers that crashed
        + (len(digests) > 1)  # passes of one run disagree
    )
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if not untraced or (trace and not traced):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": None}

    def med(key, group=untraced):
        return statistics.median(p[key] for p in group)

    if trace:
        layers = [p["layers"] for p in traced]
        metrics = {
            name: {"value": statistics.median(m[name] for m in layers), "unit": unit_of(name)}
            for name in layers[0]
        }
        metrics["tracing.overhead_ratio"] = {
            "value": med("wall_s", traced) / med("wall_s"), "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
            "pass_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
            "checks": {"value": statistics.median_low(p["checks"] for p in untraced), "unit": "count"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def write_results(root: str, args, machine: dict, passes: list[dict], summary: dict) -> str:
    out_dir = os.path.join(root, "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = [(i, p.pop("spans")) for i, p in enumerate(passes) if "spans" in p]
    walls = [p["wall_s"] for p in passes if "wall_s" in p and not p["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "passes": passes,
        "pass_count": len(passes),
        "wall_s_tail": tail_percentile(walls),
        **summary,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        # one line per span: pass id, span id, parent id, name, start, end, error
        with open(stem + "-spans.jsonl", "w") as fh:
            for pass_id, pass_spans in spans:
                for span_id, (name, parent, start, end, error) in enumerate(pass_spans):
                    fh.write(json.dumps([pass_id, span_id, parent, name, start, end, error]) + "\n")
    return stem + ".json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gaborlab", "__init__.py")):
        print("perfbench: src/gaborlab not found; run from the repository root", file=sys.stderr)
        return 2
    machine = machine_block(root, src)
    env = worker_env(src)
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), env)
    machine["blas_threads"] = next((p["blas_threads"] for p in passes if "blas_threads" in p), None)
    summary = summarize(passes, WORKLOADS[args.workload][1], bool(args.trace))
    path = write_results(root, args, machine, passes, summary)
    print(f"perfbench: {len(passes)} passes, results in {os.path.relpath(path, root)}",
          file=sys.stderr)
    if summary["metrics"] is None:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
