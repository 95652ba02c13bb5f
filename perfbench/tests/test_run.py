"""run.py's summary agrees with BENCHMARK.json and flags bad passes."""

import json
import os

import run
from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def fake_pass(traced=False, digest="d", failed_checks=0, wall_s=1.0):
    out = {
        "traced": traced,
        "setup_s": 0.2,
        "wall_s": wall_s,
        "peak_rss_mb": 50.0,
        "checks": 22,
        "failed_checks": failed_checks,
        "raised": 0,
        "output_failures": 0,
        "digest": digest,
    }
    if traced:
        out["layers"] = per_layer_metrics(Tracer())
    return out


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_and_workload_names_match_benchmark_json():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    plain = run.summarize([fake_pass(), fake_pass()], 22, trace=False)
    assert list(plain["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    traced = run.summarize([fake_pass(), fake_pass(traced=True)], 22, trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in bench["per_layer"]]
    for entry in bench["end_to_end"] + bench["per_layer"]:
        metrics = plain["metrics"] if entry in bench["end_to_end"] else traced["metrics"]
        assert metrics[entry["name"]]["unit"] == entry["unit"]


def test_summary_counts_failures_and_disagreeing_passes():
    good = run.summarize([fake_pass(), fake_pass(), fake_pass()], 22, trace=False)
    assert good["correct"] and good["failed"] == 0 and good["attempted"] == 66
    assert good["metrics"]["pass_ratio"]["value"] == 1.0

    bad = run.summarize(
        [fake_pass(), fake_pass(digest="other"), fake_pass(failed_checks=2),
         {"traced": False, "error": "worker exited with 1"}],
        22,
        trace=False,
    )
    assert not bad["correct"]
    assert bad["failed"] == 2 + 1 + 1  # failed checks, crashed worker, digests differ
    assert bad["metrics"]["pass_ratio"]["value"] == 1 - 4 / 88


def test_tracing_overhead_is_traced_over_untraced_wall():
    summary = run.summarize(
        [fake_pass(wall_s=2.0), fake_pass(traced=True, wall_s=3.0)], 22, trace=True
    )
    assert summary["metrics"]["tracing.overhead_ratio"]["value"] == 1.5


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 50) is None
    assert run.tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail_percentile([float(i) for i in range(1000)])[0] == 99.0
