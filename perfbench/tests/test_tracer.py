"""Unit tests for the benchmark's tracer: self time, ratios, patching."""

from collections import namedtuple

import pytest

import tracer
from tracer import LAYERS, Tracer, per_layer_metrics, ratio, self_times
from workloads import WORKLOADS, run_pass


def span(name, parent, start, end, error=False):
    return [name, parent, start, end, error]


def test_self_time_nested_children_subtract_once():
    spans = [
        span("a", None, 0.0, 10.0),
        span("b", 0, 1.0, 7.0),
        span("c", 1, 2.0, 5.0),  # grandchild of a: inside b already
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 3.0])


def test_self_time_back_to_back_children():
    spans = [
        span("a", None, 0.0, 10.0),
        span("b", 0, 2.0, 4.0),
        span("b", 0, 4.0, 7.0),  # starts exactly where the previous one ends
        span("c", 0, 9.0, 9.5),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 0.5])


def test_ratio_with_and_without_attempts():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def test_distinct_and_hit_ratios():
    tr = Tracer()
    enumerate_subgroups = tr.wrap("groups.enumerate_subgroups", lambda group: [group] * group)
    for group in (2, 2, 3, 2):
        enumerate_subgroups(group)
    metrics = per_layer_metrics(tr, CacheInfo(hits=9, misses=3, maxsize=256, currsize=3))
    assert metrics["groups.enumerate_subgroups.calls"] == 4
    assert metrics["groups.enumerate_subgroups.distinct_ratio"] == 0.5
    assert metrics["groups.enumerate_subgroups.lattices"] == 2 + 2 + 3 + 2
    assert metrics["gabor.shift_stack.hit_ratio"] == 0.75
    # nothing called: ratios are 0, not a division by zero
    assert metrics["duality.gabor_bimodule.distinct_ratio"] == 0.0
    assert per_layer_metrics(Tracer())["gabor.shift_stack.hit_ratio"] == 0.0


def test_errors_count_only_exceptions_leaving_the_layer():
    tr = Tracer()

    def fail(*args):
        raise ValueError("boom")

    inner = tr.wrap("algebra.center", fail)

    def outer_fn(*args):
        return inner()

    outer = tr.wrap("algebra.commutant", outer_fn)
    with pytest.raises(ValueError):
        outer()
    caller = tr.wrap("vnmod.cdim", lambda: outer())
    with pytest.raises(ValueError):
        caller()
    metrics = per_layer_metrics(tr)
    # first call: escapes algebra once; second: escapes algebra into vnmod,
    # then escapes vnmod
    assert metrics["algebra.errors"] == 2
    assert metrics["vnmod.errors"] == 1


def bindings():
    """Every value bound in a gaborlab module or a traced class, by identity."""
    out = {}
    for mod in tracer.gaborlab_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("gaborlab"):
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = id(member)
    return out


def test_install_and_remove_restore_every_binding():
    import gaborlab.cli  # noqa: F401  (imports every layer)

    import gaborlab.duality
    import gaborlab.groups

    before = bindings()
    tr = Tracer()
    tr.install()
    try:
        during = bindings()
        # the by-name import in duality is wrapped too
        assert gaborlab.duality.adjoint_lattice is gaborlab.groups.adjoint_lattice
        assert hasattr(gaborlab.groups.adjoint_lattice, "__wrapped__")
    finally:
        tr.remove()
    assert during != before
    assert bindings() == before


def test_every_listed_target_exists():
    import importlib

    for layer, attrs in LAYERS.items():
        mod = importlib.import_module(f"gaborlab.{layer}")
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part)


def test_traced_pass_yields_the_same_checks():
    make_calls, expected = WORKLOADS["vector-sweep"]
    calls = make_calls(3)
    plain = run_pass(calls, expected)
    tr = Tracer()
    tr.install()
    try:
        traced = run_pass(calls, expected)
    finally:
        tr.remove()
    assert (plain.failed_checks, plain.raised, plain.output_failures) == (0, 0, 0)
    assert traced == plain  # same counts and the same digest of names and flags
    assert tr.spans
