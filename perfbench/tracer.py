"""Spans around gaborlab's public functions, recorded from outside the program.

A Tracer wraps each function named in LAYERS at every binding a gaborlab
module holds of it (``duality`` imports ``adjoint_lattice`` by name, so
patching ``groups`` alone would miss those calls). Classes are traced by
wrapping their ``__init__``, so ``isinstance`` keeps working. Each wrapper
records one span: name, parent span, start, end and whether an exception
escaped. Spans stay in memory; ``remove`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer (module) -> functions to time; "Class" traces construction,
# "Class.method" a method
LAYERS = {
    "groups": (
        "enumerate_subgroups",
        "adjoint_lattice",
        "lattice_from_generators",
        "find_generators",
    ),
    "gabor": ("tf_shift", "shift_stack", "frame_operator", "bessel_bound_opt"),
    "algebra": (
        "commutant",
        "generate_algebra",
        "orthonormal_extension",
        "center",
        "minimal_central_projections",
        "gns",
        "twisted_group_algebra",
        "center_valued_trace",
    ),
    "vnmod": (
        "cdim",
        "cdim_blockwise",
        "spanning_generators",
        "basic_construction",
        "bounded_operator",
        "induced_trace_evaluator",
        "LeftModule",
        "RightModule",
    ),
    "bimodule": (
        "random_instance",
        "verify_hypotheses",
        "check_alignment",
        "verify_left_right_bounded",
        "operator_norm",
    ),
    "duality": (
        "gabor_bimodule",
        "verify_commutant",
        "verify_cdim_covolume",
        "verify_bessel_duality",
    ),
    "campaigns": (
        "bessel_duality_sweep",
        "commutant_sweep",
        "cdim_sweep",
        "bounded_vector_sweep",
        "norm_inequality_sweep",
        "basic_construction_sweep",
        "coefficient_change_sweep",
        "cross_oracle_sweep",
        "duality_report",
    ),
    "cli": ("run",),
    "reporting": ("campaign_rng", "Report.to_json"),
}

# functions whose distinct inputs are counted (distinct inputs / calls)
DISTINCT = ("groups.enumerate_subgroups", "groups.adjoint_lattice", "duality.gabor_bimodule")

_COMPLEX_BYTES = 16


def _lattice_count(args, kwargs, result) -> float:
    return float(len(result))


def _commutant_size(args, kwargs, result) -> float:
    """Ambient dimension n of the algebra whose commutant is taken."""
    alg = args[0] if args else kwargs["alg"]
    return float(alg.ambient_dim)


def _commutant_matrix_bytes(args, kwargs, result) -> float:
    """Bytes of the stacked commutator matrix: 2g blocks of n^2 x n^2 complex,
    padded to at least n^2 rows (see ``algebra.commutant``)."""
    alg = args[0] if args else kwargs["alg"]
    n = alg.ambient_dim
    rows = max(2 * len(alg.gen_matrices()) * n * n, n * n)
    return float(rows * n * n * _COMPLEX_BYTES)


# per-call observations: function -> {observation name: probe}
PROBES = {
    "groups.enumerate_subgroups": {"lattices": _lattice_count},
    "algebra.commutant": {"n": _commutant_size, "matrix_bytes": _commutant_matrix_bytes},
}


def gaborlab_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gaborlab" or name.startswith("gaborlab."))
    ]


class Tracer:
    """Records spans while installed. Single-threaded, like the program."""

    def __init__(self):
        # each span: [name, parent index or None, start, end, error]
        self.spans: list[list] = []
        self.inputs: dict[str, set] = {name: set() for name in DISTINCT}
        self.observations: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        inputs = self.inputs.get(name)
        probes = PROBES.get(name, {})
        observations = self.observations
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inputs is not None:
                inputs.add((args, tuple(sorted(kwargs.items()))))
            span = [name, stack[-1] if stack else None, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            for obs, probe in probes.items():
                observations.setdefault(f"{name}.{obs}", []).append(probe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = gaborlab_modules()
        for layer, attrs in LAYERS.items():
            home = importlib.import_module(f"gaborlab.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr}"
                owner_name, _, leaf = attr.rpartition(".")
                if owner_name:  # a method
                    self._patch(getattr(home, owner_name), leaf, name)
                elif isinstance(getattr(home, leaf), type):  # construction
                    self._patch(getattr(home, leaf), "__init__", name)
                else:  # a function: every module binding of it
                    original = getattr(home, leaf)
                    wrapper = self.wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, key, True, original))
                                setattr(mod, key, wrapper)

    def _patch(self, cls: type, attr: str, name: str) -> None:
        own = attr in vars(cls)
        original = vars(cls)[attr] if own else getattr(cls, attr)
        self._patches.append((cls, attr, own, original))
        setattr(cls, attr, self.wrap(name, original))

    def remove(self) -> None:
        for owner, key, own, original in reversed(self._patches):
            if own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Grandchildren lie inside their parent, so they are subtracted once, by
    the child. The program is single-threaded, so children never overlap.
    """
    out = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[1] is not None:
            out[span[1]] -= span[3] - span[2]
    return out


def ratio(part: float, whole: float) -> float:
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: Tracer, cache_info=None) -> dict[str, float]:
    """The per-layer numbers of one traced pass.

    ``cache_info`` is ``gabor.shift_stack.cache_info()`` read after the pass.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    layer_of = {f"{layer}.{attr}": layer for layer, attrs in LAYERS.items() for attr in attrs}
    calls = dict.fromkeys(layer_of, 0)
    self_s = dict.fromkeys(layer_of, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        parent = span[1]
        if span[4] and (parent is None or layer_of[spans[parent][0]] != layer_of[name]):
            errors[layer_of[name]] += 1

    metrics: dict[str, float] = {}
    for name, layer in layer_of.items():
        if layer == "campaigns":
            wall = sum(s[3] - s[2] for s in spans if s[0] == name)
            metrics[f"{name}.wall_s"] = wall
        else:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
    for layer, attrs in LAYERS.items():
        names = [f"{layer}.{attr}" for attr in attrs]
        metrics[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        metrics[f"{layer}.calls"] = sum(calls[n] for n in names)
        metrics[f"{layer}.errors"] = errors[layer]
    for name in DISTINCT:
        metrics[f"{name}.distinct_ratio"] = ratio(len(tracer.inputs[name]), calls[name])
    hits = cache_info.hits if cache_info else 0
    misses = cache_info.misses if cache_info else 0
    metrics["gabor.shift_stack.hit_ratio"] = ratio(hits, hits + misses)
    obs = tracer.observations
    metrics["groups.enumerate_subgroups.lattices"] = sum(obs.get("groups.enumerate_subgroups.lattices", ()))
    metrics["algebra.commutant.max_n"] = max(obs.get("algebra.commutant.n", ()), default=0.0)
    metrics["algebra.commutant.matrix_mb"] = (
        max(obs.get("algebra.commutant.matrix_bytes", ()), default=0.0) / 2**20
    )
    return metrics

