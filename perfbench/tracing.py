"""Spans around the calls into each layer, recorded from outside the package.

`install` rebinds, inside the `pipeline`, `config` and `aubry` modules,
every function those modules import from another weakkam module (plus
the pipeline's own artifact writers), so each call opens a span named
`<defining module>.<function>`. `ActionKernel.apply_min`/`apply_max`
are wrapped as counters: each call is tallied on every open span, which
gives closure rounds, weak KAM sweeps and smoothing steps. Spans live in
memory until the run ends.

Span tree: one `cli.main` root per CLI invocation; its children are the
top-level spans. A tracer made with memory=True also records the
tracemalloc peak of every top-level span. tracemalloc slows each Python
allocation (the weak KAM sweeps by about 9x), so span times and counts
come from a run without it and peaks from a second run with it.
"""

import functools
import inspect
import os
import time
import tracemalloc

MB = float(1 << 20)
ROOT = "cli.main"
OWN_WRITERS = ("write_csv", "write_json")

# extra tallies read from a layer call's return value
TALLIES = {
    "critical.weak_kam_solution": lambda r: {"iterations": r.iterations},
    "aubry.aubry_set": lambda r: {"aubry_size": int(r.indices.size)},
    "aubry.quotient": lambda r: {"class_count": r.class_count},
    "chains.chain_graph": lambda r: {"edges": int(r.edges.nnz)},
    "chains.chain_recurrent_set": lambda r: {"chain_size": int(r.size)},
    "pipeline.write_csv": lambda r: {"bytes": os.path.getsize(r)},
}


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []

    def _now(self) -> float:
        return time.perf_counter() - self.origin

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        top = self.memory and parent is not None and parent["name"] == ROOT
        span = {"id": len(self.spans), "name": name,
                "parent": None if parent is None else parent["id"],
                "start": self._now(), "end": None, "counts": {}}
        self.spans.append(span)
        self.stack.append(span)
        if top:
            tracemalloc.reset_peak()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span["end"] = self._now()
            if top:
                span["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / MB
        if name in TALLIES:
            for key, val in TALLIES[name](result).items():
                self._add(span, key, val)
        return result

    @staticmethod
    def _add(span, key, val):
        span["counts"][key] = span["counts"].get(key, 0) + val

    def count(self, **tallies):
        """Add tallies to every open span, so parents include their children."""
        for span in self.stack:
            for key, val in tallies.items():
                self._add(span, key, val)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def install(tracer: Tracer):
    """Rebind the layer entry points to traced versions. Returns cli.main, traced."""
    from weakkam import aubry, cli, config, pipeline
    from weakkam.kernel import ActionKernel

    for mod in (pipeline, config, aubry):
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("weakkam."):
                continue
            if obj.__module__ != mod.__name__ or (mod is pipeline and attr in OWN_WRITERS):
                label = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                setattr(mod, attr, tracer.wrap(label, obj))

    def counted(kind, method):
        @functools.wraps(method)
        def apply(self, u, shift=0.0):
            n, s = self.point_count, self.stencil_size
            rows = max(1, getattr(u, "size", n) // n)
            # computed, not measured: one min-plus op per (row, offset, cell);
            # bytes are the compulsory float64 traffic of one fused pass
            tracer.count(**{f"{kind}.calls": 1, f"{kind}.minplus_ops": rows * s * n,
                            f"{kind}.bytes_computed": 8 * (2 * rows * n + s * n)})
            return method(self, u, shift)
        return apply

    ActionKernel.apply_min = counted("apply_min", ActionKernel.apply_min)
    ActionKernel.apply_max = counted("apply_max", ActionKernel.apply_max)
    return tracer.wrap(ROOT, cli.main)


# -- per-layer metrics ---------------------------------------------------------

# (metric, unit, how): how is ("s", span) total time, ("self_s", span) time
# minus child spans, ("peak", span) max tracemalloc peak, ("count", span, key)
# summed tally, or ("run", key) a whole-run value
PER_LAYER = [
    ("kernel.kernel_closure.s", "s", ("s", "kernel.kernel_closure")),
    ("kernel.kernel_closure.rounds", "count", ("count", "kernel.kernel_closure", "apply_min.calls")),
    ("kernel.apply_min.calls", "count", ("count", ROOT, "apply_min.calls")),
    ("kernel.apply_min.minplus_ops", "count", ("count", ROOT, "apply_min.minplus_ops")),
    ("kernel.apply_min.bytes_computed", "bytes", ("count", ROOT, "apply_min.bytes_computed")),
    ("kernel.apply_max.calls", "count", ("count", ROOT, "apply_max.calls")),
    ("kernel.build_kernel.s", "s", ("s", "kernel.build_kernel")),
    ("critical.critical_value.s", "s", ("s", "critical.critical_value")),
    ("critical.critical_value.peak_traced_mb", "MiB", ("peak", "critical.critical_value")),
    ("critical.weak_kam_solution.s", "s", ("s", "critical.weak_kam_solution")),
    ("critical.weak_kam_solution.sweeps", "count",
     ("count", "critical.weak_kam_solution", "apply_min.calls")),
    ("critical.weak_kam_solution.iterations", "count",
     ("count", "critical.weak_kam_solution", "iterations")),
    ("aubry.peierls_barrier.s", "s", ("s", "aubry.peierls_barrier")),
    ("aubry.peierls_barrier.self_s", "s", ("self_s", "aubry.peierls_barrier")),
    ("aubry.peierls_barrier.peak_traced_mb", "MiB", ("peak", "aubry.peierls_barrier")),
    ("aubry.aubry_set.s", "s", ("s", "aubry.aubry_set")),
    ("aubry.mather_delta.s", "s", ("s", "aubry.mather_delta")),
    ("aubry.quotient.s", "s", ("s", "aubry.quotient")),
    ("aubry.representation_check.s", "s", ("s", "aubry.representation_check")),
    ("aubry.aubry_size", "count", ("count", "aubry.aubry_set", "aubry_size")),
    ("aubry.class_count", "count", ("count", "aubry.quotient", "class_count")),
    ("geometry.hausdorff1_report.s", "s", ("s", "geometry.hausdorff1_report")),
    ("chains.chain_graph.s", "s", ("s", "chains.chain_graph")),
    ("chains.chain_recurrent_set.s", "s", ("s", "chains.chain_recurrent_set")),
    ("chains.edges", "count", ("count", "chains.chain_graph", "edges")),
    ("chains.chain_size", "count", ("count", "chains.chain_recurrent_set", "chain_size")),
    ("regularize.alternating_smooth.s", "s", ("s", "regularize.alternating_smooth")),
    ("regularize.alternating_smooth.steps", "count",
     ("count", "regularize.alternating_smooth", "apply_min.calls", "apply_max.calls")),
    ("regularize.subsolution_residual_field.s", "s",
     ("s", "regularize.subsolution_residual_field")),
    ("pipeline.write_csv.s", "s", ("s", "pipeline.write_csv")),
    ("pipeline.write_csv.bytes", "bytes", ("count", "pipeline.write_csv", "bytes")),
    ("pipeline.write_json.s", "s", ("s", "pipeline.write_json")),
    ("pipeline.self_s", "s", ("run", "pipeline_self_s")),
    ("trace.run_s", "s", ("run", "run_s")),
    ("trace.overhead_s", "s", ("run", "overhead_s")),
]


def _run_facts(spans) -> dict:
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    roots = {s["id"] for s in spans if s["parent"] is None}
    run_s = max(spans[i]["end"] for i in roots) - min(spans[i]["start"] for i in roots)
    top_s = sum(dur[s["id"]] for s in spans if s["parent"] in roots)
    return {"run_s": run_s, "pipeline_self_s": run_s - top_s, "top_level_share": top_s / run_s}


def summarize(spans, memory_spans, untraced_run_s):
    """Per-layer metrics {name: (value, unit)} plus whole-run span facts.

    Times and counts come from `spans`, peaks from `memory_spans`. A layer
    absent from the run reads 0. Times are summed over every span of the
    name; self time subtracts the spans directly below it.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]
    run = _run_facts(spans)
    run["overhead_s"] = run["run_s"] - untraced_run_s
    run["memory_run_s"] = _run_facts(memory_spans)["run_s"]

    def of(name, source=spans):
        return [s for s in source if s["name"] == name]

    metrics = {}
    for metric, unit, how in PER_LAYER:
        kind, key = how[0], how[1]
        if kind == "s":
            val = float(sum(dur[s["id"]] for s in of(key)))
        elif kind == "self_s":
            val = float(sum(dur[s["id"]] - child_time.get(s["id"], 0.0) for s in of(key)))
        elif kind == "peak":
            val = max((s["peak_traced_mb"] for s in of(key, memory_spans)), default=0.0)
        elif kind == "count":
            val = sum(s["counts"].get(k, 0) for s in of(key) for k in how[2:])
        else:
            val = run[key]
        metrics[metric] = (val, unit)
    return metrics, run
