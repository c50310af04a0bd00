"""Spans and counts at lossynet's layer boundaries, for the traced run only.

``install`` replaces each public entry function of a layer, wherever a
caller in another module looks it up (module globals and module-level
dicts such as the harness's runner table), with a wrapper that records a
span: name, metric, start, end, parent span and operation id.  Some are
also replaced in their own module: the harness reaches the schedule
functions as ``schedules.<name>``, and the audit's certificates rebuild
products through ``lossynet.mixing``'s own globals.  A few hot methods get
a counting wrapper instead of a span.

A span's self time is its duration minus its direct children's, so the
self times of one operation, the root span included, add up to the
operation's traced duration.  ``tracemalloc`` peaks are kept per span.
"""

from __future__ import annotations

import importlib
import itertools
import time
import tracemalloc
from pathlib import Path

MB = 1024.0 * 1024.0

# (module, function, metric that receives the span's self time, also patch
# the defining module's own globals)
SPANS = (
    ("cli", "main", "harness.config_s", True),
    ("harness", "load_config", "harness.config_s", False),
    ("harness", "run_experiment", "harness.emit_s", False),
    ("graphs", "graph_from_spec", "graphs.build_s", False),
    ("graphs", "build_graph", "graphs.build_s", False),
    ("graphs", "augment", "graphs.build_s", False),
    ("schedules", "read_schedule_csv", "schedules.read_s", True),
    ("schedules", "bernoulli_b_bounded", "schedules.generate_s", True),
    ("schedules", "periodic_adversarial", "schedules.generate_s", True),
    ("schedules", "all_reliable", "schedules.generate_s", True),
    ("consensus", "run_push_sum", "consensus.simulate_s", False),
    ("consensus", "run_robust_push_sum", "consensus.simulate_s", False),
    ("consensus", "run_convergent_robust_push_sum", "consensus.simulate_s", False),
    ("consensus", "certify_consensus_bound", "consensus.certify_s", False),
    ("consensus", "consensus_error", "consensus.certify_s", False),
    ("dual_averaging", "run_distributed_dual_averaging", "dual_averaging.simulate_s", False),
    ("dual_averaging", "certify_optimality_gap", "dual_averaging.certify_s", False),
    ("dual_averaging", "certify_mixing_error", "dual_averaging.certify_s", False),
    ("problems", "solve_reference", "problems.reference_s", False),
    ("mixing", "matrix_product", "mixing.product_s", True),
    ("mixing", "lambda_coefficient", "mixing.lambda_s", True),
    ("mixing", "certify_contraction", "mixing.certify_s", True),
    ("mixing", "certify_entry_lower_bound", "mixing.certify_s", True),
)

# Called too often for a span each: counted only, their time stays with
# the caller.  (module, function or Class.method, count metric)
COUNTS = (
    ("mixing", "iteration_matrix", "mixing.iteration_matrix_calls"),
    ("problems", "OptProblem.objective", "problems.objective_calls"),
    ("problems", "LinearCost.subgradient", "dual_averaging.subgradient_calls"),
    ("problems", "AbsDistanceCost.subgradient", "dual_averaging.subgradient_calls"),
    ("problems", "L2DistanceCost.subgradient", "dual_averaging.subgradient_calls"),
)

# Counts taken from a span's result: the rows a schedule read consumed
# (T x E for a complete table) and the files an experiment wrote.
NOTES = {
    "read_schedule_csv": lambda schedule: {"rows": int(schedule.indicators.size)},
    "run_experiment": lambda artifact: {
        "files": [p for p in (artifact.trace_path, artifact.summary_path) if p]
    },
}

ROOT_METRIC = "bench.outside_s"
PEAK_LAYERS = ("schedules", "consensus", "dual_averaging", "mixing", "harness")

# Every per-layer metric a traced run reports; a layer that does not run in
# a workload reads 0 there.
METRICS = (
    "graphs.build_s",
    "harness.config_s",
    "schedules.read_s",
    "schedules.rows_read",
    "schedules.peak_alloc_mb",
    "schedules.generate_s",
    "consensus.simulate_s",
    "consensus.certify_s",
    "consensus.peak_alloc_mb",
    "dual_averaging.simulate_s",
    "dual_averaging.subgradient_calls",
    "dual_averaging.certify_s",
    "dual_averaging.peak_alloc_mb",
    "problems.reference_s",
    "problems.objective_calls",
    "mixing.product_s",
    "mixing.product_calls",
    "mixing.iteration_matrix_calls",
    "mixing.lambda_s",
    "mixing.certify_s",
    "mixing.peak_alloc_mb",
    "harness.emit_s",
    "harness.rows_written",
    "harness.bytes_written",
    "harness.peak_alloc_mb",
    ROOT_METRIC,
)


class Tracer:
    """Spans of the operations run inside ``operation``; calls made outside
    any operation (the output checks) pass through unrecorded."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[tuple[int, str], int] = {}
        self._stack: list[dict] = []
        self._op: int | None = None
        self._ids = itertools.count()

    def _enter(self, name: str, metric: str) -> dict:
        cur, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent["peak"] = max(parent["peak"], peak)
        tracemalloc.reset_peak()
        span = {
            "id": next(self._ids),
            "name": name,
            "metric": metric,
            "op": self._op,
            "parent": None if parent is None else parent["id"],
            "base": cur,
            "peak": cur,
        }
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        peak = max(span.pop("peak"), tracemalloc.get_traced_memory()[1])
        span["alloc_mb"] = (peak - span.pop("base")) / MB
        if self._stack:
            self._stack[-1]["peak"] = max(self._stack[-1]["peak"], peak)
        self.spans.append(span)

    def operation(self, op_id: int, fn):
        """Run ``fn()`` as operation ``op_id`` under a root span."""
        self._op = op_id
        span = self._enter("operation", ROOT_METRIC)
        try:
            return fn()
        finally:
            self._exit(span)
            self._op = None

    def span(self, name: str, metric: str, fn, note=None):
        """Wrap ``fn`` in a span; ``note(result)`` returns extra fields for
        the finished span."""

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._enter(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if note is not None:
                span.update(note(result))
            return result

        return wrapper

    def counter(self, metric: str, fn):
        def wrapper(*args, **kwargs):
            if self._op is not None:
                key = (self._op, metric)
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def op_metrics(self, op_id: int) -> dict:
        """Every metric of METRICS for one finished operation, plus its
        traced duration under ``op.traced_s``."""
        spans = [s for s in self.spans if s["op"] == op_id]
        children: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = dict.fromkeys(METRICS, 0)
        for s in spans:
            out[s["metric"]] += s["end"] - s["start"] - children.get(s["id"], 0.0)
            if s["name"] == "mixing.matrix_product":
                out["mixing.product_calls"] += 1
            if s["name"] == "schedules.read_schedule_csv":
                out["schedules.rows_read"] += s.get("rows", 0)
            layer = s["metric"].split(".")[0]
            if layer in PEAK_LAYERS:
                key = f"{layer}.peak_alloc_mb"
                out[key] = max(out[key], s["alloc_mb"])
            for path in s.get("files", ()):
                data = Path(path).read_bytes()
                out["harness.bytes_written"] += len(data)
                if path.endswith(".csv"):
                    out["harness.rows_written"] += data.count(b"\n") - 1
        for (op, metric), n in self.counts.items():
            if op == op_id:
                out[metric] += n
        root = next(s for s in spans if s["parent"] is None)
        out["op.traced_s"] = root["end"] - root["start"]
        return out


def install(tracer: Tracer):
    """Wrap every boundary in SPANS and COUNTS; returns a function that
    puts the originals back."""
    import lossynet

    modules = {
        name: importlib.import_module(f"lossynet.{name}") for name in {t[0] for t in SPANS + COUNTS}
    }
    namespaces = [("lossynet", vars(lossynet))] + [
        (name, vars(module)) for name, module in modules.items()
    ]
    undo = []

    def replace(original, wrapped, home: str, inner: bool) -> None:
        hits = 0
        for owner, ns in namespaces:
            if owner == home and not inner:
                continue
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapped
                    undo.append((ns, key, original))
                    hits += 1
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            undo.append((value, k, original))
                            hits += 1
        if not hits:
            raise RuntimeError(f"no caller looks up lossynet.{home}.{original.__name__}")

    for home, func, metric, inner in SPANS:
        original = getattr(modules[home], func)
        wrapped = tracer.span(f"{home}.{func}", metric, original, NOTES.get(func))
        replace(original, wrapped, home, inner)
    for home, target, metric in COUNTS:
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(modules[home], cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, tracer.counter(metric, original))
            undo.append((cls, meth, original))
        else:
            original = getattr(modules[home], target)
            replace(original, tracer.counter(metric, original), home, True)

    def restore():
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore

