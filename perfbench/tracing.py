"""Per-layer tracing by wrapping clusterlife's functions from outside the package.

Each layer is a set of module attributes (functions, or methods given as
``Class.method``). Installing the tracer replaces every one of them, and
every other ``clusterlife.*`` attribute bound to the same object (the names
other modules re-import), with a wrapper that opens a span. A span's self
time is its duration minus the time covered by the spans opened inside it;
counts are taken only at the outermost span of a layer, so nested calls of
one layer are not counted twice. A name that no longer exists is listed as
missing, and a layer whose names are all missing is reported as unmeasured.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
import tracemalloc

import numpy as np


def _rows(arr) -> int:
    return int(np.shape(arr)[0])


def _pairs(args, kwargs) -> int:
    h = kwargs.get("h", args[0] if args else 0)
    e = kwargs.get("e", args[1] if len(args) > 1 else 0)
    return int(np.broadcast(np.asarray(h), np.asarray(e)).size)


def _cluster_n(args, kwargs) -> int:
    return args[0].n if args else kwargs["cluster"].n


# layer -> {(module, attribute): counter}; a counter maps (args, kwargs,
# result) to {count metric: increment} and runs at the layer's outermost span.
LAYERS = {
    "energy.inverse": {
        ("clusterlife.energy", "min_time_for_energy_vec"): lambda a, k, r: {
            "energy.inverse_calls": 1,
            "energy.inverse_pairs": _pairs(a, k),
        },
        ("clusterlife.energy", "min_time_for_energy"): lambda a, k, r: {
            "energy.inverse_calls": 1,
            "energy.inverse_pairs": 1,
        },
    },
    "allocation.equalize": {
        ("clusterlife.allocation", "equalize_batch"): lambda a, k, r: {
            "allocation.equalize_rows": _rows(a[0] if a else k["loads"])
        },
        ("clusterlife.allocation", "equalize"): lambda a, k, r: {"allocation.equalize_rows": 1},
    },
    "allocation.srra": {
        ("clusterlife.allocation", "lifetime_srra"): None,
        ("clusterlife.allocation", "lifetime_srra_batch"): None,
    },
    "model.loads": {
        ("clusterlife.static_sched", "_loads_matrix"): lambda a, k, r: {"model.loads_rows": _rows(r)},
        ("clusterlife.model", "ClusterSpec.schedule_loads"): lambda a, k, r: {"model.loads_rows": 1},
        ("clusterlife.model", "ClusterSpec.conditional_bits"): None,
    },
    "static_sched.search": {
        ("clusterlife.static_sched", "brute_force"): lambda a, k, r: {
            "static_sched.orders": math.factorial(_cluster_n(a, k))
        },
        ("clusterlife.static_sched", "nnn"): lambda a, k, r: {"static_sched.orders": _cluster_n(a, k)},
        ("clusterlife.static_sched", "mcn"): lambda a, k, r: {"static_sched.orders": 1},
        ("clusterlife.static_sched", "shp_heuristic"): lambda a, k, r: {"static_sched.orders": 1},
        ("clusterlife.static_sched", "evaluate_schedule"): lambda a, k, r: {"static_sched.orders": 1},
    },
    "dynamic_sched.columns": {
        ("clusterlife.dynamic_sched", "build_columns"): lambda a, k, r: {"dynamic_sched.columns": len(r)},
    },
    "dynamic_sched.lp": {
        ("clusterlife.dynamic_sched", "solve_lp"): None,
    },
    "simulate.walk": {
        ("clusterlife.simulate", "simulate_static"): lambda a, k, r: {"simulate.slots": r.completed_slots},
        ("clusterlife.simulate", "simulate_dynamic"): lambda a, k, r: {"simulate.slots": r.completed_slots},
    },
    "scenario.load": {
        ("clusterlife.scenario", "load_scenario"): None,
    },
    "geometry.export": {
        ("clusterlife.geometry", "surface_sample"): None,
        ("clusterlife.geometry", "srra_points"): None,
        ("clusterlife.geometry", "hull_2d"): None,
        ("clusterlife.geometry", "equal_energy_crossing"): None,
        ("clusterlife.geometry", "equal_line_alignment"): None,
    },
}

ROOT = "cli"  # the span around one whole CLI command


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, original) or None if it is gone."""
    module = sys.modules.get(module_name)
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Spans and counts per layer for one traced pass at a time.

    ``memory_layer`` names a layer whose outermost spans also run under
    tracemalloc, recording their allocation peak; a tracer built that way is
    for a separate pass, because tracemalloc slows what it watches.
    """

    def __init__(self, memory_layer: str | None = None, keep_spans: bool = False):
        self.memory_layer = memory_layer
        self.keep_spans = keep_spans
        self.missing: list[str] = []
        self.unmeasured: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [layer, start_ns, child_ns, span index or -1]
        self._depth: dict[str, int] = {}
        self.self_ns = {layer: 0 for layer in [*LAYERS, ROOT]}
        self.counts: dict[str, int] = {}
        self.peak_bytes = 0
        self.spans: list[tuple] = []  # (op id, layer, start_ns, end_ns, parent index), if kept
        self.op_id = None

    # -- installing -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "clusterlife" and m]
        for layer, targets in LAYERS.items():
            found = 0
            for (module_name, attr), counter in targets.items():
                resolved = _resolve(module_name, attr)
                if resolved is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                found += 1
                owner, name, original = resolved
                wrapper = self._wrap(layer, original, counter)
                self._patch(owner, name, wrapper)
                if "." in attr:
                    continue  # a method is reached through its class only
                for module in modules:
                    for other, value in list(vars(module).items()):
                        if value is original and (module, other) != (owner, name):
                            self._patch(module, other, wrapper)
            if not found:
                self.unmeasured.append(layer)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            outermost = tracer._depth.get(layer, 0) == 0
            watch = outermost and layer == tracer.memory_layer
            tracer._open(layer)
            tracer._depth[layer] = tracer._depth.get(layer, 0) + 1
            if watch:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if watch:
                    tracer.peak_bytes = max(tracer.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._depth[layer] -= 1
                tracer._close()
            if outermost and counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return traced

    def _open(self, layer):
        index = -1
        if self.keep_spans:
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((self.op_id, layer, 0, 0, parent))  # times filled in on close
            index = len(self.spans) - 1
        self._stack.append([layer, time.perf_counter_ns(), 0, index])

    def _close(self):
        layer, start, child_ns, index = self._stack.pop()
        end = time.perf_counter_ns()
        if index >= 0:
            op_id, _, _, _, parent = self.spans[index]
            self.spans[index] = (op_id, layer, start, end, parent)
        self.self_ns[layer] += (end - start) - child_ns
        if self._stack:
            self._stack[-1][2] += end - start

    @contextlib.contextmanager
    def root(self, op_id):
        """The span of one whole CLI command (layer ``cli``)."""
        self.op_id = op_id
        self._open(ROOT)
        try:
            yield
        finally:
            self._close()
