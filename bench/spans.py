"""Spans around the library's public functions, from outside the library.

:class:`Tracer` replaces a function in the namespace its caller looks it
up in (``cli.run_algorithm1``, ``simulate.full_view_covered_segment``,
...) with a wrapper that records one span per call: operation id, span
id, parent span id, name, start, end, plus a few counts taken at the same
boundary.  Spans stay in memory until :meth:`Tracer.dump`.  Nothing is
wrapped outside :meth:`Tracer.installed`.

:func:`layer_metrics` turns the spans of one pass into the per-layer
numbers.  Self time is a span's duration minus the part of it covered by
its child spans.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import time
from dataclasses import dataclass, field

#: Float64 arrays of shape (cameras + 2, samples) the full-view kernel
#: materialized per call when the benchmark was added (offsets, distance,
#: aim, bearing toward the camera, the masked and the sorted bearing
#: stacks, their differences).  ``geometry.bytes_computed`` is computed
#: from this and the call's shapes, not measured.
KERNEL_F64_ARRAYS = 8


def _segment_counts(a, res):
    cameras, samples = len(a["cameras"]), a["samples"]
    return {
        "evals": samples * cameras,
        "passed": int(bool(res)),
        "bytes": 8 * KERNEL_F64_ARRAYS * samples * (cameras + 2),
    }


#: Counts taken at a span's boundary, from the call's bound arguments and
#: its result.
COUNTERS = {
    "geometry.full_view_covered_segment": _segment_counts,
    "simulate.random_deploy": lambda a, r: {"cameras": len(r)},
    "grid_deploy.run_algorithm1": lambda a, r: {"cameras": len(a["cameras"])},
    "grid_deploy.staffed_cells": lambda a, r: {
        "scanned": a["plan"].grid.m * a["plan"].grid.n,
        "staffed": len(r),
    },
    "barrier_graph.build_graph": lambda a, r: {"nodes": len(r.cells)},
    "barrier_graph.prune_degree_one": lambda a, r: {"nodes": len(r.cells)},
    "barrier_graph.shortest_barrier": lambda a, r: {"nodes": len(a["g"].cells)},
    "serialize.dumps": lambda a, r: {"bytes": len(r.encode())},
    "serialize.sweep_csv_text": lambda a, r: {"bytes": len(r.encode())},
}

#: (module, attribute, span name).  The module is the one the caller
#: looks the name up in, so the same function can appear twice.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "coverage_probability_sweep", "simulate.coverage_probability_sweep"),
    ("cli", "run_algorithm1", "grid_deploy.run_algorithm1"),
    ("cli", "staffed_cells", "grid_deploy.staffed_cells"),
    ("cli", "build_graph", "barrier_graph.build_graph"),
    ("cli", "prune_degree_one", "barrier_graph.prune_degree_one"),
    ("cli", "shortest_barrier", "barrier_graph.shortest_barrier"),
    ("cli", "distinct_cameras", "barrier_graph.distinct_cameras"),
    ("cli", "k_barrier_count", "barrier_graph.k_barrier_count"),
    ("cli", "plan_to_dict", "serialize.plan_to_dict"),
    ("cli", "plan_from_dict", "serialize.plan_from_dict"),
    ("cli", "graph_to_dict", "serialize.graph_to_dict"),
    ("cli", "dumps", "serialize.dumps"),
    ("cli", "sweep_csv_text", "serialize.sweep_csv_text"),
    ("simulate", "random_deploy", "simulate.random_deploy"),
    ("simulate", "barrier_exists_static", "simulate.barrier_exists_static"),
    ("simulate", "barrier_exists_mobile", "simulate.barrier_exists_mobile"),
    ("simulate", "full_view_covered_segment", "geometry.full_view_covered_segment"),
    ("simulate", "run_algorithm1", "grid_deploy.run_algorithm1"),
    ("simulate", "staffed_cells", "grid_deploy.staffed_cells"),
    ("simulate", "build_graph", "barrier_graph.build_graph"),
    ("simulate", "prune_degree_one", "barrier_graph.prune_degree_one"),
    ("simulate", "shortest_barrier", "barrier_graph.shortest_barrier"),
    ("grid_deploy", "full_view_covered_segment", "geometry.full_view_covered_segment"),
)


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; one operation id per :meth:`operation`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._op = 0

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = next(self._ids)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            counts = {}
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            self.spans.append(Span(self._op, sid, parent, name, start, end, counts))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span_name in TARGETS:
                mod = importlib.import_module(f"cambarrier.{mod_name}")
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, span_name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def operation(self) -> int:
        """Start a new operation; later spans carry its id."""
        self._op += 1
        return self._op

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


#: Per-layer metrics that count work.  They repeat exactly across runs of
#: the same seed; the rest are times and rates.
COUNT_METRICS = (
    "geometry.segment_calls",
    "geometry.point_camera_evals",
    "geometry.segment_pass_frac",
    "geometry.bytes_computed",
    "simulate.cameras_built",
    "grid_deploy.cameras_relocated",
    "grid_deploy.cells_scanned",
    "grid_deploy.staffed_frac",
    "barrier_graph.nodes_built",
    "barrier_graph.nodes_after_prune",
    "barrier_graph.prune_kept_frac",
    "serialize.bytes_written",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over ``spans`` (one pass of a workload)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        for k, v in s.counts.items():
            counts[(s.name, k)] = counts.get((s.name, k), 0) + v

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return counts.get((name, key), 0)

    seg = "geometry.full_view_covered_segment"
    built = c("barrier_graph.build_graph", "nodes")
    kept = c("barrier_graph.prune_degree_one", "nodes")
    written = c("serialize.dumps", "bytes") + c("serialize.sweep_csv_text", "bytes")
    write_s = t("serialize.dumps") + t("serialize.sweep_csv_text")
    return {
        "geometry.segment_calls": calls.get(seg, 0),
        "geometry.segment_s": t(seg),
        "geometry.point_camera_evals": c(seg, "evals"),
        "geometry.evals_per_s": _ratio(c(seg, "evals"), t(seg)),
        "geometry.segment_pass_frac": _ratio(c(seg, "passed"), calls.get(seg, 0)),
        "geometry.bytes_computed": c(seg, "bytes"),
        "simulate.random_deploy_s": t("simulate.random_deploy"),
        "simulate.cameras_built": c("simulate.random_deploy", "cameras"),
        "simulate.cameras_per_s": _ratio(c("simulate.random_deploy", "cameras"), t("simulate.random_deploy")),
        "simulate.static_check_s": t("simulate.barrier_exists_static"),
        "simulate.static_check_self_s": self_total.get("simulate.barrier_exists_static", 0.0),
        "simulate.mobile_check_s": t("simulate.barrier_exists_mobile"),
        "simulate.mobile_check_self_s": self_total.get("simulate.barrier_exists_mobile", 0.0),
        "simulate.sweep_self_s": self_total.get("simulate.coverage_probability_sweep", 0.0),
        "grid_deploy.algorithm1_s": t("grid_deploy.run_algorithm1"),
        "grid_deploy.cameras_relocated": c("grid_deploy.run_algorithm1", "cameras"),
        "grid_deploy.cameras_per_s": _ratio(c("grid_deploy.run_algorithm1", "cameras"), t("grid_deploy.run_algorithm1")),
        "grid_deploy.staffed_s": t("grid_deploy.staffed_cells"),
        "grid_deploy.cells_scanned": c("grid_deploy.staffed_cells", "scanned"),
        "grid_deploy.staffed_frac": _ratio(c("grid_deploy.staffed_cells", "staffed"), c("grid_deploy.staffed_cells", "scanned")),
        "barrier_graph.build_s": t("barrier_graph.build_graph"),
        "barrier_graph.nodes_built": built,
        "barrier_graph.build_cells_per_s": _ratio(built, t("barrier_graph.build_graph")),
        "barrier_graph.prune_s": t("barrier_graph.prune_degree_one"),
        "barrier_graph.nodes_after_prune": kept,
        "barrier_graph.prune_kept_frac": _ratio(kept, built),
        "barrier_graph.search_s": t("barrier_graph.shortest_barrier"),
        "barrier_graph.search_cells_per_s": _ratio(
            c("barrier_graph.shortest_barrier", "nodes"), t("barrier_graph.shortest_barrier")
        ),
        "barrier_graph.distinct_cameras_s": t("barrier_graph.distinct_cameras"),
        "barrier_graph.k_barrier_s": t("barrier_graph.k_barrier_count"),
        "serialize.plan_to_dict_s": t("serialize.plan_to_dict"),
        "serialize.plan_from_dict_s": t("serialize.plan_from_dict"),
        "serialize.graph_to_dict_s": t("serialize.graph_to_dict"),
        "serialize.dumps_s": t("serialize.dumps"),
        "serialize.bytes_written": written,
        "serialize.write_bytes_per_s": _ratio(written, write_s),
        "serialize.sweep_csv_s": t("serialize.sweep_csv_text"),
        "cli.main_s": t("cli.main"),
        "cli.self_s": self_total.get("cli.main", 0.0),
    }
