"""Span tracing of the package's public calls, patched in from outside.

Every function listed in ``WRAPPED`` is replaced, in its defining module and
in every other ``planarcontrol`` module (or the package) that bound the same
object at import, by a wrapper that records a span: name, start, end and the
index of the enclosing span.  Methods are replaced on their class.  Spans are
kept in flat in-memory lists and written out as one ``.npz`` file when the
run ends; nothing is written while operations are timed.

A span's self time is its duration minus the durations of its direct child
spans (children of one span never overlap: the program is single-threaded).
"""

import collections
import importlib
import pkgutil
import time

import numpy as np


def _points(args, kwargs, result):
    return {"points": len(np.atleast_2d(np.asarray(args[1])))}


def _pairs_polyline(args, kwargs, result):
    return {"pairs": len(result) * (len(args[1]) - 1)}


def _pairs_hausdorff(args, kwargs, result):
    return {"pairs": len(np.atleast_2d(args[0])) * len(np.atleast_2d(args[1]))}


def _reach_pairs(args, kwargs, result):
    return {"pairs": max(0, (len(result.schedule) - 2) // 2)}


WRAPPED = [
    # (module, attribute, span name, counter)
    ("planar", "canonicalize", "planar.canonicalize", None),
    ("system", "flow", "system.flow", None),
    ("system", "flow_many", "system.flow_many", None),
    ("system", "simulate", "system.simulate", lambda a, k, r: {"dense_points": len(r.dense_times)}),
    ("controlset", "periodic_orbit", "controlset.periodic_orbit", None),
    ("controlset", "half_turn_fixed_points", "controlset.half_turn_fixed_points", None),
    ("controlset", "sweep_control_ranges", "controlset.sweep_control_ranges", None),
    ("geometry", "build_orbit_region", "geometry.build_orbit_region", None),
    ("geometry", "SpiralRegion.__post_init__", "geometry.SpiralRegion", None),
    ("geometry", "OrbitRegion.margins_many", "geometry.OrbitRegion.margins_many", _points),
    ("geometry", "OrbitRegion.margin", "geometry.OrbitRegion.margin", None),
    ("geometry", "OrbitRegion.contains", "geometry.OrbitRegion.contains", None),
    ("geometry", "OrbitRegion.exterior_distance", "geometry.OrbitRegion.exterior_distance", None),
    ("geometry", "polyline_distance", "geometry.polyline_distance", _pairs_polyline),
    ("planner", "reach_plan", "planner.reach_plan", _reach_pairs),
    ("planner", "hop_plan", "planner.hop_plan", lambda a, k, r: {"hops": r.hops}),
    ("planner", "loop_plan", "planner.loop_plan", None),
    ("oracle", "default_grid_spec", "oracle.default_grid_spec", None),
    ("oracle", "grid_reachable_set", "oracle.grid_reachable_set",
     lambda a, k, r: {"cells": r.occupied_count(), "steps": r.steps_run}),
    ("oracle", "hausdorff", "oracle.hausdorff", _pairs_hausdorff),
    ("svg", "render_svg", "svg.render_svg", lambda a, k, r: {"bytes": len(r.encode())}),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
]

# Per-layer metrics: (name, unit, how to compute).  "self": self time of a
# span name in microseconds per operation; "calls": spans per operation;
# "count": a counter per operation; "per_call": a child span count per call
# of an ancestor span; "extra": a counter the workload adds.
METRICS = [
    ("planar.canonicalize.calls_per_op", "count", ("calls", "planar.canonicalize")),
    ("system.simulate.self_us_per_op", "us", ("self", "system.simulate")),
    ("system.simulate.calls_per_op", "count", ("calls", "system.simulate")),
    ("system.simulate.dense_points_per_op", "count", ("count", "system.simulate", "dense_points")),
    ("system.flow.calls_per_op", "count", ("calls", "system.flow")),
    ("system.flow.self_us_per_op", "us", ("self", "system.flow")),
    ("system.flow_many.self_us_per_op", "us", ("self", "system.flow_many")),
    ("controlset.periodic_orbit.self_us_per_op", "us", ("self", "controlset.periodic_orbit")),
    ("controlset.periodic_orbit.calls_per_op", "count", ("calls", "controlset.periodic_orbit")),
    ("controlset.half_turn_fixed_points.calls_per_op", "count", ("calls", "controlset.half_turn_fixed_points")),
    ("controlset.sweep_control_ranges.self_us_per_op", "us", ("self", "controlset.sweep_control_ranges")),
    ("geometry.build_orbit_region.self_us_per_op", "us", ("self", "geometry.build_orbit_region")),
    ("geometry.SpiralRegion.self_us_per_op", "us", ("self", "geometry.SpiralRegion")),
    ("geometry.OrbitRegion.margin.calls_per_op", "count", ("calls", "geometry.OrbitRegion.margin")),
    ("geometry.OrbitRegion.margins_many.self_us_per_op", "us", ("self", "geometry.OrbitRegion.margins_many")),
    ("geometry.OrbitRegion.margins_many.points_per_op", "count",
     ("count", "geometry.OrbitRegion.margins_many", "points")),
    ("geometry.polyline_distance.self_us_per_op", "us", ("self", "geometry.polyline_distance")),
    ("geometry.polyline_distance.pairs_per_op", "count", ("count", "geometry.polyline_distance", "pairs")),
    ("planner.reach_plan.self_us_per_op", "us", ("self", "planner.reach_plan")),
    ("planner.reach_plan.pairs_per_op", "count", ("count", "planner.reach_plan", "pairs")),
    ("planner.reach_plan.simulate_calls_per_plan", "count", ("per_call", "system.simulate", "planner.reach_plan")),
    ("planner.hop_plan.self_us_per_op", "us", ("self", "planner.hop_plan")),
    ("planner.hop_plan.hops_per_op", "count", ("count", "planner.hop_plan", "hops")),
    ("oracle.grid_reachable_set.self_us_per_op", "us", ("self", "oracle.grid_reachable_set")),
    ("oracle.grid_reachable_set.cells_per_op", "count", ("count", "oracle.grid_reachable_set", "cells")),
    ("oracle.grid_reachable_set.steps_per_op", "count", ("count", "oracle.grid_reachable_set", "steps")),
    ("oracle.hausdorff.self_us_per_op", "us", ("self", "oracle.hausdorff")),
    ("oracle.hausdorff.pairs_per_op", "count", ("count", "oracle.hausdorff", "pairs")),
    ("svg.render_svg.self_us_per_op", "us", ("self", "svg.render_svg")),
    ("svg.render_svg.bytes_per_op", "bytes", ("count", "svg.render_svg", "bytes")),
    ("cli.main.self_us_per_op", "us", ("self", "cli.main")),
    ("cli.parse_config.self_us_per_op", "us", ("self", "cli.parse_config")),
    ("cli.run.self_us_per_op", "us", ("self", "cli.run")),
    ("cli.bytes_written_per_op", "bytes", ("extra", "cli.bytes_written")),
]


class Tracer:
    """Patches the package's public calls and records spans while installed."""

    def __init__(self, package):
        self.package = package
        self.names = [entry[2] for entry in WRAPPED]
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.counts = collections.defaultdict(float)
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name_id, counter):
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, counts, name = self._stack, self.counts, self.names[name_id]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[name + "." + key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        pkg = self.package
        modules = [pkg] + [
            importlib.import_module(pkg.__name__ + "." + info.name)
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        for name_id, (mod_name, attr, _, counter) in enumerate(WRAPPED):
            home = importlib.import_module(pkg.__name__ + "." + mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name_id, counter))
                continue
            original = getattr(home, attr)
            traced = self._wrap(original, name_id, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def arrays(self):
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.int64)
        end = np.array(self.span_end, dtype=np.int64)
        return name, parent, start, end

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)

    def metrics(self, ops, extra):
        """Per-operation layer metrics over ``ops`` traced operations."""
        name, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = np.bincount(name, weights=dur - child, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        index = {n: i for i, n in enumerate(self.names)}
        out = {}
        for metric, unit, (kind, *args) in METRICS:
            if kind == "self":
                value = self_ns[index[args[0]]] / 1e3 / ops
            elif kind == "calls":
                value = calls[index[args[0]]] / ops
            elif kind == "count":
                value = self.counts[args[0] + "." + args[1]] / ops
            elif kind == "per_call":
                value = self._per_call(name, parent, index[args[0]], index[args[1]])
            else:
                value = extra.get(args[0], 0.0) / ops
            out[metric] = {"value": float(value), "unit": unit}
        return out

    @staticmethod
    def _per_call(name, parent, child_id, ancestor_id):
        """Spans named child_id that run under a span named ancestor_id, per such ancestor."""
        ancestors = np.count_nonzero(name == ancestor_id)
        if ancestors == 0:
            return 0.0
        hits = 0
        for idx in np.flatnonzero(name == child_id):
            p = parent[idx]
            while p >= 0 and name[p] != ancestor_id:
                p = parent[p]
            hits += p >= 0
        return hits / ancestors
