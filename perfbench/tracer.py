"""In-memory span tracer that wraps statvac's public functions from outside.

The tracer patches functions and methods of the installed statvac modules;
no statvac source file knows about it.  Because statvac modules import
functions by name (``mass`` binds ``solve_boundary_system``, ``oracles.suites``
binds ``geodesic_sphere``), a wrapped module-level function is rebound in
every statvac module that holds the original object.  Missing that step
would lose spans without any error, so ``install`` also checks that each
target was found.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the operation it belongs to (-1 for
set-up).  Self time is a span's duration minus the durations of its direct
children; spans nest strictly because the benchmark runs one operation at a
time in one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from functools import cached_property

import numpy as np

from statvac.oracles.suites import SUITE_NAMES

# (target, label, kind).  target is "module:attr" or "module:Class.attr";
# kind "span" records a span, "count" only counts calls (used for the
# callables the oracles invoke tens of thousands of times per operation).
TARGETS = (
    ("statvac.spherical.grid:SphereGrid.__init__", "spherical.grid_init", "span"),
    ("statvac.spherical.grid:SphereGrid._tables", "spherical.grid_table", "span"),
    ("statvac.spherical.grid:SphereGrid.d2Ydtheta2", "spherical.grid_table", "span"),
    ("statvac.spherical.grid:SphereGrid.dYdphi", "spherical.grid_table", "span"),
    ("statvac.spherical.grid:SphereGrid.d2Ydthetadphi", "spherical.grid_table", "span"),
    ("statvac.spherical.grid:SphereGrid.grad_tables", "spherical.grid_table", "span"),
    ("statvac.spherical.grid:SphereGrid.tfhess_tables", "spherical.grid_table", "span"),
    ("statvac.spherical.grid:SphereGrid.analyze", "spherical.transform", "span"),
    ("statvac.spherical.grid:SphereGrid.synthesize", "spherical.transform", "span"),
    ("statvac.spherical.fields:ScalarField.from_values", "spherical.transform", "span"),
    ("statvac.spherical.fields:ScalarField.from_coeffs", "spherical.transform", "span"),
    ("statvac.spherical.fields:TangentField.__init__", "spherical.transform", "span"),
    ("statvac.spherical.fields:TangentField.from_components", "spherical.transform", "span"),
    ("statvac.spherical.fields:SymTensorField.__init__", "spherical.transform", "span"),
    ("statvac.spherical.fields:SymTensorField.from_components", "spherical.transform", "span"),
    ("statvac.spherical.fields:SymTensorField.tracefree", "spherical.transform", "span"),
    ("statvac.spherical.harmonics:harmonic_tables", "spherical.harmonic_tables", "span"),
    ("statvac.boundary:solve_boundary_system", "boundary.solve", "span"),
    ("statvac.boundary:HarmonicExterior.evaluate", "boundary.exterior_eval", "span"),
    ("statvac.boundary:HarmonicExterior.gradient", "boundary.exterior_eval", "span"),
    ("statvac.curvature:small_sphere_data", "curvature.small_sphere_data", "span"),
    ("statvac.mass:compute_m1", "mass.m1", "span"),
    ("statvac.mass:compute_m2", "mass.m2", "span"),
    ("statvac.mass:hawking_mass", "mass.hawking", "span"),
    ("statvac.mass:estimate", "mass.assembly", "span"),
    ("statvac.mass:small_sphere_report", "mass.assembly", "span"),
    ("statvac.mass:small_sphere_quintic", "mass.assembly", "span"),
    ("statvac.oracles.suites:run_suite", "oracles.suite", "span"),
    ("statvac.oracles.geodesic:geodesic_sphere", "oracles.geodesic_sphere", "span"),
    ("statvac.oracles.geodesic:jet_from_metric", "oracles.jet_from_metric", "span"),
    ("statvac.oracles.sphere_variation:variation_check", "oracles.variation_check", "span"),
    ("statvac.oracles.curvature_fd:fd_ricci", "oracles.fd_ricci", "span"),
    ("statvac.oracles.metricfield:MetricField.christoffel", "oracles.christoffel", "count"),
    ("statvac.oracles.metricfield:MetricField.__call__", "oracles.metric_eval", "count"),
    ("statvac.io:load_json", "io.parse", "span"),
    ("statvac.io:data_from_dict", "io.parse", "span"),
    ("statvac.io:jet_from_dict", "io.parse", "span"),
    ("statvac.io:dump_json", "io.emit", "span"),
)

# Per-layer metrics in the order BENCHMARK.json lists them, as
# name -> (unit, statistic, span label).  "calls", "self" (self time) and
# "total" (inclusive time) are per operation.  The grid-build statistics add
# the set-up build (where fields_l48 builds its grid) to the per-operation
# value; run.py fills in trace.overhead.
METRICS = {
    "spherical.tables_mb": ("MB", "tables", None),
    "spherical.grid_build_ms": ("ms", "grid_build", None),
    "spherical.transform_calls": ("count", "calls", "spherical.transform"),
    "spherical.transform_self_ms": ("ms", "self", "spherical.transform"),
    "spherical.offgrid_calls": ("count", "calls", "spherical.offgrid"),
    "spherical.offgrid_self_ms": ("ms", "self", "spherical.offgrid"),
    "boundary.solve_calls": ("count", "calls", "boundary.solve"),
    "boundary.solve_self_ms": ("ms", "self", "boundary.solve"),
    "boundary.exterior_eval_calls": ("count", "calls", "boundary.exterior_eval"),
    "boundary.exterior_eval_self_ms": ("ms", "self", "boundary.exterior_eval"),
    "curvature.small_sphere_data_calls": ("count", "calls", "curvature.small_sphere_data"),
    "curvature.small_sphere_data_self_ms": ("ms", "self", "curvature.small_sphere_data"),
    "mass.m1_self_ms": ("ms", "self", "mass.m1"),
    "mass.m2_self_ms": ("ms", "self", "mass.m2"),
    "mass.hawking_self_ms": ("ms", "self", "mass.hawking"),
    "mass.assembly_self_ms": ("ms", "self", "mass.assembly"),
    **{f"oracles.suite_ms.{name}": ("ms", "total", f"oracles.suite.{name}")
       for name in SUITE_NAMES},
    "oracles.geodesic_sphere_calls": ("count", "calls", "oracles.geodesic_sphere"),
    "oracles.geodesic_sphere_self_ms": ("ms", "self", "oracles.geodesic_sphere"),
    "oracles.jet_from_metric_calls": ("count", "calls", "oracles.jet_from_metric"),
    "oracles.jet_from_metric_self_ms": ("ms", "self", "oracles.jet_from_metric"),
    "oracles.variation_check_self_ms": ("ms", "self", "oracles.variation_check"),
    "oracles.fd_ricci_calls": ("count", "calls", "oracles.fd_ricci"),
    "oracles.fd_ricci_self_ms": ("ms", "self", "oracles.fd_ricci"),
    "oracles.christoffel_calls": ("count", "calls", "oracles.christoffel"),
    "oracles.metric_evals": ("count", "calls", "oracles.metric_eval"),
    "io.parse_calls": ("count", "calls", "io.parse"),
    "io.parse_self_ms": ("ms", "self", "io.parse"),
    "io.emit_self_ms": ("ms", "self", "io.emit"),
    "op.self_ms": ("ms", "self", "op"),
    "trace.overhead": ("ratio", "overhead", None),
}
METRIC_UNITS = {name: unit for name, (unit, _, _) in METRICS.items()}
_GRID_BUILD = ("spherical.grid_init", "spherical.grid_table")


def _resolve(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, member = attr.split(".")
        return getattr(module, cls_name), member
    return module, attr


class Tracer:
    """Records spans and call counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # op -> label -> calls
        self.table_bytes = Counter()  # op -> bytes of grid tables computed
        self.target_calls = Counter()  # target -> calls, set-up included
        self.op = -1
        self._stack = []
        self._patches = []
        self._seen_tables = weakref.WeakKeyDictionary()  # grid -> ids counted

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block, e.g. a benchmark operation."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, fn, target, label, kind):
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.target_calls[target] += 1
                self.counts[self.op][label] += 1
                return fn(*args, **kwargs)
            return counted

        suite_arg = label == "oracles.suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.target_calls[target] += 1
            name = label
            if suite_arg:
                name = f"{label}.{kwargs.get('name', args[0] if args else '?')}"
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if label == "spherical.grid_table":
                self._count_tables(args[0], result)
            return result
        return traced

    def _count_tables(self, grid, result):
        seen = self._seen_tables.setdefault(grid, set())
        for arr in result if isinstance(result, tuple) else (result,):
            if isinstance(arr, np.ndarray) and id(arr) not in seen:
                seen.add(id(arr))
                self.table_bytes[self.op] += arr.nbytes

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every target; raises if a target is missing."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "statvac" or n.startswith("statvac."))]
        for target, label, kind in TARGETS:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, target, label, kind))
                elif isinstance(raw, cached_property):
                    new = cached_property(self._wrap(raw.func, target, label, kind))
                    new.__set_name__(owner, attr)
                else:
                    new = self._wrap(raw, target, label, kind)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            new = self._wrap(original, target, label, kind)
            rebound = 0
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, new)
                        rebound += 1
            if rebound == 0:
                raise RuntimeError(f"trace target {target} is not bound anywhere")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Self time in seconds of every span, in span order."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def _ancestor_labels(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics over operations 0..ops-1 plus the set-up phase."""
        calls = defaultdict(Counter)  # op -> label -> calls
        self_ms = Counter()  # label -> self ms over all operations
        total_ms = Counter()  # label -> inclusive ms over all operations
        build_ms = Counter()  # op -> inclusive grid build ms
        selfs = self.self_times()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            ancestors = set(self._ancestor_labels(i))
            if name in _GRID_BUILD:
                if not ancestors.intersection(_GRID_BUILD):
                    build_ms[op] += (end - start) * 1e3
                continue
            if name == "spherical.harmonic_tables":
                if "spherical.grid_table" in ancestors:
                    continue
                name = "spherical.offgrid"
            calls[op][name] += 1
            if op >= 0:
                self_ms[name] += selfs[i] * 1e3
                total_ms[name] += (end - start) * 1e3
        for op, counter in self.counts.items():
            calls[op].update(counter)

        def per_op(values):
            return sum(values.get(op, 0) for op in range(ops)) / ops

        metrics = {}
        for metric, (_, statistic, label) in METRICS.items():
            if statistic == "calls":
                metrics[metric] = per_op({op: c[label] for op, c in calls.items()})
            elif statistic == "self":
                metrics[metric] = self_ms[label] / ops
            elif statistic == "total":
                metrics[metric] = total_ms[label] / ops
        metrics["spherical.tables_mb"] = (
            self.table_bytes[-1] + per_op(self.table_bytes)) / 1e6
        metrics["spherical.grid_build_ms"] = build_ms[-1] + per_op(build_ms)
        return metrics

    def dump(self, path):
        """Write every span and counter as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "counts": {str(op): dict(c) for op, c in self.counts.items()},
                "table_bytes": {str(op): b for op, b in self.table_bytes.items()},
                "target_calls": dict(self.target_calls),
            }, fh)

