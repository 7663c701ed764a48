"""In-memory span tracing of treeiso's layers, from outside the package.

Each traced name is replaced, for the length of one pass, by a wrapper in
the module where its caller looks it up (``treeiso.report.compute_profile``
is the name ``analyze_tree`` calls).  Nothing under ``src/`` changes, and
an untraced pass runs the original functions.
"""
from __future__ import annotations

import importlib
import os
import tracemalloc
from contextlib import contextmanager
from functools import partial
from time import perf_counter

# (module, attribute, metric that receives the span's self time, op role).
# Role "op" starts a new op id (one tree or one query); role "pass" marks a
# pass-level call whose spans belong to no single op.
TARGETS = (
    ("treeiso.cli", "main", "cli.self_s", "pass"),
    ("treeiso.cli", "parse_tree", "tree.parse_s", "op"),
    ("treeiso.cli", "verify_suite", "report.suite_self_s", "pass"),
    ("treeiso.cli", "sweep_rows", "report.sweep_self_s", "pass"),
    ("treeiso.cli", "emit", "report.emit_s", "pass"),
    ("treeiso.report", "analyze_tree", "report.analyze_self_s", "op"),
    ("treeiso.report", "generate_tree", "tree.generate_s", "op"),
    ("treeiso.report", "subtree_weights", "tree.subtree_weights_s", None),
    ("treeiso.report", "compute_profile", "profile.compute_self_s", None),
    ("treeiso.report", "brute_force_profiles", "profile.oracle_s", None),
    ("treeiso.report", "check_flux_conservation", "bounds.flux_s", None),
    ("treeiso.report", "prefix_upper_bounds", "bounds.prefix_s", None),
    ("treeiso.report", "count_sizes_with_cut_at_most", "bounds.count_bound_s", None),
    ("treeiso.report", "cut_count_upper_bound", "bounds.count_bound_s", None),
    ("treeiso.report", "edge_peak_lower_bound", "bounds.count_bound_s", None),
    ("treeiso.profile", "edge_profile", "profile.edge_dp_s", None),
    ("treeiso.profile", "vertex_profile", "profile.vertex_dp_s", None),
    ("treeiso.profile", "witness_subset", "profile.witness_s", "op"),
)

# Functions whose tracemalloc peak is taken in the memory pass.
PEAK_TARGETS = (
    ("treeiso.profile", "edge_profile", "profile.dp_peak_mb"),
    ("treeiso.profile", "vertex_profile", "profile.dp_peak_mb"),
    ("treeiso.profile", "witness_subset", "profile.witness_peak_mb"),
)

ROOT = "bench.pass"
SELF_TIME_METRICS = sorted({metric for _, _, metric, _ in TARGETS} | {"bench.self_s"})


def _span_name(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


class Tracer:
    """Records spans [name, start, end, parent index, op id, args] in a list."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._op_counts = {}
        self._probed = {}  # span index -> probe seconds taken while it was innermost

    def on_probe(self, seconds: float) -> None:
        """Charge a host-speed probe to the innermost open span, not to its layer."""
        if self._stack:
            top = self._stack[-1]
            self._probed[top] = self._probed.get(top, 0.0) + seconds

    def wrap(self, name, fn, role=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if role == "op":
                self._op = self._op_counts.get(name, 0)
                self._op_counts[name] = self._op + 1
            elif role == "pass":
                self._op = None
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, args]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def run_pass(self, fn, *args):
        """Run fn(*args) as one pass with every target traced."""
        self.spans.clear()
        self._op_counts.clear()
        self._probed.clear()
        self._op = None
        with _patched(
            (module, attr, partial(self.wrap, _span_name(module, attr), role=role))
            for module, attr, _, role in TARGETS
        ):
            return self.wrap(ROOT, fn)(*args)

    def self_times(self) -> dict:
        """Self time per metric: span duration minus its child spans and its probes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        metric_of = {_span_name(m, a): metric for m, a, metric, _ in TARGETS}
        metric_of[ROOT] = "bench.self_s"
        out = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for index, ((name, start, end, _, _, _), covered) in enumerate(zip(self.spans, child)):
            out[metric_of[name]] += end - start - covered - self._probed.get(index, 0.0)
        return out

    def counters(self) -> dict:
        """Work counters computed from the arguments the spans saw."""
        out = {
            "profile.dp_cells": 0,
            "profile.oracle_subsets": 0,
            "profile.witness_queries": 0,
            "bounds.flux_subsets": 0,
            "tree.parse_bytes": 0,
            "report.emit_bytes": 0,
        }
        cells = {}
        for name, _, _, _, _, args in self.spans:
            if name in ("profile.edge_profile", "profile.vertex_profile"):
                tree = args[0]
                if id(tree) not in cells:
                    cells[id(tree)] = dp_cells(tree)
                out["profile.dp_cells"] += cells[id(tree)]
            elif name == "report.brute_force_profiles":
                out["profile.oracle_subsets"] += 1 << args[0].n
            elif name == "profile.witness_subset":
                out["profile.witness_queries"] += 1
            elif name == "report.check_flux_conservation":
                out["bounds.flux_subsets"] += 1
            elif name == "cli.parse_tree":
                out["tree.parse_bytes"] += len(args[0])
            elif name == "cli.emit":
                out["report.emit_bytes"] += os.path.getsize(args[2])
        return out

    def export(self, pass_index: int) -> list:
        """The spans without their arguments, as JSON-ready lists."""
        return [[pass_index, name, start, end, parent, op]
                for name, start, end, parent, op, _ in self.spans]


def dp_cells(tree) -> int:
    """Cells of the quadratic subtree-merge DP, replayed from subtree sizes.

    Merging a child of size w into a partial table of size s touches
    (s + 1) * (w + 1) cells; children merge in ascending id order, as the
    DP does.  Computed, not counted inside the kernel.
    """
    from treeiso.tree import postorder

    size = [1] * tree.n
    total = 0
    for v in postorder(tree):
        s = 1
        for c in tree.children[v]:
            total += (s + 1) * (size[c] + 1)
            s += size[c]
        size[v] = s
    return total


def run_peak_pass(fn, *args):
    """Run fn(*args) once, taking the tracemalloc peak inside each target call.

    Returns (fn's result, peak MiB per metric).  Tracing memory slows the
    calls severalfold, so this pass is never timed.
    """
    peaks = {metric: 0.0 for _, _, metric in PEAK_TARGETS}

    def peaked(metric, original):
        def call(*a, **kw):
            tracemalloc.start()
            try:
                return original(*a, **kw)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[metric] = max(peaks[metric], peak)

        return call

    with _patched(
        (module, attr, partial(peaked, metric))
        for module, attr, metric in PEAK_TARGETS
    ):
        result = fn(*args)
    return result, peaks


@contextmanager
def _patched(replacements):
    """Replace module attributes for the duration of the block.

    replacements yields (module name, attribute, make) where make(original)
    returns the stand-in.
    """
    saved = []
    try:
        for module, attr, make in replacements:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
