"""Spans and work counts around slopeforge's public functions.

The traced run patches, from outside the program, every binding of the
functions listed in TARGETS (in every loaded slopeforge module, so
`from .pwmap import compose` call sites are covered too) with a wrapper
that records a span: name, start, end and parent span.  Work counts are
read off the arguments and results at the same boundary.  Spans live in
flat arrays until the run ends; a layer's self time is the total of its
spans' durations minus the parts covered by their child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

CLI_COMMANDS = ("entropy", "normalize", "phi", "verify", "reduce", "flatten", "approx")


def _len_nodes(c, args, r):
    c["pwmap.compose_nodes"] += len(r.nodes)


def _laps(c, args, r):
    c["entropy.laps_counted"] += sum(r.lap_counts)


def _perron(c, args, r):
    c["markov.perron_iterations"] += r.iterations
    c["markov.perron_cells"] += len(r.v)
    c["markov.perron_scc_calls"] += r.method == "scc"


def _build_psi(c, args, r):
    c["semiconjugacy.table_points"] += len(r.xs)
    c["semiconjugacy.cert_depth"] += r.depth


def _normalize(c, args, r):
    c["approximation.schedule_steps"] += len(r.indices)


def _markov_approx(c, args, r):
    c["approximation.approx_points"] += len(r[1].points)


def _verify(c, args, r):
    c["approximation.verify_grid_points"] += r.grid_points


def _psm_reduce(c, args, r):
    c["coding.collapse_intervals"] += len(r.collapse_intervals)


def _refinement(c, args, r):
    c["markov.refine_points"] += len(r.points)


# (module, attribute, span name, work counter); a dotted attribute is a method
TARGETS = (
    ("slopeforge.pwmap", "compose", "pwmap.compose", _len_nodes),
    ("slopeforge.pwmap", "sup_dist", "pwmap.sup_dist", None),
    ("slopeforge.pwmap", "parse_pwa", "pwmap.parse_pwa", None),
    ("slopeforge.pwmap", "serialize_pwa", "pwmap.serialize_pwa", None),
    ("slopeforge.entropy", "entropy_lapcount", "entropy.lapcount", _laps),
    ("slopeforge.markov", "markov_closure", "markov.closure", None),
    ("slopeforge.markov", "structure_from_points", "markov.structure", None),
    ("slopeforge.markov", "perron", "markov.perron", _perron),
    ("slopeforge.semiconjugacy", "build_psi", "semiconjugacy.build_psi", _build_psi),
    ("slopeforge.semiconjugacy", "PsiTable._descend_float", "semiconjugacy.psi_eval_fast", None),
    ("slopeforge.semiconjugacy", "PsiTable._descend", "semiconjugacy.psi_eval_exact", None),
    ("slopeforge.semiconjugacy", "build_constant_slope", "semiconjugacy.constant_slope", None),
    ("slopeforge.semiconjugacy", "psi_to_tsv", "semiconjugacy.psi_to_tsv", None),
    ("slopeforge.semiconjugacy", "psi_from_tsv", "semiconjugacy.psi_from_tsv", None),
    ("slopeforge.approximation", "normalize", "approximation.normalize", _normalize),
    ("slopeforge.approximation", "markov_approx", "approximation.markov_approx", _markov_approx),
    ("slopeforge.approximation", "verify_semiconjugacy", "approximation.verify", _verify),
    ("slopeforge.coding", "psm_reduce", "coding.psm_reduce", _psm_reduce),
    ("slopeforge.normalform", "normal_form", "normalform.normal_form", None),
    ("slopeforge.graphmap", "parse_graph", "graphmap.parse_graph", None),
    ("slopeforge.graphmap", "flatten", "graphmap.flatten", None),
    ("slopeforge.numeric", "format_decimal", "numeric.format_decimal", None),
)
# generator functions: one span per advance
GENERATORS = (
    ("slopeforge.markov", "refinements", "markov.refine", _refinement),
)
# PsiTable.eval on a detached table (loaded from TSV) interpolates the table
TABLE_EVAL = "semiconjugacy.psi_eval_table"

# every per-layer metric, in report order: (name, unit)
LAYER_METRICS = (
    [("cli.import_s", "s")]
    + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [("pwmap.compose_s", "s"), ("pwmap.compose_calls", "count"),
       ("pwmap.compose_nodes", "count"), ("pwmap.sup_dist_s", "s"),
       ("pwmap.parse_pwa_s", "s"), ("pwmap.serialize_pwa_s", "s"),
       ("entropy.lapcount_s", "s"), ("entropy.laps_counted", "count"),
       ("markov.closure_s", "s"), ("markov.structure_s", "s"),
       ("markov.perron_s", "s"), ("markov.perron_calls", "count"),
       ("markov.perron_iterations", "count"), ("markov.perron_cells", "count"),
       ("markov.perron_scc_calls", "count"),
       ("markov.refine_s", "s"), ("markov.refine_points", "count"),
       ("semiconjugacy.build_psi_s", "s"), ("semiconjugacy.table_points", "count"),
       ("semiconjugacy.cert_depth", "count"),
       ("semiconjugacy.psi_eval_fast_s", "s"), ("semiconjugacy.psi_eval_fast_calls", "count"),
       ("semiconjugacy.psi_eval_exact_s", "s"), ("semiconjugacy.psi_eval_exact_calls", "count"),
       ("semiconjugacy.psi_eval_table_s", "s"), ("semiconjugacy.psi_eval_table_calls", "count"),
       ("semiconjugacy.constant_slope_s", "s"), ("semiconjugacy.psi_to_tsv_s", "s"),
       ("semiconjugacy.psi_from_tsv_s", "s"),
       ("approximation.normalize_s", "s"), ("approximation.schedule_steps", "count"),
       ("approximation.markov_approx_s", "s"), ("approximation.approx_points", "count"),
       ("approximation.verify_s", "s"), ("approximation.verify_grid_points", "count"),
       ("coding.psm_reduce_s", "s"), ("coding.collapse_intervals", "count"),
       ("normalform.normal_form_s", "s"),
       ("graphmap.parse_graph_s", "s"), ("graphmap.flatten_s", "s"),
       ("numeric.format_decimal_s", "s"), ("numeric.format_decimal_calls", "count")]
)


class Tracer:
    """Span store: parallel arrays of name id, start, end and parent index."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counts = defaultdict(int)

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.finish(idx)
                counter(self.counts, args, item)
                yield item
        return traced

    def wrap_table_eval(self, fn):
        def traced(table, x, fast=False):
            if table.structure is not None:
                return fn(table, x, fast)
            idx = self.begin(TABLE_EVAL)
            try:
                return fn(table, x, fast)
            finally:
                self.finish(idx)
        return traced

    def summary(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur, own + dur - covered[i])
        return out

    def spans(self, min_seconds: float) -> list:
        """[index, name, start, end, parent] of the spans at least min_seconds long."""
        t0 = self.start[0] if len(self.start) else 0.0
        return [[i, self.names[self.name[i]], round(self.start[i] - t0, 6),
                 round(self.end[i] - t0, 6), self.parent[i]]
                for i in range(len(self.start))
                if self.end[i] - self.start[i] >= min_seconds]


@contextmanager
def installed(tracer: Tracer):
    """Patch every loaded binding of the TARGETS for the duration of the block."""
    undo = []

    def rebind(orig, new):
        for modname, mod in list(sys.modules.items()):
            if modname == "slopeforge" or modname.startswith("slopeforge."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, new)

    try:
        for modname, attr, name, counter in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, tracer.wrap(name, orig, counter))
            else:
                orig = getattr(mod, attr)
                rebind(orig, tracer.wrap(name, orig, counter))
        for modname, attr, name, counter in GENERATORS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            rebind(orig, tracer.wrap_generator(name, orig, counter))
        psi_table = importlib.import_module("slopeforge.semiconjugacy").PsiTable
        undo.append((psi_table, "eval", vars(psi_table)["eval"]))
        psi_table.eval = tracer.wrap_table_eval(vars(psi_table)["eval"])
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer, import_s: float) -> dict:
    """Every LAYER_METRICS value from the spans and counts of a traced run."""
    summary = tracer.summary()
    values = {"cli.import_s": import_s}
    for name, (calls, _total, own) in summary.items():
        values[f"{name}_s"] = own
        values[f"{name}_calls"] = calls
    values.update(tracer.counts)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}
