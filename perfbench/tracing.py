"""Timing shims for the traced run.

The shims replace public layer functions at the module attribute their
callers look up (``trajcalc.cli.regionize`` rather than
``trajcalc.grids.regionize``), so nothing inside ``src/`` changes.  The
shims are in place only inside :meth:`Tracer.tracing`, which labels what
runs there (``("setup", k)`` or ``("pass", n)``).  Each shim records a span
(name, parent, label, start, end); some also add to a count.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from collections import defaultdict

import trajcalc.asp
import trajcalc.bench
import trajcalc.cli
import trajcalc.solver

# name -> (module, attribute); a span of that name covers every call.
SPANNED = {
    "bench.synthetic_trajectories": (trajcalc.bench, "synthetic_trajectories"),
    "bench.revealed_instance": (trajcalc.bench, "revealed_instance"),
    "grids.regionize": (trajcalc.cli, "regionize"),
    "grids.bridge_gaps": (trajcalc.cli, "bridge_gaps"),
    "trajectories.validate_trajectory": (trajcalc.cli, "validate_trajectory"),
    "trajectories.all_pairs": (trajcalc.cli, "all_pairs"),
    "cli.main": (trajcalc.cli, "main"),
    "solver.solve": (trajcalc.solver, "solve"),
    "solver.build_network": (trajcalc.solver, "build_network"),
    "solver.algebraic_closure": (trajcalc.solver, "algebraic_closure"),
    "asp.emit_program": (trajcalc.asp, "emit_program"),
    "asp.emit_instance_facts": (trajcalc.asp, "emit_instance_facts"),
}

Label = tuple[str, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, Label, float, float]] = []
        self.counts: dict[tuple[Label, str], int] = defaultdict(int)
        self.label: Label = ("setup", 0)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------------

    @contextlib.contextmanager
    def tracing(self, label: Label):
        """The shims in place, recording under ``label``."""
        self.label = label
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _patch(self, module, attr: str, shim) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, shim)

    def install(self) -> None:
        for name, (module, attr) in SPANNED.items():
            self._patch(module, attr, self._spanning(name, getattr(module, attr)))
        # classify runs once per pair: count calls, no span
        classify = trajcalc.bench.classify

        def counted_classify(*args, **kwargs):
            self.counts[(self.label, "bench.classify_calls")] += 1
            return classify(*args, **kwargs)

        self._patch(trajcalc.bench, "classify", counted_classify)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def _spanning(self, name: str, fn):
        count = _COUNTERS.get(name)

        def shim(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "trajectories.all_pairs":
                    # a generator does its work while consumed: consume it here
                    result = list(result)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, self.label, start, end))
            if count is not None:
                for key, value in count(args, result):
                    self.counts[(self.label, key)] += value
            return iter(result) if name == "trajectories.all_pairs" else result

        return shim

    # -- reading ------------------------------------------------------------------

    def totals(self, label: Label) -> dict[str, float]:
        """Summed span time per name, plus ``cli.self``, under one label."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, name, p, start, end in self.spans:
            if p != label:
                continue
            out[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        for span_id, parent, name, p, start, end in self.spans:
            if p == label and name == "cli.main":
                out["cli.self"] += end - start - child_time[span_id]
        return out

    def count(self, label: Label, key: str) -> int:
        return self.counts.get((label, key), 0)

    def dump(self, path, summary: dict) -> None:
        doc = {
            "summary": summary,
            "counts": [[p, k, v] for (p, k), v in sorted(self.counts.items())],
            "span_fields": ["id", "parent", "name", "label", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _count_points(args, result):
    yield "grids.points", len(args[0])


def _count_bridged(args, result):
    yield "grids.bridged_cells", len(result) - len(args[0])


def _count_pairs(args, result):
    yield "trajectories.pairs", len(result)
    yield "trajectories.non_dis_pairs", sum(1 for row in result if row[2] != "dis")


def _count_instance(args, result):
    inst = args[0]
    n = len(inst.elements)
    yield "solver.pairs", n * (n - 1) // 2
    yield "solver.constraints", len(inst.constraints)


def _count_fact_lines(args, result):
    yield "asp.fact_lines", len(result.lines)


_COUNTERS = {
    "grids.regionize": _count_points,
    "grids.bridge_gaps": _count_bridged,
    "trajectories.all_pairs": _count_pairs,
    "solver.solve": _count_instance,
    "asp.emit_instance_facts": _count_fact_lines,
}

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "bench.synthetic_trajectories_s": "s",
    "bench.revealed_instance_s": "s",
    "bench.classify_calls": "count",
    "grids.regionize_s": "s",
    "grids.bridge_gaps_s": "s",
    "grids.points": "count",
    "grids.bridged_cells": "count",
    "trajectories.validate_trajectory_s": "s",
    "trajectories.all_pairs_s": "s",
    "trajectories.pairs": "count",
    "trajectories.non_dis_pairs": "count",
    "cli.self_s": "s",
    "solver.build_network_s": "s",
    "solver.algebraic_closure_s": "s",
    "solver.solve_s": "s",
    "solver.search_s": "s",
    "solver.pairs": "count",
    "solver.constraints": "count",
    "asp.emit_program_s": "s",
    "asp.emit_instance_facts_s": "s",
    "asp.fact_lines": "count",
    "trace.overhead_s": "s",
}


def per_layer_metrics(tracer: Tracer, run) -> dict[str, float]:
    """Median over traced passes of each layer's per-pass total.

    ``bench.*`` figures are medians over the traced set-ups.
    ``solver.search_s`` is derived: solve minus the build inside it minus
    closure timed on a separate network.  ``trace.overhead_s`` is the
    median traced minus the median untraced pass time of the same run.
    """
    setups = [tracer.totals(("setup", k)) for k in range(len(run.setup_times))]
    traced = [("pass", p.number) for p in run.passes if p.traced]
    per_pass = [tracer.totals(label) for label in traced]

    def med(name: str) -> float:
        return statistics.median(t.get(name, 0.0) for t in per_pass)

    def med_count(key: str) -> int:
        return int(statistics.median(tracer.count(label, key) for label in traced))

    out: dict[str, float] = {
        "bench.synthetic_trajectories_s": statistics.median(
            t.get("bench.synthetic_trajectories", 0.0) for t in setups),
        "bench.revealed_instance_s": statistics.median(
            t.get("bench.revealed_instance", 0.0) for t in setups),
        "bench.classify_calls": int(statistics.median(
            tracer.count(("setup", k), "bench.classify_calls")
            for k in range(len(setups)))),
    }
    for metric, unit in PER_LAYER_UNITS.items():
        if metric in out or metric in ("solver.search_s", "trace.overhead_s"):
            continue
        out[metric] = med(metric[:-2]) if unit == "s" else med_count(metric)
    out["solver.search_s"] = statistics.median(
        t.get("solver.solve", 0.0) - t.get("solver.build_network", 0.0)
        - t.get("solver.algebraic_closure", 0.0) for t in per_pass)
    out["trace.overhead_s"] = (statistics.median(p.wall for p in run.passes if p.traced)
                               - statistics.median(p.wall for p in run.passes if not p.traced))
    return {metric: out[metric] for metric in PER_LAYER_UNITS}
