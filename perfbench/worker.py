"""One benchmark run of one workload, in the interpreter ``run.py`` starts.

Prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics.  Set-up slots (input generation, the program's lazy set-up and a
``gc.collect()``) alternate with timed passes, each a whole round of the
workload's operations, until the passes have used the requested seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from env import OUT_DIR  # first: puts the checkout's src/ on the path

import trajcalc.solver
import selftest
import tracing
from workloads import WORKLOADS

# a set-up slot runs set-ups on until it has taken this long (at least one)
SETUP_SLOT_S = 0.3
# the closing slot goes on until the run has this many set-ups
SETUP_MIN_REPEATS = 5


class Pass:
    def __init__(self, number: int, traced: bool):
        self.number = number
        self.traced = traced
        self.wall = 0.0
        self.op_times: list[float] = []
        self.outputs: list[tuple[int, int]] = []   # (op index, index into Outputs)


class Outputs:
    """Distinct outputs of each operation.

    A pass keeps only a reference to an equal earlier output, so memory
    does not grow with the number of passes and each distinct output is
    checked once.
    """

    def __init__(self) -> None:
        self.distinct: dict[int, list[object]] = {}

    def add(self, index: int, output) -> int:
        known = self.distinct.setdefault(index, [])
        for k, earlier in enumerate(known):
            if earlier == output:
                return k
        known.append(output)
        return len(known) - 1


class Run:
    """What one run measured."""

    def __init__(self) -> None:
        self.setup_times: list[float] = []
        self.passes: list[Pass] = []
        self.outputs = Outputs()
        self.items = None           # from the latest set-up
        self.peak_rss_mb = 0.0      # read right after the latest pass


def measure(workload, seconds: float, tracer: tracing.Tracer | None = None) -> Run:
    """Set-up slots and timed passes, alternating, until the passes have
    taken ``seconds``, then a closing set-up slot.

    Spreading the set-ups over the run lets ``setup_s`` see the same
    machine phases as the passes.  Each pass runs on the items of the
    set-up just before it; set-up is deterministic, so every pass runs the
    same operations.  With a tracer, every set-up and every second pass is
    traced, so traced passes alternate with untraced ones.
    """
    run = Run()
    spent = 0.0
    min_passes = 1 if tracer is None else 2
    while True:
        closing = len(run.passes) >= min_passes and spent >= seconds
        _setup_slot(workload, run, tracer, closing)
        if closing:
            return run
        p = Pass(len(run.passes), traced=tracer is not None and len(run.passes) % 2 == 1)
        started = time.perf_counter()
        _timed_pass(workload, run, p, tracer if p.traced else None)
        spent += time.perf_counter() - started
        run.passes.append(p)


def _tracing(tracer: tracing.Tracer | None, label: tuple[str, int]):
    return contextlib.nullcontext() if tracer is None else tracer.tracing(label)


def _setup_slot(workload, run: Run, tracer, closing: bool) -> None:
    slot_start = time.perf_counter()
    while True:
        run.items = None  # the previous set-up's items go before the next is made
        gc.collect()
        with _tracing(tracer, ("setup", len(run.setup_times))):
            start = time.perf_counter()
            run.items = workload.setup()
            run.setup_times.append(time.perf_counter() - start)
        if time.perf_counter() - slot_start >= SETUP_SLOT_S and (
                not closing or len(run.setup_times) >= SETUP_MIN_REPEATS):
            break
    gc.collect()


def _timed_pass(workload, run: Run, p: Pass, tracer) -> None:
    build = trajcalc.solver.build_network  # looked up before any shim goes in
    results = []
    probe_time = 0.0
    with _tracing(tracer, ("pass", p.number)):
        pass_start = time.perf_counter()
        for item in run.items:
            op_start = time.perf_counter()
            try:
                output = workload.operation(item, p.number)
            except Exception as exc:  # a failed operation is counted, not fatal
                output = exc
            p.op_times.append(time.perf_counter() - op_start)
            results.append(output)
            if tracer is not None and hasattr(item, "inst"):
                # closure timed on a separate network built from the same
                # instance, left out of the pass time
                probe_start = time.perf_counter()
                trajcalc.solver.algebraic_closure(build(item.inst))
                probe_time += time.perf_counter() - probe_start
        p.wall = time.perf_counter() - pass_start - probe_time
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for index, output in enumerate(results):
        if hasattr(workload, "read_output") and not isinstance(output, Exception):
            output = workload.read_output(output)
        p.outputs.append((index, run.outputs.add(index, output)))


def _describe(exc: Exception) -> str:
    return "".join(traceback.format_exception(exc)).strip()


def check_run(workload, run: Run) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every pass."""
    items = run.items
    verdicts: dict[tuple[int, int], list[str]] = {}
    for index, known in run.outputs.distinct.items():
        for k, output in enumerate(known):
            if isinstance(output, Exception):
                found = [f"{items[index].label}: {_describe(output)}"]
            else:
                try:
                    found = workload.check(items[index], output)
                except Exception as exc:  # output the check cannot even read
                    found = [f"{items[index].label}: the check raised {_describe(exc)}"]
            verdicts[(index, k)] = found
    attempted = sum(len(p.outputs) for p in run.passes)
    failed = sum(1 for p in run.passes for key in p.outputs if verdicts[key])
    problems = [line for found in verdicts.values() for line in found]
    return attempted, failed, problems


def input_problems(items) -> list[str]:
    problems = []
    for item in items:
        if hasattr(item, "truth_problems"):
            problems += item.truth_problems()
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            result = traced_run(workload, args)
        else:
            result = plain_run(workload, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _result(run: Run, workload, metrics: dict, units: dict) -> dict:
    """The result line.

    ``correct`` is false when a self-test of the checks fails or a
    generated input is itself inconsistent.  An operation whose output
    fails its check counts in ``failed``, not against ``correct``.
    """
    sanity = input_problems(run.items) + selftest.run_all()
    attempted, failed, problems = check_run(workload, run)
    for line in (sanity + problems)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    return {"correct": not sanity, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def plain_run(workload, args) -> dict:
    run = measure(workload, args.seconds)
    op_times = [t for p in run.passes for t in p.op_times]
    metrics = {
        "setup_s": statistics.median(run.setup_times),
        "wall_s": statistics.median(p.wall for p in run.passes),
        "op_p50_ms": statistics.median(op_times) * 1000.0,
        "op_max_ms": statistics.median(max(p.op_times) for p in run.passes) * 1000.0,
        "peak_rss_mb": run.peak_rss_mb,
    }
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_max_ms": "ms",
             "peak_rss_mb": "MB"}
    return _result(run, workload, metrics, units)


def traced_run(workload, args) -> dict:
    """Traced set-ups; untraced and traced passes alternating."""
    tracer = tracing.Tracer()
    run = measure(workload, args.seconds, tracer)
    metrics = tracing.per_layer_metrics(tracer, run)
    result = _result(run, workload, metrics, tracing.PER_LAYER_UNITS)
    tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "metrics": metrics,
                 "derived": ["solver.search_s", "trace.overhead_s", "cli.self_s"],
                 "plain_pass_walls_s": [p.wall for p in run.passes if not p.traced],
                 "traced_pass_walls_s": [p.wall for p in run.passes if p.traced]})
    return result


if __name__ == "__main__":
    sys.exit(main())
