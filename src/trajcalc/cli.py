"""Command-line front end.

Subcommands: ingest, relations, solve, enumerate, emit, verify, calculus,
bench.  Exit codes follow one convention throughout: 0 for success (or SAT /
zero violations), 1 for UNSAT / violations found, 2 for usage, input, or
runtime errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import statistics
import sys
import time
from array import array
from datetime import datetime
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .asp import ENCODINGS, emit_instance_facts, emit_program
from .calculus import (Calculus, CalculusError, builtin, load_calculus,
                       save_calculus, validate_calculus)
from .grids import GapError, GridSpec, OutOfBoxError, bridge_gaps, regionize
from .oracle import coverage_report, verify_soundness
from .solver import (InstanceError, SolveTimeout, UnsupportedCalculusError,
                     enumerate_models, load_instance, models_to_json, solve)
from .trajectories import MODES, Trajectory, all_pairs, validate_trajectory

EXIT_OK = 0
EXIT_NO = 1      # unsat / violations
EXIT_ERROR = 2

GRID_FIELDS = ("lat_min", "lat_max", "lon_min", "lon_max", "rows", "cols")


class CliError(Exception):
    pass


@contextlib.contextmanager
def _open_out(path: str | None):
    """Text handle for an output path; ``-`` or None is stdout, left open."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _write_out(text: str, path: str | None) -> None:
    with _open_out(path) as handle:
        handle.write(text)


def _parse_grid_shape(value: str) -> tuple[int, int]:
    try:
        rows, cols = value.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise CliError(f"--grid expects ROWSxCOLS, got {value!r}") from None


def _grid_from_args(args) -> GridSpec:
    if getattr(args, "grid_file", None):
        try:
            doc = json.loads(Path(args.grid_file).read_text(encoding="utf-8"))
            return GridSpec(**{k: doc[k] for k in GRID_FIELDS})
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(f"bad grid file {args.grid_file}: {exc}") from None
    if not getattr(args, "grid", None):
        raise CliError("a grid is required: pass --grid ROWSxCOLS or --grid-file PATH")
    rows, cols = _parse_grid_shape(args.grid)
    try:
        lat_min, lat_max, lon_min, lon_max = (float(v) for v in args.bbox.split(","))
    except ValueError:
        raise CliError(f"--bbox expects latmin,latmax,lonmin,lonmax, got {args.bbox!r}") from None
    try:
        return GridSpec(lat_min, lat_max, lon_min, lon_max, rows, cols)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _calculus_from_arg(value: str) -> Calculus:
    calc = builtin(value)
    if calc is not None:
        return calc
    try:
        return load_calculus(Path(value).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read calculus {value!r}: {exc}") from None
    except CalculusError as exc:
        raise CliError(f"bad calculus file {value!r}: {exc}") from None


def _parse_timestamp(raw: str, line_no: int) -> float:
    # no float has a colon, so a clock time skips the failing float() call
    if ":" not in raw:
        try:
            value = float(raw)
        except ValueError:
            pass
        else:
            # a non-finite time has no place in an object's time order
            if math.isfinite(value):
                return value
            raise CliError(f"line {line_no}: bad timestamp {raw!r}")
    try:
        return datetime.fromisoformat(raw).timestamp()
    except ValueError:
        raise CliError(f"line {line_no}: bad timestamp {raw!r}") from None


def _parse_coordinates(lon_raw: str, lat_raw: str, line_no: int) -> tuple[float, float]:
    lon_raw, lat_raw = lon_raw.strip(), lat_raw.strip()
    try:
        lon, lat = float(lon_raw), float(lat_raw)
    except ValueError:
        pass
    else:
        if math.isfinite(lon) and math.isfinite(lat):
            return lon, lat
    raise CliError(f"line {line_no}: bad coordinates {lon_raw!r},{lat_raw!r}")


def _read_points(path: str) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A points CSV as columns: object names in first-seen order, and per
    point its object's index, timestamp, latitude and longitude.

    One pass appends to typed arrays; fields are stripped, and each distinct
    timestamp string is parsed once.  The first bad line raises, and on one
    line the timestamp is checked before the coordinates.
    """
    names: dict[str, int] = {}
    stamps: dict[str, float] = {}
    obj, ts, lat, lon = array("q"), array("d"), array("d"), array("d")
    isfinite = math.isfinite
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for line_no, row in enumerate(csv.reader(handle), start=1):
                if len(row) != 4:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    raise CliError(f"line {line_no}: expected object_id,timestamp,longitude,latitude")
                object_id, ts_raw, lon_raw, lat_raw = row
                stamp = stamps.get(ts_raw)
                if stamp is None:
                    stamp = stamps[ts_raw] = _parse_timestamp(ts_raw.strip(), line_no)
                # float() skips most whitespace itself; the stripped retry
                # settles the rest, and reports a bad line
                try:
                    x, y = float(lon_raw), float(lat_raw)
                except ValueError:
                    x = y = math.nan
                if not (isfinite(x) and isfinite(y)):
                    x, y = _parse_coordinates(lon_raw, lat_raw, line_no)
                obj.append(names.setdefault(object_id.strip(), len(names)))
                ts.append(stamp)
                lon.append(x)
                lat.append(y)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    return (list(names), np.frombuffer(obj, dtype=np.int64), np.frombuffer(ts),
            np.frombuffer(lat), np.frombuffer(lon))


def read_trajectory_file(path: str) -> list[Trajectory]:
    """One trajectory per line: `id: space-separated region integers`."""
    trajectories = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep or not head.strip():
            raise CliError(f"{path}:{line_no}: expected `id: regions...`")
        try:
            regions = tuple(int(tok) for tok in tail.split())
        except ValueError:
            raise CliError(f"{path}:{line_no}: regions must be integers") from None
        if not regions:
            raise CliError(f"{path}:{line_no}: no regions")
        trajectories.append(Trajectory(head.strip(), regions))
    return trajectories


def write_trajectory_file(trajectories: list[Trajectory]) -> str:
    return "".join(f"{t.id}: {' '.join(str(r) for r in t.regions)}\n" for t in trajectories)


# -- subcommands ----------------------------------------------------------------


def cmd_ingest(args) -> int:
    grid = _grid_from_args(args)
    names, obj, ts, lat, lon = _read_points(args.points)
    if not names:
        raise CliError(f"{args.points}: no points")
    clamp = args.clamp or args.policy == "clamp"
    gap_policy = "rasterize" if args.policy in ("rasterize", "clamp") else "reject"
    trajectories = []
    # by object, then timestamp; the sort is stable, so equal timestamps keep
    # file order
    order = np.lexsort((ts, obj))
    lat, lon = lat[order], lon[order]
    ends = np.cumsum(np.bincount(obj, minlength=len(names))).tolist()
    for object_id, start, end in zip(names, [0] + ends, ends):
        try:
            seq = regionize(lat[start:end], lon[start:end], grid, clamp=clamp)
            seq = bridge_gaps(seq, grid, policy=gap_policy)
        except (OutOfBoxError, GapError) as exc:
            print(f"ingest: skipping object {object_id!r}: {exc}", file=sys.stderr)
            continue
        if len(seq) < 2:
            print(f"ingest: skipping object {object_id!r}: fewer than 2 distinct regions",
                  file=sys.stderr)
            continue
        trajectories.append(Trajectory(object_id, tuple(seq)))
    _write_out(write_trajectory_file(trajectories), args.out)
    lengths = [len(t.regions) for t in trajectories]
    mean = statistics.fmean(lengths) if lengths else 0.0
    sd = statistics.pstdev(lengths) if len(lengths) > 1 else 0.0
    print(f"ingest: {len(trajectories)} trajectories, mean length {mean:.1f}, "
          f"stddev {sd:.1f}", file=sys.stderr)
    return EXIT_OK


def cmd_relations(args) -> int:
    grid = _grid_from_args(args)
    trajectories = read_trajectory_file(args.trajectories)
    for t in trajectories:
        problems = validate_trajectory(t, grid, args.calculus)
        if problems:
            raise CliError(f"trajectory {t.id!r} invalid for {args.calculus}: "
                           + "; ".join(problems))
    # all_pairs checks every trajectory before the output is opened; the
    # n(n-1)/2 rows are written as they come
    rows = all_pairs(args.calculus, trajectories)
    with _open_out(args.out) as handle:
        handle.write("id1,id2,relation\n")
        handle.writelines(f"{a},{b},{rel}\n" for a, b, rel in rows)
    return EXIT_OK


def _load_instance_file(path: str):
    try:
        return load_instance(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except (InstanceError, CalculusError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _deadline(args) -> float | None:
    if args.budget_ms is None:
        return None
    return time.monotonic() + args.budget_ms / 1000.0


def cmd_solve(args) -> int:
    inst = _load_instance_file(args.instance)
    try:
        model = solve(inst, deadline=_deadline(args))
    except SolveTimeout:
        raise CliError(f"budget of {args.budget_ms} ms exhausted") from None
    except UnsupportedCalculusError as exc:
        raise CliError(str(exc)) from None
    models = [model] if model is not None else []
    _write_out(models_to_json(models, sat=model is not None), args.out)
    return EXIT_OK if model is not None else EXIT_NO


def cmd_enumerate(args) -> int:
    inst = _load_instance_file(args.instance)
    try:
        models = enumerate_models(inst, limit=args.limit, deadline=_deadline(args))
    except SolveTimeout:
        raise CliError(f"budget of {args.budget_ms} ms exhausted") from None
    except UnsupportedCalculusError as exc:
        raise CliError(str(exc)) from None
    _write_out(models_to_json(models), args.out)
    return EXIT_OK if models else EXIT_NO


def cmd_emit(args) -> int:
    calc = _calculus_from_arg(args.calculus)
    report = validate_calculus(calc)
    if not report.ok:
        raise CliError("refusing to emit a calculus that fails validation:\n" + report.format())
    _write_out(emit_program(calc, args.encoding).text, args.out)
    if args.instance:
        inst = _load_instance_file(args.instance)
        if inst.calculus != calc:
            raise CliError("instance and --calculus disagree")
        _write_out(emit_instance_facts(inst, args.encoding).text, args.facts_out)
    return EXIT_OK


def cmd_verify(args) -> int:
    grid = _grid_from_args(args)
    report = verify_soundness(args.calculus, grid, args.max_len,
                              sample=args.sample, seed=args.seed)
    if args.report:
        Path(args.report).write_text(report.to_json(), encoding="utf-8")
    calc = builtin(args.calculus)
    unwitnessed = coverage_report(report, calc)
    print(f"verify: {report.triples_checked} triples over {report.trajectory_count} "
          f"trajectories, {report.violation_count} violation(s), "
          f"{len(unwitnessed)} table triple(s) unwitnessed", file=sys.stderr)
    for v in report.violations[:10]:
        print(f"  violation: {v}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_NO


def cmd_calculus(args) -> int:
    if args.calculus_cmd == "validate":
        try:
            calc = load_calculus(Path(args.file).read_text(encoding="utf-8"))
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from None
        except CalculusError as exc:
            raise CliError(f"{args.file}: {exc}") from None
        report = validate_calculus(calc)
        print(report.format())
        return EXIT_OK if report.ok else EXIT_NO
    if args.calculus_cmd == "save":
        calc = _calculus_from_arg(args.calculus)
        _write_out(save_calculus(calc), args.out)
        return EXIT_OK
    raise CliError("choose a calculus subcommand: validate or save")


def _parse_int_list(value: str) -> list[int]:
    # "10,20,30" or "10:100:10" (start:stop:step, stop inclusive)
    if ":" in value:
        parts = value.split(":")
        if len(parts) not in (2, 3):
            raise CliError(f"bad range {value!r}, expected START:STOP[:STEP]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0:
            raise CliError("range step must be positive")
        return list(range(start, stop + 1, step))
    try:
        return [int(tok) for tok in value.split(",") if tok]
    except ValueError:
        raise CliError(f"bad size list {value!r}") from None


def cmd_bench(args) -> int:
    values = _parse_int_list(args.sizes if args.experiment == "exp1" else args.known)
    trajectories = None
    if args.trajectories:
        trajectories = read_trajectory_file(args.trajectories)
    rows = bench_mod.run_experiment(
        args.experiment, args.calculus, values, seed=args.seed,
        budget_ms=args.budget_ms, trajectories=trajectories,
        length=args.length, n_fixed=args.n, parallel=args.parallel)
    _write_out(bench_mod.rows_to_csv(rows), args.out)
    return EXIT_OK


def _add_grid_args(parser) -> None:
    parser.add_argument("--grid", help="grid shape ROWSxCOLS, e.g. 100x200")
    parser.add_argument("--bbox", default="0,1,0,1",
                        help="latmin,latmax,lonmin,lonmax (default 0,1,0,1)")
    parser.add_argument("--grid-file", help="JSON sidecar with the six grid fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajcalc",
        description="Qualitative trajectory reasoning: classification, model "
                    "existence, table verification, ASP emission, benchmarks.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ingest", help="points CSV -> trajectory file")
    p.add_argument("--points", required=True, help="CSV: object_id,timestamp,longitude,latitude")
    _add_grid_args(p)
    p.add_argument("--policy", choices=("reject", "rasterize", "clamp"), default="reject",
                   help="gap handling; clamp also pulls out-of-box points inside")
    p.add_argument("--clamp", action="store_true", help="clamp out-of-box points to the grid")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("relations", help="all-pairs relation matrix (CSV)")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--calculus", choices=MODES, default="tc6")
    _add_grid_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("solve", help="decide model existence for an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("enumerate", help="enumerate models of an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("emit", help="write an ASP encoding of a calculus")
    p.add_argument("--calculus", default="tc6", help="tc6, tc10, or a calculus JSON file")
    p.add_argument("--encoding", choices=ENCODINGS, required=True)
    p.add_argument("--instance", help="also emit instance facts from this file")
    p.add_argument("--facts-out", default="-", help="where instance facts go")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_emit)

    p = sub.add_parser("verify", help="composition soundness against enumerated trajectories")
    p.add_argument("--calculus", choices=MODES, default="tc6")
    _add_grid_args(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--sample", type=int, default=None,
                   help="check this many seeded random triples instead of all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("calculus", help="calculus file utilities")
    csub = p.add_subparsers(dest="calculus_cmd", required=True)
    pv = csub.add_parser("validate", help="check the calculus laws of a file")
    pv.add_argument("--file", required=True)
    ps = csub.add_parser("save", help="write a calculus in the file format")
    ps.add_argument("--calculus", default="tc6")
    ps.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_calculus)

    p = sub.add_parser("bench", help="timed solving over generated instance families")
    p.add_argument("--experiment", choices=bench_mod.EXPERIMENTS, required=True)
    p.add_argument("--calculus", choices=MODES, default="tc6")
    p.add_argument("--sizes", default="10:100:10",
                   help="exp1 trajectory counts: list 10,20,... or range START:STOP:STEP")
    p.add_argument("--known", default="3,5,10,15,20,25,30,35,40,45,50",
                   help="exp2 known relations per trajectory")
    p.add_argument("--n", type=int, default=50, help="exp2 trajectory count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--length", type=int, default=bench_mod.DEFAULT_LENGTH,
                   help="synthetic trajectory length")
    p.add_argument("--trajectories", help="use trajectories from this file instead")
    p.add_argument("--parallel", type=int, default=0,
                   help="worker processes for non-timing runs (0 = sequential)")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"trajcalc: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (InstanceError, CalculusError, ValueError) as exc:
        print(f"trajcalc: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
