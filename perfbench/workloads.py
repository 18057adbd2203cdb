"""The three workloads: seeded inputs, one operation each, and its checks.

Every workload builds its inputs from the seed alone and hands the program
nothing else.  An operation returns its output; ``check`` returns the list
of problems with one output (empty when correct).  Program functions are
called through their module (``bench.revealed_instance``, ``cli.main``) so
that the traced run's shims see the calls.
"""

from __future__ import annotations

import contextlib
import io
import random
from datetime import datetime, timedelta
from pathlib import Path

import trajcalc
import trajcalc.asp as asp
import trajcalc.bench as bench
import trajcalc.cli as cli
import trajcalc.solver as solver
from trajcalc.grids import GridSpec
from trajcalc.trajectories import Trajectory

import checks

# The paper's grid and walk length for its synthetic experiments.
EXP_GRID = (0.0, 1.0, 0.0, 1.0, 100, 200)
EXP_LENGTH = 60
# per calculus; three sizes keep a pass near 9 s, so a run times several.
# The n=100 solves sit between the small and the large ones, so the median
# operation time is taken among them, not across a gap between sizes
EXP1_SIZES = (50, 100, 150)
EXP2_N = 100
EXP2_KNOWN = (75, 87, 99)
WARMUP_N = 20
MODES = ("tc6", "tc10")


def _fresh_calculi() -> None:
    # the built-in calculi are built lazily and memoised; start each set-up
    # from the state a fresh process has
    trajcalc.builtin_tc6.cache_clear()
    trajcalc.builtin_tc10.cache_clear()


def _exp_grid() -> GridSpec:
    # a new object per set-up, so its lazily built neighbour table is rebuilt
    return GridSpec(*EXP_GRID)


class OpFailed(Exception):
    pass


class _Instance:
    """One generated instance with the trajectories it came from."""

    def __init__(self, label: str, mode: str, trajectories, inst):
        self.label = label
        self.mode = mode
        self.trajectories = trajectories
        self.inst = inst
        self.truth = None

    def constraint_ids(self) -> list[tuple[str, str, int]]:
        return [(c.x, c.y, c.rels.bit_length() - 1) for c in self.inst.constraints]

    def truth_problems(self) -> list[str]:
        """The classified configuration must itself pass the model check.

        Keeps the oracle's relation matrix in ``truth`` for the output checks.
        """
        calc = self.inst.calculus
        self.truth, problems = checks.truth_matrix(calc, self.mode, self.trajectories)
        if any(c.rels.bit_count() != 1 for c in self.inst.constraints):
            problems.append(f"{self.label}: a revealed constraint is not a single relation")
        return problems + checks.check_model(calc, self.inst.elements, self.truth,
                                             self.constraint_ids())


class Exp1:
    """Experiment 1: one revealed relation per trajectory, growing n."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    @staticmethod
    def _instance(grid: GridSpec, mode: str, n: int, seed: int) -> _Instance:
        trajs = bench.synthetic_trajectories(mode, n, seed, grid, EXP_LENGTH)
        inst = bench.revealed_instance(mode, trajs, bench.reveal_pairs_exp1(n, seed))
        return _Instance(f"{mode} n={n} seed={seed}", mode, trajs, inst)

    def setup(self) -> list[_Instance]:
        _fresh_calculi()
        grid = _exp_grid()
        for mode in MODES:
            solver.solve(self._instance(grid, mode, WARMUP_N, -self.seed).inst)
        # instance i draws its trajectories from seeds base + 1000 i onwards
        base = 100_000 * self.seed
        return [self._instance(grid, mode, n, base + 1000 * (len(EXP1_SIZES) * m + i))
                for m, mode in enumerate(MODES) for i, n in enumerate(EXP1_SIZES)]

    def operation(self, item: _Instance, pass_no: int):
        return solver.solve(item.inst)

    def check(self, item: _Instance, model) -> list[str]:
        if model is None:
            return [f"{item.label}: unsat on a satisfiable instance"]
        matrix = checks.model_matrix(item.inst.elements, model.of)
        return checks.check_model(item.inst.calculus, item.inst.elements, matrix,
                                  item.constraint_ids())


class Exp2Dense:
    """Experiment 2 at its dense end: n fixed, k from 3n/4 to n-1."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    @staticmethod
    def _instances(grid: GridSpec, n: int, known, seed: int) -> list[_Instance]:
        out = []
        for mode in MODES:
            trajs = bench.synthetic_trajectories(mode, n, seed, grid, EXP_LENGTH)
            for k in known:
                inst = bench.revealed_instance(mode, trajs, bench.reveal_pairs_exp2(n, k, seed))
                out.append(_Instance(f"{mode} n={n} k={k}", mode, trajs, inst))
        return out

    def setup(self) -> list[_Instance]:
        _fresh_calculi()
        grid = _exp_grid()
        for item in self._instances(grid, WARMUP_N, (WARMUP_N - 1,), -self.seed):
            self.operation(item, 0)
        return self._instances(grid, EXP2_N, EXP2_KNOWN, 100_000 * self.seed)

    def operation(self, item: _Instance, pass_no: int):
        model = solver.solve(item.inst)
        calc = item.inst.calculus
        programs = {kind: asp.emit_program(calc, kind).text for kind in asp.ENCODINGS}
        facts = {kind: asp.emit_instance_facts(item.inst, kind).text for kind in asp.ENCODINGS}
        return model, programs, facts

    def check(self, item: _Instance, output) -> list[str]:
        model, programs, facts = output
        if model is None:
            return [f"{item.label}: unsat on a satisfiable instance"]
        calc = item.inst.calculus
        elements = item.inst.elements
        index = {name: i for i, name in enumerate(elements)}
        # every known pair must carry the oracle's relation; with k = n-1
        # that is every pair
        truth = [(c.x, c.y, int(item.truth[index[c.x], index[c.y]]))
                 for c in item.inst.constraints]
        matrix = checks.model_matrix(elements, model.of)
        problems = checks.check_model(calc, elements, matrix, truth)
        for kind in asp.ENCODINGS:
            problems += checks.check_program(calc, kind, programs[kind])
            problems += checks.check_facts(calc, elements, item.constraint_ids(),
                                           kind, facts[kind])
        return problems


# -- relations: synthetic GPS points files ---------------------------------------

# name -> (rows, cols, lat_min, lat_max, lon_min, lon_max)
MAPS = {
    "wide": (100, 200, 39.75, 40.10, 116.15, 116.65),
    "small": (20, 20, 39.90, 39.95, 116.35, 116.40),
}
# three sizes per map, so the median operation falls inside one size
RELATION_SIZES = (150, 300, 450)
WALK_LENGTH = 60
JITTER = 0.4        # a fix lies within this share of a cell from its centre
P_REPEAT = 0.15     # a cell gets a second fix
P_DROP = 0.10       # an inner cell gets no fix, leaving a gap to bridge
FIX_INTERVAL_S = (30, 60)
EPOCH = datetime(2008, 2, 2, 13, 0, 0)


def _walk(rng: random.Random, rows: int, cols: int, length: int) -> list[tuple[int, int]]:
    """8-connected random walk that starts and finishes in different cells."""
    while True:
        r, c = rng.randrange(rows), rng.randrange(cols)
        cells = [(r, c)]
        while len(cells) < length:
            r, c = rng.choice([(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                               if (dr or dc) and 0 <= r + dr < rows and 0 <= c + dc < cols])
            cells.append((r, c))
        if cells[0] != cells[-1]:
            return cells


def write_points_file(path: Path, map_name: str, n_objects: int, seed: str) -> dict[str, list[int]]:
    """Write a points CSV; return each object's fix cells in time order."""
    rows, cols, lat_min, lat_max, lon_min, lon_max = MAPS[map_name]
    dlat = (lat_max - lat_min) / rows
    dlon = (lon_max - lon_min) / cols
    rng = random.Random(seed)
    records = []
    fix_cells: dict[str, list[int]] = {}
    for obj in range(1, n_objects + 1):
        cells = _walk(rng, rows, cols, WALK_LENGTH)
        t = rng.randrange(3600)
        seen: list[int] = []
        for pos, (r, c) in enumerate(cells):
            if 0 < pos < len(cells) - 1 and rng.random() < P_DROP:
                continue
            for _ in range(2 if rng.random() < P_REPEAT else 1):
                lat = lat_min + (r + 0.5 + rng.uniform(-JITTER, JITTER)) * dlat
                lon = lon_min + (c + 0.5 + rng.uniform(-JITTER, JITTER)) * dlon
                t += rng.randint(*FIX_INTERVAL_S)
                records.append((t, obj, lon, lat))
            if not seen or seen[-1] != r * cols + c:
                seen.append(r * cols + c)
        fix_cells[str(obj)] = seen
    records.sort()
    with open(path, "w", encoding="utf-8") as handle:
        for t, obj, lon, lat in records:
            stamp = (EPOCH + timedelta(seconds=t)).isoformat(sep=" ")
            handle.write(f"{obj},{stamp},{lon:.6f},{lat:.6f}\n")
    return fix_cells


class _PointsFile:
    def __init__(self, work_dir: Path, map_name: str, n_objects: int, seed: str):
        self.label = f"{map_name} n={n_objects}"
        self.map_name = map_name
        self.stem = work_dir / f"{map_name}-{n_objects}"
        self.points = self.stem.with_suffix(".points.csv")
        self.fix_cells = write_points_file(self.points, map_name, n_objects, seed)

    def grid_args(self) -> list[str]:
        rows, cols, *bbox = MAPS[self.map_name]
        return ["--grid", f"{rows}x{cols}", "--bbox", ",".join(str(v) for v in bbox)]


class Relations:
    """The dataset front end: ingest a points file, then classify all pairs."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> list[_PointsFile]:
        _fresh_calculi()
        for map_name in MAPS:
            warm = _PointsFile(self.work_dir, map_name, WARMUP_N, f"warmup:{self.seed}")
            self.read_output(self.operation(warm, 0))
        return [_PointsFile(self.work_dir, map_name, n, f"relations:{self.seed}:{map_name}:{n}")
                for map_name in MAPS for n in RELATION_SIZES]

    def operation(self, item: _PointsFile, pass_no: int):
        trajectories = Path(f"{item.stem}.p{pass_no}.traj")
        relations = Path(f"{item.stem}.p{pass_no}.relations.csv")
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(["ingest", "--points", str(item.points), *item.grid_args(),
                             "--policy", "rasterize", "--out", str(trajectories)])
            if code == 0:
                code = cli.main(["relations", "--trajectories", str(trajectories),
                                 "--calculus", "tc10", *item.grid_args(),
                                 "--out", str(relations)])
        if code != 0:
            raise OpFailed(f"{item.label}: exit code {code}: {log.getvalue().strip()}")
        return trajectories, relations

    @staticmethod
    def read_output(paths) -> tuple[str, str]:
        """Output files as text; the files are removed once read."""
        texts = tuple(p.read_text(encoding="utf-8") for p in paths)
        for p in paths:
            p.unlink()
        return texts

    def check(self, item: _PointsFile, output) -> list[str]:
        traj_text, relations_text = output
        try:
            ingested = checks.parse_trajectory_file(traj_text)
        except ValueError as exc:
            return [f"{item.label}: unreadable trajectory file: {exc}"]
        rows, cols = MAPS[item.map_name][:2]
        problems = checks.check_ingest(rows, cols, item.fix_cells, ingested)
        trajectories = [Trajectory(name, cells) for name, cells in ingested.items()]
        return problems + checks.check_relations("tc10", trajectories, relations_text)


WORKLOADS = {"exp1": Exp1, "exp2-dense": Exp2Dense, "relations": Relations}
