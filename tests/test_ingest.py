"""The columnar ingest front end against the per-point reference path.

``reference_ingest`` holds the scalar reader, sort, ``regionize``,
``bridge_gaps`` and ``validate_trajectory`` that the array code replaced.
On seeded points files the CLI must write the same trajectory file, the
same diagnostics and the same exit code; on seeded corrupted region
sequences the array checks must report the same problems in the same order.
"""

import contextlib
import io
import os
import random
import time
import tracemalloc
from datetime import datetime, timedelta

import pytest

import reference_ingest as ref
from trajcalc import cli
from trajcalc.grids import GapError, GridSpec, bridge_gaps
from trajcalc.trajectories import Trajectory, random_trajectory, validate_trajectory

EPOCH = datetime(2008, 2, 2, 13, 0, 0)
GRIDS = {
    "wide": GridSpec(39.75, 40.10, 116.15, 116.65, 100, 200),
    "small": GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4),
}


def grid_args(grid: GridSpec) -> list[str]:
    return ["--grid", f"{grid.rows}x{grid.cols}",
            "--bbox", f"{grid.lat_min!r},{grid.lat_max!r},{grid.lon_min!r},{grid.lon_max!r}"]


def stamp(t: float, fmt: str) -> str:
    if fmt == "float":
        return repr(t)
    return (EPOCH + timedelta(seconds=t)).isoformat(sep=" " if fmt == "iso-space" else "T")


def points_lines(rng: random.Random, grid: GridSpec, n_objects: int, fmt: str, *,
                 max_points: int = 12, out_of_box: float = 0.0, equal_ts: bool = False,
                 single_region: float = 0.0, pad: bool = False, max_step: int = 2) -> list[str]:
    """Seeded points rows, objects interleaved and out of time order.

    Walks move up to ``max_step`` cells a fix in each axis: one repeats cells,
    two also leaves gaps to bridge.
    """
    dlat = (grid.lat_max - grid.lat_min) / grid.rows
    dlon = (grid.lon_max - grid.lon_min) / grid.cols
    rows = []
    for k in range(n_objects):
        oid = f"o{k}"
        r, c = rng.randrange(grid.rows), rng.randrange(grid.cols)
        t = rng.randrange(100_000)
        still = rng.random() < single_region
        for _ in range(rng.randint(1, max_points)):
            if not still:
                r = min(max(r + rng.randint(-max_step, max_step), 0), grid.rows - 1)
                c = min(max(c + rng.randint(-max_step, max_step), 0), grid.cols - 1)
            lat = grid.lat_min + (r + rng.random()) * dlat
            lon = grid.lon_min + (c + rng.random()) * dlon
            if r == grid.rows - 1 and rng.random() < 0.3:
                lat = grid.lat_max  # on the max edge: still the last row
            if rng.random() < out_of_box:
                lat = grid.lat_max + rng.uniform(0.0, 3.0) * dlat
            if rng.random() < out_of_box:
                lon = grid.lon_min - rng.uniform(0.0, 3.0) * dlon
            t += rng.choice((0, 0, 1, 30)) if equal_ts else rng.randint(1, 60)
            fields = [oid, stamp(t, fmt), repr(lon), f"{lat:.6f}"]
            if pad:
                fields = [rng.choice(("", " ", "\t", "\x1c")) + f + rng.choice(("", "  ", "\x1c"))
                          for f in fields]
            rows.append(",".join(fields))
    rng.shuffle(rows)
    if pad:
        for _ in range(max(1, len(rows) // 10)):
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(("", "   ", "\t")))
    return rows


def write(tmp_path, lines: list[str], name: str = "points.csv"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def run_cli(points, grid: GridSpec, policy: str = "reject",
            clamp: bool = False) -> tuple[int, str, str]:
    """``trajcalc ingest`` in-process: (exit code, trajectory file, stderr)."""
    out = points.with_suffix(".traj")
    if out.exists():
        out.unlink()
    err = io.StringIO()
    argv = ["ingest", "--points", str(points), *grid_args(grid), "--policy", policy,
            "--out", str(out)]
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + (["--clamp"] if clamp else []))
    return code, out.read_text(encoding="utf-8") if out.exists() else "", err.getvalue()


def assert_same(points, grid: GridSpec, policy: str = "reject",
                clamp: bool = False) -> tuple[int, str, str]:
    got = run_cli(points, grid, policy, clamp)
    assert got == ref.ingest(str(points), grid, policy, clamp)
    return got


class TestIngestMatchesReference:
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("fmt", ["float", "iso-space", "iso-T"])
    @pytest.mark.parametrize("policy", ["reject", "rasterize", "clamp"])
    def test_seeded_files(self, tmp_path, grid_name, fmt, policy):
        grid = GRIDS[grid_name]
        for seed in range(3):
            rng = random.Random(f"{grid_name}:{fmt}:{policy}:{seed}")
            path = write(tmp_path, points_lines(rng, grid, 40, fmt, out_of_box=0.03,
                                                equal_ts=seed == 1, single_region=0.1))
            code, _, err = assert_same(path, grid, policy)
            assert code == 0 and "trajectories, mean length" in err

    @pytest.mark.parametrize("policy", ["reject", "rasterize"])
    def test_clamp_flag(self, tmp_path, policy):
        grid = GRIDS["small"]
        rng = random.Random(f"clamp:{policy}")
        path = write(tmp_path, points_lines(rng, grid, 40, "float", out_of_box=0.2))
        assert_same(path, grid, policy, clamp=True)

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        grid = GRIDS["small"]
        rng = random.Random("ties")
        path = write(tmp_path, points_lines(rng, grid, 30, "iso-space", max_points=20,
                                            equal_ts=True))
        assert_same(path, grid, "rasterize")
        # the tie order shows: a at (0,0) then (3,3) at one time, then (0,3)
        lines = ["a,5,0.1,0.1", "a,5,0.9,0.9", "a,6,0.9,0.1"]
        code, text, _ = run_cli(write(tmp_path, lines, "ties.csv"), grid, "rasterize")
        assert code == 0 and text == "a: 0 5 10 15 11 7 3\n"

    def test_blank_lines_and_padded_fields(self, tmp_path):
        for grid_name, grid in GRIDS.items():
            rng = random.Random(f"pad:{grid_name}")
            path = write(tmp_path, points_lines(rng, grid, 40, "iso-T", pad=True))
            assert_same(path, grid, "rasterize")

    def test_out_of_box_and_single_region_diagnostics(self, tmp_path):
        grid = GRIDS["wide"]
        rng = random.Random("diagnostics")
        path = write(tmp_path, points_lines(rng, grid, 60, "float", out_of_box=0.1,
                                            single_region=0.3))
        _, _, err = assert_same(path, grid, "reject")
        assert "outside the grid bounding box" in err
        assert "fewer than 2 distinct regions" in err
        assert "are not externally connected" in err

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, ["", "  "])
        code, _, err = assert_same(path, GRIDS["small"])
        assert code == 2 and "no points" in err


class TestIngestErrorsMatchReference:
    GOOD = ["a,1,0.1,0.1", "a,2,0.4,0.1", "b,1,0.9,0.9"]

    @pytest.mark.parametrize("bad", [
        "a,1,0.5",                    # too few fields
        "a,1,0.5,0.5,9",              # too many fields
        "a,yesterday,0.5,0.5",        # bad timestamp
        "a,nan,0.5,0.5",              # non-finite timestamps
        "a,-inf,0.5,0.5",
        "a,1e999,0.5,0.5",
        "a,2008-02-30 10:00:00,0.5,0.5",
        "a,1,east,0.5",               # bad coordinates
        "a,1,0.5,",
        "a,1,inf,0.5",                # non-finite coordinates
        "a,1,0.5,nan",
        "a,1,1e999,0.5",
        "a,never,nan,x",              # timestamp first on one line
    ])
    def test_bad_line(self, tmp_path, bad):
        lines = self.GOOD[:2] + [bad] + self.GOOD[2:]
        path = write(tmp_path, lines)
        code, _, err = run_cli(path, GRIDS["small"])
        assert (code, err) == ref.ingest(str(path), GRIDS["small"])[::2]
        assert code == 2 and err.startswith("trajcalc: line 3: ")

    @pytest.mark.parametrize("first, second", [
        ("a,1,0.5,nan", "a,nan,0.5,0.5"),
        ("a,nan,0.5,0.5", "a,1,0.5,nan"),
        ("a,1,0.5", "a,x,y,z"),
        ("a,1,x,0.5", "a,1,0.5"),
    ])
    def test_first_bad_line_wins(self, tmp_path, first, second):
        path = write(tmp_path, ["a,1,0.1,0.1", first, "", second])
        code, _, err = run_cli(path, GRIDS["small"])
        assert (code, err) == ref.ingest(str(path), GRIDS["small"])[::2]
        assert err.startswith("trajcalc: line 2: ")

    def test_seeded_bad_lines(self, tmp_path):
        bad = ["a,1", "a,x,0.5,0.5", "a,inf,0.5,0.5", "a,1,nan,0.5", "a,1,0.5,1e400"]
        for seed in range(10):
            rng = random.Random(f"bad:{seed}")
            lines = points_lines(rng, GRIDS["small"], 10, "float")
            for _ in range(2):
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(bad))
            path = write(tmp_path, lines)
            code, _, err = run_cli(path, GRIDS["small"])
            assert code == 2
            assert (code, err) == ref.ingest(str(path), GRIDS["small"])[::2]


class TestIngestMemory:
    def test_peak_grows_linearly(self, tmp_path):
        grid = GRIDS["wide"]
        rng = random.Random("memory")
        lines = points_lines(rng, grid, 1200, "iso-space", max_points=40)
        half = [line for line in lines if int(line.split(",")[0][1:]) < 600]
        peaks = []
        for name, rows in (("half.csv", half), ("all.csv", lines)):
            path = write(tmp_path, rows, name)
            tracemalloc.start()
            try:
                code, _, _ = run_cli(path, grid, "rasterize")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < 3 * peaks[0], peaks


def corrupted_sequences(grid: GridSpec, seed: int, count: int):
    """Seeded walks with out-of-range and negative cells, repeats, jumps, row
    wraps (``cols - 1`` to ``cols``), length 1 and equal ends."""
    rng = random.Random(seed)
    for k in range(count):
        walk = list(random_trajectory(grid, rng.randint(2, 12), "tc6", seed=seed * count + k)
                    .regions)
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(walk))
            kind = rng.randrange(6)
            if kind == 0:
                walk[i] = rng.choice((grid.n_cells, grid.n_cells + 7, -1, -grid.cols))
            elif kind == 1:
                walk.insert(i, walk[i])
            elif kind == 2:
                walk[i] = rng.randrange(grid.n_cells)
            elif kind == 3:
                r = rng.randrange(grid.rows - 1)
                walk[i:i] = [r * grid.cols + grid.cols - 1, (r + 1) * grid.cols]
            elif kind == 4:
                walk = walk[:1]
            else:
                walk.append(walk[0])
        yield walk


class TestArrayChecksMatchReference:
    @pytest.mark.parametrize("grid", [GridSpec(0.0, 1.0, 0.0, 1.0, 3, 5),
                                      GridSpec(0.0, 1.0, 0.0, 1.0, 7, 4)])
    def test_validate_trajectory(self, grid):
        seen = set()
        for regions in corrupted_sequences(grid, 11, 600):
            for mode in ("tc6", "tc10"):
                want = ref.validate_trajectory(regions, grid, mode)
                assert validate_trajectory(Trajectory("t", tuple(regions)), grid, mode) == want
                seen.update(problem.split(" at ")[0] for problem in want)
        assert seen == {"region out of range", "length < 2", "consecutive equal",
                        "not externally connected", "t1 = tn"}

    def test_validate_trajectory_huge_regions(self, grid3):
        regions = (0, 2 ** 70, 2 ** 70 + 1, 2 ** 70 + 1, -2 ** 70, 4, 4, 8, 0)
        for mode in ("tc6", "tc10"):
            assert validate_trajectory(Trajectory("t", regions), grid3, mode) == \
                ref.validate_trajectory(regions, grid3, mode)

    @pytest.mark.parametrize("policy", ["reject", "rasterize"])
    def test_bridge_gaps(self, policy):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 6, 5)
        outcomes = set()
        for regions in corrupted_sequences(grid, 23, 800):
            try:
                want = ref.bridge_gaps(regions, grid, policy)
            except (GapError, ValueError) as exc:
                with pytest.raises(type(exc)) as got:
                    bridge_gaps(regions, grid, policy)
                assert str(got.value) == str(exc)
                assert getattr(got.value, "index", None) == getattr(exc, "index", None)
                outcomes.add(type(exc).__name__)
            else:
                assert bridge_gaps(regions, grid, policy) == want
                outcomes.add("ok")
        assert outcomes == ({"ok", "GapError", "ValueError"} if policy == "reject"
                            else {"ok", "ValueError"})


@pytest.mark.skipif(os.environ.get("TRAJCALC_EXHAUSTIVE") != "1",
                    reason="set TRAJCALC_EXHAUSTIVE=1 to ingest 5,000 objects through both paths")
def test_scale_5000_objects(tmp_path):
    grid = GRIDS["wide"]
    rng = random.Random("scale")
    # GPS-like walks: fixes at most one cell apart, a few outside the box
    path = write(tmp_path, points_lines(rng, grid, 5000, "iso-space", max_points=120,
                                        out_of_box=0.001, max_step=1))
    start = time.perf_counter()
    want = ref.ingest(str(path), grid, "rasterize")
    middle = time.perf_counter()
    got = run_cli(path, grid, "rasterize")
    end = time.perf_counter()
    assert got == want
    print(f"\n5,000 objects: reference {middle - start:.2f} s, columnar {end - middle:.2f} s")
