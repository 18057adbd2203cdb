"""Reference ingest path for differential tests.

This is the per-point front end that ``trajcalc ingest`` and
``trajcalc relations`` used before their columnar one: one frozen
``RawPoint`` and one timestamp parse per CSV row, a per-object
``list.sort``, one ``cell_at`` per point, one ``externally_connected`` per
step.  ``contains`` and ``cell_at`` were ``GridSpec`` methods.  It is slow but straightforward; the tests require the production path
to write the same trajectory file, the same diagnostics and the same exit
code, and ``validate_trajectory`` / ``bridge_gaps`` to report the same
problems.  The one change from that code: a non-finite timestamp is rejected
as a bad timestamp instead of being accepted into the sort.
"""

from __future__ import annotations

import csv as csv_mod
import io
import math
import statistics
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

from trajcalc.grids import GapError, GridSpec, OutOfBoxError, RegionId, line_cells


class CliError(Exception):
    pass


@dataclass(frozen=True)
class RawPoint:
    object_id: str
    timestamp: float
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"point for {self.object_id!r} has non-finite coordinates")


def _parse_timestamp(raw: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return value
        raise CliError(f"line {line_no}: bad timestamp {raw!r}")
    try:
        return datetime.fromisoformat(raw).timestamp()
    except ValueError:
        raise CliError(f"line {line_no}: bad timestamp {raw!r}") from None


def read_points(path: str) -> dict[str, list[RawPoint]]:
    groups: dict[str, list[RawPoint]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for line_no, row in enumerate(csv_mod.reader(handle), start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    raise CliError(f"line {line_no}: expected object_id,timestamp,longitude,latitude")
                object_id, ts_raw, lon_raw, lat_raw = (field.strip() for field in row)
                ts = _parse_timestamp(ts_raw, line_no)
                try:
                    lon, lat = float(lon_raw), float(lat_raw)
                    point = RawPoint(object_id, ts, lat, lon)
                except ValueError:
                    raise CliError(f"line {line_no}: bad coordinates {lon_raw!r},{lat_raw!r}") from None
                groups.setdefault(object_id, []).append(point)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    return groups


def contains(grid: GridSpec, lat: float, lon: float) -> bool:
    return (grid.lat_min <= lat <= grid.lat_max) and (grid.lon_min <= lon <= grid.lon_max)


def cell_at(grid: GridSpec, lat: float, lon: float) -> RegionId:
    """Cell of an in-box point; points exactly on the max edge land in the last row/col."""
    row = int((lat - grid.lat_min) / (grid.lat_max - grid.lat_min) * grid.rows)
    col = int((lon - grid.lon_min) / (grid.lon_max - grid.lon_min) * grid.cols)
    row = min(max(row, 0), grid.rows - 1)
    col = min(max(col, 0), grid.cols - 1)
    return grid.cell_id(row, col)


def regionize(points: Sequence[RawPoint], grid: GridSpec, clamp: bool = False) -> list[RegionId]:
    if not points:
        raise ValueError("regionize needs at least one point")
    cells: list[RegionId] = []
    for i, p in enumerate(points):
        if not clamp and not contains(grid, p.lat, p.lon):
            raise OutOfBoxError(i, p.lat, p.lon)
        cell = cell_at(grid, p.lat, p.lon)
        if not cells or cells[-1] != cell:
            cells.append(cell)
    return cells


def bridge_gaps(seq: Sequence[RegionId], grid: GridSpec, policy: str = "reject") -> list[RegionId]:
    if policy not in ("reject", "rasterize"):
        raise ValueError(f"unknown gap policy {policy!r}")
    if not seq:
        raise ValueError("empty region sequence")
    for cell in seq:
        if not 0 <= cell < grid.n_cells:
            raise ValueError(f"region {cell} outside grid with {grid.n_cells} cells")

    out: list[RegionId] = [seq[0]]
    for i in range(len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        if grid.externally_connected(a, b):
            out.append(b)
            continue
        if policy == "reject":
            raise GapError(i)
        if a == b:
            continue
        for rc in line_cells(grid.row_col(a), grid.row_col(b))[1:]:
            cell = grid.cell_id(*rc)
            if out[-1] != cell:
                out.append(cell)
    return out


def validate_trajectory(regions: Sequence[RegionId], grid: GridSpec, mode: str) -> list[str]:
    problems: list[str] = []
    for i, cell in enumerate(regions):
        if not 0 <= cell < grid.n_cells:
            problems.append(f"region out of range at {i}")
    if len(regions) < 2:
        problems.append("length < 2")
    for i in range(len(regions) - 1):
        a, b = regions[i], regions[i + 1]
        if a == b:
            problems.append(f"consecutive equal at ({i},{i + 1})")
        elif (0 <= a < grid.n_cells and 0 <= b < grid.n_cells
              and not grid.externally_connected(a, b)):
            problems.append(f"not externally connected at ({i},{i + 1})")
    if mode == "tc10" and len(regions) >= 2 and regions[0] == regions[-1]:
        problems.append("t1 = tn")
    return problems


def ingest(points: str, grid: GridSpec, policy: str = "reject",
           clamp: bool = False) -> tuple[int, str, str]:
    """``trajcalc ingest`` on a points file: (exit code, trajectory file, stderr)."""
    err = io.StringIO()
    try:
        groups = read_points(points)
        if not groups:
            raise CliError(f"{points}: no points")
    except CliError as exc:
        print(f"trajcalc: {exc}", file=err)
        return 2, "", err.getvalue()
    clamp = clamp or policy == "clamp"
    gap_policy = "rasterize" if policy in ("rasterize", "clamp") else "reject"
    trajectories = []
    for object_id, object_points in groups.items():
        object_points.sort(key=lambda p: p.timestamp)
        try:
            seq = regionize(object_points, grid, clamp=clamp)
            seq = bridge_gaps(seq, grid, policy=gap_policy)
        except (OutOfBoxError, GapError) as exc:
            print(f"ingest: skipping object {object_id!r}: {exc}", file=err)
            continue
        if len(seq) < 2:
            print(f"ingest: skipping object {object_id!r}: fewer than 2 distinct regions",
                  file=err)
            continue
        trajectories.append((object_id, tuple(seq)))
    text = "".join(f"{oid}: {' '.join(str(r) for r in regions)}\n"
                   for oid, regions in trajectories)
    lengths = [len(regions) for _, regions in trajectories]
    mean = statistics.fmean(lengths) if lengths else 0.0
    sd = statistics.pstdev(lengths) if len(lengths) > 1 else 0.0
    print(f"ingest: {len(trajectories)} trajectories, mean length {mean:.1f}, "
          f"stddev {sd:.1f}", file=err)
    return 0, text, err.getvalue()
