"""Grid partitionings of a lat/lon bounding box.

Cells are numbered row-major (``cell = row * cols + col``).  Two distinct
cells are externally connected when they share an edge or a corner, i.e. the
8-neighbourhood; a cell is equal only to itself and disconnected from
everything that is not an 8-neighbour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

RegionId = int


class OutOfBoxError(ValueError):
    def __init__(self, index: int, lat: float, lon: float):
        super().__init__(f"point {index} at ({lat}, {lon}) is outside the grid bounding box")
        self.index = index
        self.lat = lat
        self.lon = lon


class GapError(ValueError):
    def __init__(self, index: int):
        super().__init__(f"regions at positions ({index}, {index + 1}) are not externally connected")
        self.index = index


@dataclass(frozen=True)
class GridSpec:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat_min) and math.isfinite(self.lat_max)
                and math.isfinite(self.lon_min) and math.isfinite(self.lon_max)):
            raise ValueError("grid bounds must be finite")
        if self.lat_min >= self.lat_max or self.lon_min >= self.lon_max:
            raise ValueError("grid bounding box must have positive extent")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cell_id(self, row: int, col: int) -> RegionId:
        return row * self.cols + col

    def row_col(self, cell: RegionId) -> tuple[int, int]:
        return divmod(cell, self.cols)

    @cached_property
    def _neighbors(self) -> tuple[tuple[RegionId, ...], ...]:
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                cell_neighbors = []
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        if dr == 0 and dc == 0:
                            continue
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < self.rows and 0 <= cc < self.cols:
                            cell_neighbors.append(self.cell_id(rr, cc))
                cell_neighbors.sort()
                out.append(tuple(cell_neighbors))
        return tuple(out)

    def neighbors(self, cell: RegionId) -> tuple[RegionId, ...]:
        return self._neighbors[cell]

    def externally_connected(self, a: RegionId, b: RegionId) -> bool:
        if a == b:
            return False
        ra, ca = self.row_col(a)
        rb, cb = self.row_col(b)
        return abs(ra - rb) <= 1 and abs(ca - cb) <= 1


def regionize(lat: ArrayLike, lon: ArrayLike, grid: GridSpec, clamp: bool = False) -> list[RegionId]:
    """Map one object's timestamp-sorted point coordinates to a region sequence.

    ``lat`` and ``lon`` are equal-length arrays, one entry per point.
    Consecutive duplicate cells are collapsed.  Points outside the bounding
    box raise :class:`OutOfBoxError` (at the first such point) unless
    ``clamp`` pulls them to the nearest cell; non-finite coordinates raise
    ``ValueError``.  A point's row is ``(lat - lat_min) / (lat_max - lat_min)
    * rows`` truncated toward zero and clamped to the grid, so points exactly
    on the max edge land in the last row; columns likewise.
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if not len(lat):
        raise ValueError("regionize needs at least one point")
    if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
        i = int(np.argmin(np.isfinite(lat) & np.isfinite(lon)))
        raise ValueError(f"point {i} has non-finite coordinates")
    if not clamp:
        inside = ((grid.lat_min <= lat) & (lat <= grid.lat_max)
                  & (grid.lon_min <= lon) & (lon <= grid.lon_max))
        if not inside.all():
            i = int(np.argmin(inside))
            raise OutOfBoxError(i, float(lat[i]), float(lon[i]))
    row = (lat - grid.lat_min) / (grid.lat_max - grid.lat_min) * grid.rows
    col = (lon - grid.lon_min) / (grid.lon_max - grid.lon_min) * grid.cols
    # clamping before truncating toward zero gives the same cell as
    # truncating then clamping, and a far-away clamped point cannot overflow
    np.minimum(np.maximum(row, 0, out=row), grid.rows - 1, out=row)
    np.minimum(np.maximum(col, 0, out=col), grid.cols - 1, out=col)
    cells = row.astype(np.int64) * grid.cols + col.astype(np.int64)
    keep = np.ones(len(cells), dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=keep[1:])
    return cells[keep].tolist()


def line_cells(start: tuple[int, int], end: tuple[int, int]) -> list[tuple[int, int]]:
    """8-connected raster line between two cells, both endpoints included.

    Deterministic Bresenham walk; consecutive cells differ by at most one in
    each axis, so the result is an externally-connected chain.
    """
    r0, c0 = start
    r1, c1 = end
    cells = [(r0, c0)]
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 > r0 else -1
    sc = 1 if c1 > c0 else -1
    err = dc - dr
    r, c = r0, c0
    while (r, c) != (r1, c1):
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr
        cells.append((r, c))
    return cells


def bridge_gaps(seq: Sequence[RegionId], grid: GridSpec, policy: str = "reject") -> list[RegionId]:
    """Repair or reject jumps between non-adjacent consecutive regions.

    ``reject`` raises :class:`GapError` at the first offending index pair
    (equal consecutive regions included); ``rasterize`` splices in the raster
    line between the two cells and drops a repeated cell.  The result always
    satisfies the externally-connected chain invariant.
    """
    if policy not in ("reject", "rasterize"):
        raise ValueError(f"unknown gap policy {policy!r}")
    if not len(seq):
        raise ValueError("empty region sequence")
    arr = np.asarray(seq)
    outside = (arr < 0) | (arr >= grid.n_cells)
    if outside.any():
        cell = seq[int(np.argmax(outside))]
        raise ValueError(f"region {cell} outside grid with {grid.n_cells} cells")
    rows, cols = np.divmod(arr.astype(np.int64, copy=False), grid.cols)
    # step i (cells i and i + 1) is a gap unless the cells are distinct
    # 8-neighbours, i.e. one apart in the larger of the row and column steps
    step = np.maximum(np.abs(rows[1:] - rows[:-1]), np.abs(cols[1:] - cols[:-1]))
    gaps = np.flatnonzero(step != 1).tolist()
    cells = arr.tolist()
    if gaps and policy == "reject":
        raise GapError(gaps[0])
    out: list[RegionId] = cells[:1]
    done = 1  # cells[:done] are spliced in
    for i in gaps:
        out += cells[done:i + 1]
        a, b = cells[i], cells[i + 1]
        if a != b:
            line = line_cells(divmod(a, grid.cols), divmod(b, grid.cols))
            out += [r * grid.cols + c for r, c in line[1:]]
        done = i + 2
    out += cells[done:]
    return out
