"""Region-sequence trajectories: validity, pairwise classification, generators.

A trajectory is an identifier plus a sequence of grid regions in which
consecutive regions are distinct and externally connected.  The ``tc10``
flavour additionally forbids equal first and last regions.  Classification of
a trajectory pair into exactly one base relation needs only region equality
and shared-region tests, so it is independent of the grid geometry once the
trajectories are valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, Literal, Sequence

from .calculus import RelationId, builtin_tc6, builtin_tc10
from .grids import GridSpec, RegionId

Mode = Literal["tc6", "tc10"]
MODES = ("tc6", "tc10")


class InvalidTrajectoryError(ValueError):
    pass


class InfeasibleError(ValueError):
    pass


@dataclass(frozen=True)
class Trajectory:
    id: str
    regions: tuple[RegionId, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("trajectory id must be non-empty")
        if not self.regions:
            raise ValueError(f"trajectory {self.id!r} has no regions")

    def __len__(self) -> int:
        return len(self.regions)

    def reversed(self, id: str | None = None) -> "Trajectory":
        return Trajectory(id if id is not None else self.id + "_rev", self.regions[::-1])

    def with_id(self, id: str) -> "Trajectory":
        return replace(self, id=id)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def validate_trajectory(traj: Trajectory, grid: GridSpec, mode: Mode) -> list[str]:
    """Return every violated validity clause; an empty list means valid."""
    _check_mode(mode)
    problems: list[str] = []
    regions = traj.regions
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


def _check_classifiable(mode: Mode, traj: Trajectory) -> None:
    # Only the clauses that classification logic itself relies on; geometric
    # adjacency does not change which relation holds.
    regions = traj.regions
    if len(regions) < 2:
        raise InvalidTrajectoryError(f"trajectory {traj.id!r} is shorter than 2 regions")
    for i in range(len(regions) - 1):
        if regions[i] == regions[i + 1]:
            raise InvalidTrajectoryError(f"trajectory {traj.id!r} repeats a region at ({i},{i + 1})")
    if mode == "tc10" and regions[0] == regions[-1]:
        raise InvalidTrajectoryError(f"trajectory {traj.id!r} starts and finishes at the same region")


def classify(mode: Mode, t1: Trajectory, t2: Trajectory) -> RelationId:
    """The unique base relation holding between two valid trajectories.

    Decision ladder; each rung applies only when all earlier rungs failed:

    * tc6:  identical -> eq; same start and finish -> alt; same start -> s;
      same finish -> f; any shared region -> i; otherwise dis.
    * tc10: identical -> eq; exact reversal -> rev; same start and finish ->
      alt; swapped start/finish -> ret; same start -> s; same finish -> f;
      t1 starts where t2 finishes -> ex; t1 finishes where t2 starts -> exi;
      any shared region -> i; otherwise dis.
    """
    _check_mode(mode)
    _check_classifiable(mode, t1)
    _check_classifiable(mode, t2)
    return _ladder(mode, t1.regions, t2.regions)


def _ladder(mode: Mode, a: tuple[RegionId, ...], b: tuple[RegionId, ...]) -> RelationId:
    # The decision ladder of ``classify``, for region sequences already
    # checked by ``_check_classifiable``.
    calc = builtin_tc6() if mode == "tc6" else builtin_tc10()
    if a == b:
        return calc.rel_id("eq")
    sa, fa = a[0], a[-1]
    sb, fb = b[0], b[-1]
    if mode == "tc10" and a == b[::-1]:
        return calc.rel_id("rev")
    if sa == sb and fa == fb:
        return calc.rel_id("alt")
    if mode == "tc10" and sa == fb and fa == sb:
        return calc.rel_id("ret")
    if sa == sb:
        return calc.rel_id("s")
    if fa == fb:
        return calc.rel_id("f")
    if mode == "tc10":
        if sa == fb:
            return calc.rel_id("ex")
        if fa == sb:
            return calc.rel_id("exi")
    if not set(a).isdisjoint(b):
        return calc.rel_id("i")
    return calc.rel_id("dis")


def classify_name(mode: Mode, t1: Trajectory, t2: Trajectory) -> str:
    calc = builtin_tc6() if mode == "tc6" else builtin_tc10()
    return calc.rel_name(classify(mode, t1, t2))


def random_trajectory(grid: GridSpec, length: int, mode: Mode, seed: int,
                      max_retries: int = 10_000) -> Trajectory:
    """Uniform random walk over externally connected cells; seeded, deterministic.

    Each step picks uniformly among the current cell's neighbours.  In tc10
    mode whole walks are resampled until the first and last regions differ;
    after ``max_retries`` failed walks the request is reported infeasible.
    """
    _check_mode(mode)
    if length < 2:
        raise InfeasibleError("trajectories have at least 2 regions")
    if grid.n_cells < 2:
        raise InfeasibleError("grid admits no externally connected pair")
    rng = random.Random(seed)
    for _ in range(max_retries):
        walk = [rng.randrange(grid.n_cells)]
        while len(walk) < length:
            walk.append(rng.choice(grid.neighbors(walk[-1])))
        if mode == "tc10" and walk[0] == walk[-1]:
            continue
        return Trajectory(f"rnd{seed}", tuple(walk))
    raise InfeasibleError(
        f"no valid {mode} walk of length {length} found on a {grid.rows}x{grid.cols} grid "
        f"after {max_retries} attempts")


def enumerate_trajectories(grid: GridSpec, max_len: int, mode: Mode) -> Iterator[Trajectory]:
    """Every valid trajectory of length 2..max_len exactly once, lexicographically.

    The order is plain lexicographic on region sequences, so a trajectory
    precedes all of its extensions.
    """
    _check_mode(mode)
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    counter = 0
    prefix: list[RegionId] = []

    def walk() -> Iterator[tuple[RegionId, ...]]:
        if len(prefix) >= 2 and (mode == "tc6" or prefix[0] != prefix[-1]):
            yield tuple(prefix)
        if len(prefix) == max_len:
            return
        for nxt in grid.neighbors(prefix[-1]):
            prefix.append(nxt)
            yield from walk()
            prefix.pop()

    for start in range(grid.n_cells):
        prefix.append(start)
        for regions in walk():
            yield Trajectory(f"t{counter}", regions)
            counter += 1
        prefix.pop()


def all_pairs(mode: Mode, trajectories: Sequence[Trajectory]) -> Iterator[tuple[str, str, str]]:
    """Classify every unordered pair; yields (id1, id2, relation name) rows.

    Each trajectory is checked once, before the first row, with the same
    clauses and errors as :func:`classify`.
    """
    _check_mode(mode)
    for t in trajectories:
        _check_classifiable(mode, t)
    names = (builtin_tc6() if mode == "tc6" else builtin_tc10()).relations
    for i in range(len(trajectories)):
        ti = trajectories[i]
        for j in range(i + 1, len(trajectories)):
            tj = trajectories[j]
            yield (ti.id, tj.id, names[_ladder(mode, ti.regions, tj.regions)])
