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
from itertools import repeat
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from .calculus import RelationId, builtin
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
    """Return every violated validity clause; an empty list means valid.

    In order: each out-of-range region, ``length < 2``, each step whose
    regions are equal or (both in range and) not externally connected, and for
    tc10 equal first and last regions.
    """
    _check_mode(mode)
    regions = traj.regions
    try:
        cells = np.asarray(regions, dtype=np.int64)
    except OverflowError:
        cells = np.asarray(regions, dtype=object)  # exact comparisons for huge ints
    inside = (cells >= 0) & (cells < grid.n_cells)
    problems = [f"region out of range at {i}" for i in np.flatnonzero(~inside).tolist()]
    if len(regions) < 2:
        problems.append("length < 2")
    rows, cols = cells // grid.cols, cells % grid.cols
    equal = cells[1:] == cells[:-1]
    apart = ((np.maximum(abs(rows[1:] - rows[:-1]), abs(cols[1:] - cols[:-1])) > 1)
             & inside[1:] & inside[:-1])
    for i in np.flatnonzero(equal | apart).tolist():
        problems.append(f"consecutive equal at ({i},{i + 1})" if equal[i]
                        else f"not externally connected at ({i},{i + 1})")
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


# The one decision ladder of ``classify`` and ``_block_classifier``: per
# mode, the rungs in order, each a relation and the pair features that must
# all hold for it.  The first matching rung wins; no match means ``dis``.
_RUNGS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "tc6": (("eq", ("same",)), ("alt", ("ss", "ff")), ("s", ("ss",)), ("f", ("ff",)),
            ("i", ("share",))),
    "tc10": (("eq", ("same",)), ("rev", ("reversed",)), ("alt", ("ss", "ff")),
             ("ret", ("sf", "fs")), ("s", ("ss",)), ("f", ("ff",)), ("ex", ("sf",)),
             ("exi", ("fs",)), ("i", ("share",))),
}
_SEQ, _REV, _START, _FINISH = range(4)


def _keys(regions: tuple[RegionId, ...]) -> tuple:
    """A trajectory's keys, indexed by _SEQ, _REV, _START and _FINISH."""
    return regions, regions[::-1], regions[0], regions[-1]


# Every feature but ``share`` (some region in common) holds iff a key of the
# first trajectory equals a key of the second.
_KEY_FEATURES = {
    "same": (_SEQ, _SEQ),
    "reversed": (_REV, _SEQ),
    "ss": (_START, _START),
    "ff": (_FINISH, _FINISH),
    "sf": (_START, _FINISH),
    "fs": (_FINISH, _START),
}
# ``_RUNGS`` with each feature as its (first, second) key pair, None for
# ``share``; ``_ladder`` and ``_block_classifier`` both walk this table.
_KEY_RUNGS = {mode: tuple((name, tuple(_KEY_FEATURES.get(f) for f in features))
                          for name, features in rungs)
              for mode, rungs in _RUNGS.items()}
# Rows of a block of ``_block_classifier``: one bit each of a uint64 region mask.
_BLOCK = 64


def _ladder(mode: Mode, a: tuple[RegionId, ...], b: tuple[RegionId, ...]) -> RelationId:
    # For region sequences already checked by ``_check_classifiable``.
    calc = builtin(mode)
    # every rung needs a shared region (equal keys share a region), so a
    # disjoint pair is dis and ``share`` (None below) holds past this test
    if set(a).isdisjoint(b):
        return calc.rel_id("dis")
    ka, kb = _keys(a), _keys(b)
    for name, tests in _KEY_RUNGS[mode]:
        for test in tests:
            if test is not None and ka[test[0]] != kb[test[1]]:
                break
        else:
            return calc.rel_id(name)
    return calc.rel_id("dis")


def classify_name(mode: Mode, t1: Trajectory, t2: Trajectory) -> str:
    return builtin(mode).rel_name(classify(mode, t1, t2))


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


def _block_classifier(mode: Mode, trajectories: Sequence[Trajectory]
                      ) -> Callable[[int, int, int, int], np.ndarray]:
    """The many-pair classifier: ``block(i0, i1, j0, j1)`` holds the ``classify``
    relation ids of rows ``i0:i1`` (at most ``_BLOCK``) against columns ``j0:j1``.

    Each trajectory is checked once, with the errors of :func:`classify`.  Every
    rung is a test of key equality or of a shared region, so the ladder runs on
    arrays built once: interned keys (equal iff the keys are equal) and the flat
    region array.  A block takes O(_BLOCK * (j1 - j0)) memory.
    """
    _check_mode(mode)
    for t in trajectories:
        _check_classifiable(mode, t)
    calc = builtin(mode)
    rungs = _KEY_RUNGS[mode]
    n = len(trajectories)
    ids: dict = {}

    def intern(value) -> int:
        return ids.setdefault(value, len(ids))

    lengths = np.fromiter((len(t.regions) for t in trajectories), dtype=np.intp, count=n)
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    flat = np.fromiter((intern(r) for t in trajectories for r in t.regions),
                       dtype=np.intp, count=int(offsets[-1]))
    n_regions = len(ids)
    # region and tuple keys share one id space, so equal keys get equal ids
    tests = {test for _, needs in rungs for test in needs if test is not None}
    all_keys = [_keys(t.regions) for t in trajectories]
    keys = {key: np.fromiter((intern(k[key]) for k in all_keys), dtype=np.intp, count=n)
            for key in {key for test in tests for key in test}}
    rel_ids = [calc.rel_id(name) for name, _ in rungs]
    shifts = np.arange(_BLOCK, dtype=np.uint64)

    def block(i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        # bit r of masks[x]: trajectory i0 + r visits region x
        masks = np.zeros(n_regions, dtype=np.uint64)
        np.bitwise_or.at(masks, flat[offsets[i0]:offsets[i1]],
                         np.repeat(np.uint64(1) << shifts[:i1 - i0], lengths[i0:i1]))
        # bit r of met[c]: trajectories i0 + r and j0 + c share a region
        met = np.bitwise_or.reduceat(masks[flat[offsets[j0]:offsets[j1]]],
                                     offsets[j0:j1] - offsets[j0])
        # (i1 - i0) x (j1 - j0) feature matrices; column c is trajectory j0 + c
        holds = {None: ((met >> shifts[:i1 - i0, None]) & np.uint64(1)).astype(bool)}
        for left, right in tests:
            holds[left, right] = keys[left][i0:i1, None] == keys[right][None, j0:j1]
        return np.select([np.logical_and.reduce([holds[test] for test in needs])
                          for _, needs in rungs],
                         rel_ids, default=calc.rel_id("dis"))

    return block


def all_pairs(mode: Mode, trajectories: Sequence[Trajectory]) -> Iterator[tuple[str, str, str]]:
    """Classify every unordered pair; yields (id1, id2, relation name) rows.

    Rows run over ``i < j`` in index order, each equal to ``classify`` on
    ``(trajectories[i], trajectories[j])``; an invalid trajectory raises before
    any row.  The block kernel takes ``_BLOCK`` values of ``i`` at a time
    against all later ``j``, in O(_BLOCK * n + total length) memory.
    """
    block = _block_classifier(mode, trajectories)
    names = np.array(builtin(mode).relations, dtype=object)
    ids_out = [t.id for t in trajectories]
    n = len(trajectories)

    def rows() -> Iterator[tuple[str, str, str]]:
        for i0 in range(0, n - 1, _BLOCK):
            i1 = min(i0 + _BLOCK, n - 1)
            codes = block(i0, i1, i0 + 1, n)
            for r in range(i1 - i0):
                i = i0 + r
                yield from zip(repeat(ids_out[i]), ids_out[i + 1:], names[codes[r, r:]].tolist())

    return rows()


def relation_matrix(mode: Mode, trajectories: Sequence[Trajectory]) -> np.ndarray:
    """n x n int16 relation ids; ``[i, j]`` is ``classify`` on ``(trajectories[i],
    trajectories[j])``.  The block kernel classifies both orientations and the
    diagonal; none is derived by converse."""
    block = _block_classifier(mode, trajectories)
    n = len(trajectories)
    matrix = np.empty((n, n), dtype=np.int16)
    for i0 in range(0, n, _BLOCK):
        matrix[i0:i0 + _BLOCK] = block(i0, min(i0 + _BLOCK, n), 0, n)
    return matrix
