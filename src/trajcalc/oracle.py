"""Brute-force ground truth for the calculi and the solver.

Everything in here is deliberately dumb: relation definitions are evaluated
as literal boolean formulas instead of the classification ladder, composition
soundness is checked by enumerating concrete trajectory triples, and model
existence is decided by exhaustive assignment enumeration.  These paths stay
independent of the code they are used to check.

Soundness checks the table, not the classifier, so it classifies triples with
the block kernel of ``all_pairs`` (``trajectories.relation_matrix``), which the
literal definitions of ``relations_holding`` check in turn.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .calculus import Calculus, builtin, iter_bits
from .grids import GridSpec
from .solver import Assignment, Instance, verify_assignment
from .trajectories import Mode, Trajectory, enumerate_trajectories, relation_matrix


# -- literal base-relation definitions -----------------------------------------
#
# Boolean formulas over endpoint equalities and shared-region existence, one
# per base relation, with no ordering between them.  `alt` and `ret` use the
# equivalent "same/swapped endpoints but not identical/not exactly reversed"
# phrasing of their either/or clauses.
#
# The intersect definitions carry index-window side conditions on where the
# shared region may sit; under the endpoint inequalities they reduce to plain
# shared-region existence.  Argument: a shared region at excluded indices
# would have to pair two endpoints, and every endpoint pairing either
# contradicts one of the NOT-EQ preconditions or forces a trajectory to start
# and finish at the same region.


def _eq(a: tuple, b: tuple) -> bool:
    return a == b


def _rev(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and a == b[::-1]


def _alt(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and a[-1] == b[-1] and a != b


def _ret(a: tuple, b: tuple) -> bool:
    return a[0] == b[-1] and a[-1] == b[0] and a != b[::-1]


def _s(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and a[-1] != b[-1]


def _f(a: tuple, b: tuple) -> bool:
    return a[0] != b[0] and a[-1] == b[-1]


def _ex(a: tuple, b: tuple) -> bool:
    return a[-1] != b[0] and a[0] == b[-1]


def _exi(a: tuple, b: tuple) -> bool:
    return a[0] != b[-1] and a[-1] == b[0]


def _shares(a: tuple, b: tuple) -> bool:
    return not set(a).isdisjoint(b)


def _i6(a: tuple, b: tuple) -> bool:
    return a[0] != b[0] and a[-1] != b[-1] and _shares(a, b)


def _i10(a: tuple, b: tuple) -> bool:
    return (a[0] != b[0] and a[-1] != b[-1] and a[0] != b[-1] and a[-1] != b[0]
            and _shares(a, b))


def _dis(a: tuple, b: tuple) -> bool:
    return not _shares(a, b)


_DEFS: dict[Mode, dict[str, Callable[[tuple, tuple], bool]]] = {
    "tc6": {"eq": _eq, "alt": _alt, "s": _s, "f": _f, "i": _i6, "dis": _dis},
    "tc10": {"eq": _eq, "rev": _rev, "alt": _alt, "ret": _ret, "s": _s, "f": _f,
             "ex": _ex, "exi": _exi, "i": _i10, "dis": _dis},
}


def definition_holds(mode: Mode, relation: str, t1: Trajectory, t2: Trajectory) -> bool:
    return _DEFS[mode][relation](t1.regions, t2.regions)


def relations_holding(mode: Mode, t1: Trajectory, t2: Trajectory) -> list[str]:
    """All base relations whose literal definition holds for the pair.

    Exactly one entry for every valid trajectory pair; anything else is a
    counterexample to joint exhaustiveness or pairwise disjointness.
    """
    return [name for name, pred in _DEFS[mode].items() if pred(t1.regions, t2.regions)]


# -- composition-table soundness -------------------------------------------------


@dataclass(frozen=True)
class SoundnessReport:
    calculus: str
    mode: Mode
    grid_rows: int
    grid_cols: int
    max_len: int
    sample: int | None           # None = exhaustive over all triples
    seed: int
    trajectory_count: int
    triples_checked: int
    violation_count: int
    violations: tuple[tuple, ...]  # (id1, id2, id3, r12, r23, r13), bounded
    violations_truncated: bool
    witnessed: frozenset[tuple[str, str, str]]

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> str:
        doc = {
            "calculus": self.calculus,
            "mode": self.mode,
            "grid": [self.grid_rows, self.grid_cols],
            "max_len": self.max_len,
            "sample": self.sample,
            "seed": self.seed,
            "trajectory_count": self.trajectory_count,
            "triples_checked": self.triples_checked,
            "violation_count": self.violation_count,
            "violations": [list(v) for v in self.violations],
            "violations_truncated": self.violations_truncated,
            "witnessed": sorted(list(t) for t in self.witnessed),
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "SoundnessReport":
        doc = json.loads(text)
        return SoundnessReport(
            calculus=doc["calculus"], mode=doc["mode"],
            grid_rows=doc["grid"][0], grid_cols=doc["grid"][1],
            max_len=doc["max_len"], sample=doc["sample"], seed=doc["seed"],
            trajectory_count=doc["trajectory_count"],
            triples_checked=doc["triples_checked"],
            violation_count=doc["violation_count"],
            violations=tuple(tuple(v) for v in doc["violations"]),
            violations_truncated=doc["violations_truncated"],
            witnessed=frozenset(tuple(t) for t in doc["witnessed"]),
        )


def verify_soundness(mode: Mode, grid: GridSpec, max_len: int,
                     sample: int | None = None, seed: int = 0,
                     calculus: Calculus | None = None,
                     max_recorded: int = 1000) -> SoundnessReport:
    """Check classify(T1,T3) in c(classify(T1,T2), classify(T2,T3)) over triples.

    Exhaustive over every trajectory triple at the given scale when ``sample``
    is None, else over that many seeded uniform triples.  ``calculus``
    defaults to the built-in for the mode; passing a corrupted variant turns
    this into a fault detector.  Recorded violation triples are capped at
    ``max_recorded``, in (T1, T2, T3) order when exhaustive and in draw order
    when sampled; the count is always exact.
    """
    calc = calculus if calculus is not None else builtin(mode)
    trajs = list(enumerate_trajectories(grid, max_len, mode))
    n = len(trajs)
    if n == 0:
        raise ValueError("grid admits no valid trajectories at this scale")
    matrix = relation_matrix(mode, trajs)
    k = calc.n_relations
    # the table alone fixes which (r12, r23, r13) codes violate it
    forbidden = calc.forbidden_flat
    recorded: list[tuple] = []

    def record(a: int, b: int, c: int) -> None:
        recorded.append((trajs[a].id, trajs[b].id, trajs[c].id,
                         calc.relations[matrix[a, b]], calc.relations[matrix[b, c]],
                         calc.relations[matrix[a, c]]))

    counts = np.zeros(k * k * k, dtype=np.int64)
    if sample is None:
        triples_checked = n * n * n
        m64 = matrix.astype(np.int64)
        for a in range(n):
            # code of (r12, r23, r13) for all b, c at fixed a
            code = (m64[a, :, None] * k + m64) * k + m64[a, None, :]
            row_counts = np.bincount(code.ravel(), minlength=k * k * k)
            counts += row_counts
            if len(recorded) < max_recorded and row_counts[forbidden].any():
                for b, c in np.argwhere(forbidden[code])[:max_recorded - len(recorded)]:
                    record(a, b, c)
    else:
        if sample <= 0:
            raise ValueError("sample size must be positive")
        triples_checked = sample
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, n, size=sample)
        ib = rng.integers(0, n, size=sample)
        ic = rng.integers(0, n, size=sample)
        code = (matrix[ia, ib].astype(np.int64) * k + matrix[ib, ic]) * k + matrix[ia, ic]
        counts += np.bincount(code, minlength=k * k * k)
        for pos in np.flatnonzero(forbidden[code])[:max_recorded]:
            record(ia[pos], ib[pos], ic[pos])

    violation_count = int(counts[forbidden].sum())
    witnessed = frozenset(
        (calc.relations[r1], calc.relations[r2], calc.relations[r3])
        for r1, r2, r3 in np.argwhere(counts.reshape(k, k, k) > 0))
    return SoundnessReport(
        calculus=calc.name, mode=mode, grid_rows=grid.rows, grid_cols=grid.cols,
        max_len=max_len, sample=sample, seed=seed, trajectory_count=n,
        triples_checked=triples_checked, violation_count=violation_count,
        violations=tuple(recorded),
        violations_truncated=violation_count > len(recorded),
        witnessed=witnessed)


def coverage_report(report: SoundnessReport, calc: Calculus) -> list[tuple[str, str, str]]:
    """Table triples (r1, r2, r3 in c(r1,r2)) never witnessed at the tested scale.

    Informational: the tables claim possibility, not necessity, so an
    unwitnessed entry is evidence to inspect, never a failure.
    """
    missing = []
    for r1 in range(calc.n_relations):
        for r2 in range(calc.n_relations):
            for r3 in iter_bits(calc.table[r1][r2]):
                triple = (calc.relations[r1], calc.relations[r2], calc.relations[r3])
                if triple not in report.witnessed:
                    missing.append(triple)
    return missing


# -- exhaustive model enumeration -------------------------------------------------


class OracleCapError(ValueError):
    pass


@dataclass(frozen=True)
class BruteForceResult:
    models: tuple[Assignment, ...]
    states_examined: int

    @property
    def sat(self) -> bool:
        return bool(self.models)


def brute_force_solve(inst: Instance, state_cap: int = 5_000_000) -> BruteForceResult:
    """Exhaustively enumerate canonical-pair assignments, keep the models.

    Reversed pairs are converse images.  The verdict is independent of the
    solver module's search: no propagation, no heuristics, just triangle and
    constraint checks applied to every assignment (pruned only where a
    violated check can never be repaired by extension).
    """
    calc = inst.calculus
    n = len(inst.elements)
    n_pairs = n * (n - 1) // 2
    k = calc.n_relations
    if k ** n_pairs > state_cap:
        raise OracleCapError(
            f"{k}^{n_pairs} assignments exceed the cap of {state_cap}; "
            "shrink the instance or raise state_cap")

    if inst.elements and not calc.diagonal_consistent:
        return BruteForceResult((), 0)

    pairs: list[tuple[int, int]] = []
    index = [[-1] * n for _ in range(n)]
    ids = {name: i for i, name in enumerate(inst.elements)}
    for i in range(n):
        for j in range(i + 1, n):
            index[i][j] = index[j][i] = len(pairs)
            pairs.append((i, j))

    folded = [calc.full_set] * n_pairs
    for c in inst.constraints:
        i, j = ids[c.x], ids[c.y]
        mask = c.rels if i < j else calc.converse_set(c.rels)
        folded[index[i][j]] &= mask

    conv = calc.converse
    table = calc.table
    eq = calc.equality
    eq_bit = 1 << eq

    # allowed single labels for any distinct pair: the degenerate triples
    # (x,x,y), (x,y,y), (y,y,x), (y,x,x), (x,y,x) and (y,x,y) must all hold
    label_ok = [bool(conv[conv[r]] == r
                     and table[eq][r] & (1 << r) and table[r][eq] & (1 << r)
                     and table[eq][conv[r]] & (1 << conv[r])
                     and table[conv[r]][eq] & (1 << conv[r])
                     and table[r][conv[r]] & eq_bit and table[conv[r]][r] & eq_bit)
                for r in range(k)]

    values = [0] * n_pairs
    models: list[Assignment] = []
    examined = 0

    def rel(a: int, b: int) -> int:
        if a < b:
            return values[index[a][b]]
        return conv[values[index[b][a]]]

    def triangles_ok(p: int) -> bool:
        i, j = pairs[p]
        for h in range(i):
            # all six orientations of {h, i, j}; pairs with h are already set
            if not table[rel(h, i)][rel(i, j)] & (1 << rel(h, j)):
                return False
            if not table[rel(h, j)][rel(j, i)] & (1 << rel(h, i)):
                return False
            if not table[rel(i, h)][rel(h, j)] & (1 << rel(i, j)):
                return False
            if not table[rel(j, h)][rel(h, i)] & (1 << rel(j, i)):
                return False
            if not table[rel(i, j)][rel(j, h)] & (1 << rel(i, h)):
                return False
            if not table[rel(j, i)][rel(i, h)] & (1 << rel(j, h)):
                return False
        return True

    def descend(p: int) -> None:
        nonlocal examined
        if p == n_pairs:
            models.append(Assignment(calc, inst.elements, tuple(values)))
            return
        for r in iter_bits(folded[p]):
            examined += 1
            if not label_ok[r]:
                continue
            values[p] = r
            if triangles_ok(p):
                descend(p + 1)

    if n_pairs == 0:
        if not inst.elements or calc.diagonal_consistent:
            models.append(Assignment(calc, inst.elements, ()))
        return BruteForceResult(tuple(models), examined)

    descend(0)
    return BruteForceResult(tuple(models), examined)


# -- fault injection ----------------------------------------------------------------


def corrupt_cell(calc: Calculus, r1: str, r2: str, new_relations: Iterable[str]) -> Calculus:
    """Copy of the calculus with one table cell replaced."""
    i = calc.rel_id(r1)
    j = calc.rel_id(r2)
    new_mask = calc.mask_of(new_relations)
    table = tuple(
        tuple(new_mask if (a, b) == (i, j) else calc.table[a][b]
              for b in range(calc.n_relations))
        for a in range(calc.n_relations)
    )
    return Calculus(name=f"{calc.name}-corrupt-{r1}-{r2}", relations=calc.relations,
                    equality=calc.equality, converse=calc.converse, table=table)


@dataclass(frozen=True)
class CellCorruption:
    r1: str
    r2: str
    new_relations: tuple[str, ...]

    def apply(self, calc: Calculus) -> Calculus:
        return corrupt_cell(calc, self.r1, self.r2, self.new_relations)


def random_cell_corruptions(calc: Calculus, count: int, seed: int) -> list[CellCorruption]:
    """Seeded single-cell removals: each picks a multi-relation cell and drops
    a random non-empty proper subset of it."""
    rng = random.Random(seed)
    cells = [(r1, r2) for r1 in range(calc.n_relations) for r2 in range(calc.n_relations)
             if calc.table[r1][r2].bit_count() >= 2]
    if not cells:
        raise ValueError("no multi-relation cells to corrupt")
    out = []
    for _ in range(count):
        r1, r2 = rng.choice(cells)
        members = list(iter_bits(calc.table[r1][r2]))
        keep_count = rng.randrange(1, len(members))
        kept = rng.sample(members, keep_count)
        out.append(CellCorruption(
            calc.relations[r1], calc.relations[r2],
            tuple(calc.relations[r] for r in sorted(kept))))
    return out
