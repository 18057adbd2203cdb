"""Model existence for qualitative constraint networks.

An instance is a set of named elements plus constraints ``(x, y) in R`` over
a calculus.  A model is a total relation assignment that puts equality on the
diagonal, satisfies every constraint, and respects the composition table on
every ordered element triple.

The network stores a dense matrix of domain bitmasks, one per ordered element
pair; the domain of a reversed pair is the elementwise converse.  That
representation is only faithful for calculi in which ``eq in c(r, r')`` pins
``r'`` to the converse of ``r`` (checked once per calculus; others are
refused).  Search is chronological backtracking over pair domains with
fixpoint propagation after every assignment.
"""

from __future__ import annotations

import heapq
import json
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, islice, repeat
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .calculus import (Calculus, CalculusError, RelationId, RelationSet, RowUnionTables,
                       builtin, iter_bits, load_calculus, save_calculus)


class InstanceError(ValueError):
    """Malformed instance: bad names, empty relation sets, unparseable file."""


class UnsupportedCalculusError(ValueError):
    """Calculus lacks the converse-uniqueness law the pair encoding needs."""


class SolveTimeout(Exception):
    """Raised when a deadline expires during propagation or search."""


@dataclass(frozen=True)
class Constraint:
    x: str
    y: str
    rels: RelationSet


@dataclass(frozen=True)
class Instance:
    calculus: Calculus
    elements: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        seen = set()
        for name in self.elements:
            if not name:
                raise InstanceError("element names must be non-empty")
            if name in seen:
                raise InstanceError(f"duplicate element name {name!r}")
            if "|" in name:
                raise InstanceError(f"element name {name!r} contains '|', the model key separator")
            seen.add(name)
        full = self.calculus.full_set
        for c in self.constraints:
            if c.x not in seen:
                raise InstanceError(f"constraint mentions unknown element {c.x!r}")
            if c.y not in seen:
                raise InstanceError(f"constraint mentions unknown element {c.y!r}")
            if c.x == c.y:
                raise InstanceError(f"constraint relates {c.x!r} to itself")
            if c.rels == 0:
                raise InstanceError(f"constraint ({c.x},{c.y}) has an empty relation set")
            if c.rels & ~full:
                raise InstanceError(f"constraint ({c.x},{c.y}) mentions relations outside the calculus")


def make_instance(calc: Calculus, elements: Sequence[str],
                  constraints: Sequence[tuple[str, str, Sequence[str]]] = ()) -> Instance:
    """Convenience constructor with relation names instead of masks."""
    return Instance(
        calc, tuple(elements),
        tuple(Constraint(x, y, calc.mask_of(names)) for x, y, names in constraints))


@lru_cache(maxsize=1)  # building, solving and verifying one network share it
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the canonical pairs (i < j), in pair order:
    the module's one pair index."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class Network:
    """Mutable domain store for one solving run.

    ``matrix[i, j]`` is the relation-set mask of the ordered pair (i, j).  The
    matrix holds both orientations (``matrix[j, i]`` is the converse image of
    ``matrix[i, j]``) and equality on the diagonal.
    """

    __slots__ = ("calculus", "elements", "matrix", "_elem_ids")

    def __init__(self, calculus: Calculus, elements: tuple[str, ...], matrix: np.ndarray):
        n = len(elements)
        if matrix.shape != (n, n) or matrix.dtype != np.int16 or not matrix.flags.c_contiguous:
            raise InstanceError("domain matrix must be a contiguous n x n int16 array")
        self.calculus = calculus
        self.elements = elements
        self.matrix = matrix
        self._elem_ids = {name: i for i, name in enumerate(elements)}

    def domain_between(self, x: str, y: str) -> RelationSet:
        return int(self.matrix[self._elem_ids[x], self._elem_ids[y]])

    def first_empty_pair(self) -> tuple[str, str] | None:
        rows, cols = _upper_triangle(len(self.elements))
        empty = np.flatnonzero(self.matrix[rows, cols] == 0)
        if not len(empty):
            return None
        return (self.elements[rows[empty[0]]], self.elements[cols[empty[0]]])


def build_network(inst: Instance) -> Network:
    """Fold the constraints into the pair domains.

    A constraint on a reversed pair lands on the canonical pair (i < j) as its
    converse image; the lower triangle is the converse image of the upper one.
    Domains may come out empty; that is trivial unsatisfiability, visible via
    ``first_empty_pair``, not an exception.
    """
    calc = inst.calculus
    try:
        conv = calc.row_union_tables.conv
    except CalculusError as exc:  # too many relations for the tables
        raise UnsupportedCalculusError(str(exc)) from None
    if not calc.has_unique_converse:
        raise UnsupportedCalculusError(
            f"calculus {calc.name!r} violates converse-uniqueness; the canonical-pair "
            "network cannot represent it")
    n = len(inst.elements)
    net = Network(calc, inst.elements, np.full((n, n), calc.base_label_mask, dtype=np.int16))
    matrix = net.matrix
    for c in inst.constraints:
        i, j = net._elem_ids[c.x], net._elem_ids[c.y]
        if i < j:
            matrix[i, j] &= c.rels
        else:
            matrix[j, i] &= calc.converse_set(c.rels)
    rows, cols = _upper_triangle(n)
    matrix[cols, rows] = conv[matrix[rows, cols]]
    np.fill_diagonal(matrix, 1 << calc.equality)
    return net


def _loose_value_order(calc: Calculus) -> list[RelationSet]:
    """Single-relation bitmasks, least propagation impact first.

    Looseness of r is the total size of its composition row and column; trying
    loose relations (typically dis/i) before tight ones (eq) keeps the
    propagation wave after each branching step small.  Ties break toward
    declaration order, so the order is deterministic per calculus.
    """
    n = calc.n_relations
    def looseness(r: int) -> int:
        return sum(calc.table[r][q].bit_count() + calc.table[q][r].bit_count()
                   for q in range(n))
    return [1 << r for r in sorted(range(n), key=lambda r: (-looseness(r), r))]


def _union_row(tables: RowUnionTables, left: RelationSet) -> np.ndarray:
    """``prop(left, M)`` for every mask ``M``: the union of ``fwd[a]`` over the
    relations ``a`` in ``left``, intersected with the union of ``mir[a]``."""
    bits = list(iter_bits(left))
    row = np.bitwise_or.reduce(tables.fwd[bits], axis=0)
    row &= np.bitwise_or.reduce(tables.mir[bits], axis=0)
    row.setflags(write=False)
    return row


class _Engine:
    """Propagation plus depth-first search over a network's domain matrix.

    A pair is named by the flat index ``i * n + j`` of its canonical cell
    (i < j), so pair order is flat order.  Popping pair (i, j) revises the whole
    of row i through row j with one lookup in the row union of D(i, j), then
    row j through the revised row i; the cells that changed, and their
    converses, are written, trailed when asked and queued in the order of a
    per-k sweep.  The trail is allocated only when search first needs to undo.
    """

    __slots__ = ("n", "matrix", "cells", "pairs", "full", "union_row", "conv", "in_queue",
                 "queue", "trail_pairs", "trail_masks", "trail_len", "heap", "deadline",
                 "failed_decisions", "_ticks")

    def __init__(self, net: Network, deadline: float | None = None):
        calc = net.calculus
        tables = calc.row_union_tables
        n = len(net.elements)
        self.n = n
        self.matrix = net.matrix
        self.cells = net.matrix.reshape(-1)
        rows, cols = _upper_triangle(n)
        self.pairs = rows * n + cols
        self.full = calc.full_set
        # a row has 2^K entries, so only the recently used lefts keep theirs
        self.union_row = lru_cache(maxsize=64)(partial(_union_row, tables))
        self.conv = tables.conv
        self.in_queue = bytearray(n * n)
        self.queue: deque[int] = deque()
        # (pair, old mask) entries; allocated by _restart, so None until
        # search first backtracks
        self.trail_pairs: np.ndarray | None = None
        self.trail_masks: np.ndarray | None = None
        self.trail_len = 0
        # MRV entries (size, pair); built by the first pick_mrv, the only reader
        self.heap: list[tuple[int, int]] | None = None
        self.deadline = deadline
        self.failed_decisions = 0
        self._ticks = 0

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveTimeout()

    def enqueue(self, p: int) -> None:
        if not self.in_queue[p]:
            self.in_queue[p] = 1
            self.queue.append(p)

    def seed_initial(self) -> None:
        for p in self.pairs[self.cells[self.pairs] != self.full].tolist():
            self.enqueue(p)

    def _push_mrv(self, p: int, mask: RelationSet) -> None:
        if mask & (mask - 1):
            heapq.heappush(self.heap, (mask.bit_count(), p))

    def _trail(self, a: int, ks: np.ndarray, row: np.ndarray) -> None:
        """Trail the canonical cell of each pair {a, k} with its current mask."""
        start = self.trail_len
        self.trail_len = start + ks.size
        above = ks > a
        self.trail_pairs[start:self.trail_len] = np.where(above, a * self.n + ks,
                                                          ks * self.n + a)
        self.trail_masks[start:self.trail_len] = np.where(above, row[ks], self.matrix[ks, a])

    def propagate(self, record: bool) -> int | None:
        """Run the triangle fixpoint; returns the first emptied pair or None.

        Popping (i, j) sets D(i,k) &= prop(D(i,j), D(j,k)) for every k outside
        {i, j}, then D(j,k) &= prop(D(j,i), D(i,k)) through the revised row i.
        Changed cells and their converses are written (trailed when
        ``record``) and queued in the order of a sweep over k: (i,k) before
        (j,k), k ascending.
        """
        matrix = self.matrix
        n = self.n
        queue = self.queue
        in_queue = self.in_queue
        union_row = self.union_row
        conv = self.conv
        heap = self.heap
        while queue:
            self._ticks += 1
            if self._ticks & 0x3F == 0:
                self._check_deadline()
            p = queue.popleft()
            in_queue[p] = 0
            i, j = divmod(p, n)
            row_i = matrix[i]
            row_j = matrix[j]
            left = int(row_i[j])
            if left == 0:
                return p
            new = union_row(left).take(row_j)
            new &= row_i
            new[i] = row_i[i]
            new[j] = left
            ks_i = (new != row_i).nonzero()[0]
            if ks_i.size:
                masks_i = new[ks_i]
                if record:
                    self._trail(i, ks_i, row_i)
                row_i[ks_i] = masks_i
                matrix[ks_i, i] = conv[masks_i]
            right = int(row_j[i])
            new = union_row(right).take(row_i)
            new &= row_j
            new[j] = row_j[j]
            new[i] = right
            ks_j = (new != row_j).nonzero()[0]
            if ks_j.size:
                masks_j = new[ks_j]
                if record:
                    self._trail(j, ks_j, row_j)
                row_j[ks_j] = masks_j
                matrix[ks_j, j] = conv[masks_j]
            if ks_i.size and ks_j.size:
                # i < j, so sorting on (k, row) puts (i,k) before (j,k)
                events = sorted(chain(zip(ks_i.tolist(), repeat(i), masks_i.tolist()),
                                      zip(ks_j.tolist(), repeat(j), masks_j.tolist())))
            elif ks_i.size:
                events = zip(ks_i.tolist(), repeat(i), masks_i.tolist())
            elif ks_j.size:
                events = zip(ks_j.tolist(), repeat(j), masks_j.tolist())
            else:
                continue
            for k, a, mask in events:
                q = a * n + k if a < k else k * n + a
                if not in_queue[q]:
                    in_queue[q] = 1
                    queue.append(q)
                if mask == 0:
                    return q
                if heap is not None and mask & (mask - 1):
                    heapq.heappush(heap, (mask.bit_count(), q))
        return None

    def undo_to(self, mark: int) -> None:
        if self.trail_len > mark:
            # a pair trailed more than once gets back its oldest mask
            pairs, first = np.unique(self.trail_pairs[mark:self.trail_len],
                                     return_index=True)
            pairs = pairs.astype(np.intp)
            masks = self.trail_masks[mark:self.trail_len][first]
            self.cells[pairs] = masks
            self.cells[pairs % self.n * self.n + pairs // self.n] = self.conv[masks]
            if self.heap is not None:
                for p, mask in zip(pairs.tolist(), masks.tolist()):
                    self._push_mrv(p, mask)
            self.trail_len = mark
        if self.queue:
            self.queue.clear()
            self.in_queue = bytearray(self.n * self.n)

    # -- search -------------------------------------------------------------

    def pick_mrv(self) -> int | None:
        """Undecided pair with the fewest values, ties by pair order."""
        heap = self.heap
        cells = self.cells
        if heap is None:
            heap = self.heap = [(mask.bit_count(), p) for p, mask in
                                zip(self.pairs.tolist(), cells[self.pairs].tolist())
                                if mask & (mask - 1)]
            heapq.heapify(heap)
        while heap:
            size, p = heap[0]
            cur = int(cells[p]).bit_count()
            if cur <= 1:
                heapq.heappop(heap)
                continue
            if cur != size:
                heapq.heappop(heap)
                heapq.heappush(heap, (cur, p))
                continue
            return p
        return None

    def pick_first_undecided(self) -> int | None:
        masks = self.cells[self.pairs]
        undecided = (masks & (masks - 1)) != 0
        first = int(undecided.argmax())
        return int(self.pairs[first]) if undecided[first] else None

    def _restart(self, closed: np.ndarray) -> None:
        """Put back the closed domains and start trailing from an empty trail."""
        np.copyto(self.matrix, closed)
        self.heap = None
        self.queue.clear()
        self.in_queue = bytearray(self.n * self.n)
        # a pair's domain shrinks at most K times on one branch
        capacity = len(self.pairs) * (self.full.bit_length() + 1)
        self.trail_pairs = np.empty(capacity, dtype=np.int32)
        self.trail_masks = np.empty(capacity, dtype=np.int16)
        self.trail_len = 0

    def search(self, pick: Callable[["_Engine"], int | None],
               value_bits: Sequence[RelationSet]) -> Iterator[list[RelationSet]]:
        """Depth-first search over the closed network's pair domains.

        ``pick`` chooses the pair to branch on (None once every pair is
        decided); values are tried in ``value_bits`` order.  Yields the
        decided domains of the canonical pairs, in pair order, at every
        consistent leaf.

        The search first runs optimistically and trails nothing.  The first
        time it has to undo (after a failed decision, or when resumed after
        a leaf), it restores the closed domains and runs again from the
        start with trailing on.  The search is deterministic, so the re-run
        makes the same decisions; it passes over the leaves already yielded.
        """
        cells = self.cells
        n = self.n
        closed = self.matrix.copy()
        yielded = 0
        for record in (False, True):
            if record:
                self._restart(closed)
            p = pick(self)
            if p is None:
                yield self.cells[self.pairs].tolist()
                return
            seen = 0
            # frames: [pair, remaining value bits, trail mark]
            stack: list[list[int]] = [[p, int(cells[p]), 0]]
            while stack:
                self._check_deadline()
                frame = stack[-1]
                pv, remaining, mark = frame
                if record:
                    self.undo_to(mark)
                if remaining == 0:
                    stack.pop()
                    continue
                for bit in value_bits:
                    if remaining & bit:
                        break
                frame[1] = remaining ^ bit
                if record:
                    self.trail_pairs[self.trail_len] = pv
                    self.trail_masks[self.trail_len] = cells[pv]
                    self.trail_len += 1
                i, j = divmod(pv, n)
                cells[pv] = bit
                cells[j * n + i] = self.conv[bit]
                self.enqueue(pv)
                if self.propagate(record) is not None:
                    if not record:
                        break
                    self.failed_decisions += 1
                    continue
                p = pick(self)
                if p is not None:
                    stack.append([p, int(cells[p]), self.trail_len])
                    continue
                seen += 1
                if seen > yielded:
                    yielded = seen
                    yield self.cells[self.pairs].tolist()
                if not record:
                    break
            else:
                return


def _close(net: Network, deadline: float | None) -> tuple[_Engine, tuple[str, str] | None]:
    """Run the network to its triangle fixpoint in place.

    Returns the engine holding the closed domains and the first pair whose
    domain is or became empty (None when all stay non-empty).
    """
    engine = _Engine(net, deadline)
    empty = net.first_empty_pair()
    if empty is not None:
        return engine, empty
    engine.seed_initial()
    failed = engine.propagate(record=False)
    if failed is None:
        return engine, None
    i, j = divmod(failed, engine.n)
    return engine, (net.elements[i], net.elements[j])


def algebraic_closure(net: Network, deadline: float | None = None) -> tuple[str, str] | None:
    """Refine the network to its triangle fixpoint, in place.

    Returns None when every domain stays non-empty, else the first pair whose
    domain collapsed.  Idempotent: a second run changes nothing.
    """
    return _close(net, deadline)[1]


# -- assignments ---------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """Total relation assignment; reversed pairs are converse-derived and the
    diagonal is pinned to equality."""

    calculus: Calculus
    elements: tuple[str, ...]
    values: tuple[RelationId, ...]  # one per canonical pair, row-major

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    def _pair_pos(self, i: int, j: int) -> int:
        n = len(self.elements)
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    def of(self, x: str, y: str) -> RelationId:
        i = self._ids[x]
        j = self._ids[y]
        if i == j:
            return self.calculus.equality
        if i < j:
            return self.values[self._pair_pos(i, j)]
        return self.calculus.converse[self.values[self._pair_pos(j, i)]]

    def name_of(self, x: str, y: str) -> str:
        return self.calculus.rel_name(self.of(x, y))

    def items(self):
        """Canonical pairs with their relation ids, in pair order."""
        names = self.elements
        rows, cols = _upper_triangle(len(names))
        for i, j, rid in zip(rows.tolist(), cols.tolist(), self.values):
            yield (names[i], names[j]), rid

    def to_dict(self) -> dict[str, str]:
        return {f"{x}|{y}": self.calculus.rel_name(rid) for (x, y), rid in self.items()}


def _assignment_from_domains(net: Network, domains: Sequence[RelationSet]) -> Assignment:
    values = tuple(mask.bit_length() - 1 for mask in domains)
    return Assignment(net.calculus, net.elements, values)


# -- public solving API ---------------------------------------------------------


def _models(inst: Instance, deadline: float | None,
            pick: Callable[[_Engine], int | None],
            value_bits: Sequence[RelationSet]) -> Iterator[Assignment]:
    """Build, close and search the instance, yielding verified models in
    search order."""
    net = build_network(inst)
    if inst.elements and not inst.calculus.diagonal_consistent:
        return
    engine, failed = _close(net, deadline)
    if failed is not None:
        return
    for domains in engine.search(pick, value_bits):
        model = _assignment_from_domains(net, domains)
        check = verify_assignment(inst, model)
        if not check.ok:
            raise AssertionError(
                f"search produced an assignment that fails verification: {check.violations[:3]}")
        yield model


def solve(inst: Instance, deadline: float | None = None) -> Assignment | None:
    """One model of the instance, re-verified, or None when none exists.

    Deterministic: branching follows minimum remaining values with ties by
    pair order, values in a fixed loose-composition-first order.
    """
    models = _models(inst, deadline, _Engine.pick_mrv, _loose_value_order(inst.calculus))
    return next(models, None)


def enumerate_models(inst: Instance, limit: int | None = None,
                     deadline: float | None = None) -> list[Assignment]:
    """All distinct models (up to ``limit``), each one re-verified.

    Output order is lexicographic in canonical pair order crossed with
    relation declaration order.
    """
    if limit is not None and limit <= 0:
        return []
    declared = [1 << r for r in range(inst.calculus.n_relations)]
    return list(islice(_models(inst, deadline, _Engine.pick_first_undecided, declared), limit))


# -- independent verification ----------------------------------------------------

_VIOLATION_CAP = 64
# ordered triples checked per numpy operation, unless one first element has more
_VERIFY_TRIPLES = 1 << 16


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violations: tuple[tuple, ...]  # ("identity", x) | ("composition", x, y, z) | ("constraint", x, y)

    def __bool__(self) -> bool:
        return self.ok


def verify_assignment(inst: Instance,
                      assignment: Assignment | Mapping[tuple[str, str], RelationId | str],
                      ) -> VerificationResult:
    """Straight-line re-check of an assignment against the model conditions.

    Independent of the search path: builds the full ordered-pair matrix and
    tests the diagonal, every ordered triple against the table, and every
    input constraint.  Accepts either an :class:`Assignment` or a raw mapping
    total over ordered element pairs (relation ids or names).
    """
    calc = inst.calculus
    names = inst.elements
    n = len(names)
    k = calc.n_relations
    if isinstance(assignment, Assignment):
        if assignment.elements != names:
            raise InstanceError("assignment elements do not match the instance")
        rows, cols = _upper_triangle(n)
        values = np.asarray(assignment.values, dtype=np.intp)
        matrix = np.full((n, n), assignment.calculus.equality, dtype=np.intp)
        matrix[rows, cols] = values
        matrix[cols, rows] = np.asarray(assignment.calculus.converse, dtype=np.intp)[values]
    else:
        matrix = np.empty((n, n), dtype=np.intp)
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                try:
                    val = assignment[(x, y)]
                except KeyError:
                    raise InstanceError(f"assignment is not total: missing pair ({x},{y})") from None
                matrix[i, j] = calc.rel_id(val) if isinstance(val, str) else val
    if n and not (0 <= matrix.min() and matrix.max() < k):
        raise InstanceError("assignment mentions relation ids outside the calculus")
    matrix = matrix.astype(np.int32)  # the table codes below stay under k**3

    violations: list[tuple] = []
    for i in range(n):
        if matrix[i, i] != calc.equality:
            violations.append(("identity", names[i]))

    # A chunk of first elements x at a time, so memory stays O(n^2): entry
    # [x, y, z] of ``code`` indexes the flattened table at (rel(x,y),
    # rel(y,z), rel(x,z)), and argwhere lists violations in (x, y, z) order.
    forbidden = calc.forbidden_flat
    scaled = matrix * k
    chunk = max(1, _VERIFY_TRIPLES // max(n * n, 1))
    composition: list[tuple] = []
    for start in range(0, n, chunk):
        block = matrix[start:start + chunk]
        code = block[:, :, None] * (k * k) + scaled
        code += block[:, None, :]
        bad = forbidden[code]
        if bad.any():
            composition += [("composition", names[start + x], names[y], names[z])
                            for x, y, z in np.argwhere(bad)[:_VIOLATION_CAP - len(composition)]]
            if len(composition) == _VIOLATION_CAP:
                break
    violations += composition

    ids = {name: i for i, name in enumerate(names)}
    for c in inst.constraints:
        rid = int(matrix[ids[c.x], ids[c.y]])
        if not (c.rels >> rid) & 1:
            violations.append(("constraint", c.x, c.y))

    return VerificationResult(not violations, tuple(violations))


# -- instance and model file formats ---------------------------------------------
#
# Instance (UTF-8 JSON):
#   {"calculus": "tc6" | "tc10" | {inline calculus object},
#    "elements": [names...],
#    "constraints": [{"x": ..., "y": ..., "rels": [names...]}, ...]}
#
# Model output (UTF-8 JSON): {"status": "sat"|"unsat", "models": [{"x|y": "rel", ...}]}
# listing canonical pairs only; element names never contain "|".


def load_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise InstanceError("instance file must contain a JSON object")
    calc_field = doc.get("calculus", "tc6")
    if isinstance(calc_field, str):
        calc = builtin(calc_field)
        if calc is None:
            raise InstanceError(
                f"unknown calculus {calc_field!r} (expected tc6, tc10, or an inline object)")
    elif isinstance(calc_field, dict):
        try:
            calc = load_calculus(json.dumps(calc_field))
        except CalculusError as exc:
            raise InstanceError(f"inline calculus: {exc}") from None
    else:
        raise InstanceError("'calculus' must be a name or an inline calculus object")

    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InstanceError("'elements' must be an array of strings")
    constraints = []
    for entry in doc.get("constraints", []):
        if not isinstance(entry, dict) or not {"x", "y", "rels"} <= entry.keys():
            raise InstanceError(f"bad constraint entry {entry!r}")
        rels = entry["rels"]
        if not isinstance(rels, list):
            raise InstanceError(f"constraint ({entry['x']},{entry['y']}): 'rels' must be an array")
        try:
            mask = calc.mask_of(rels)
        except CalculusError as exc:
            raise InstanceError(str(exc)) from None
        constraints.append(Constraint(str(entry["x"]), str(entry["y"]), mask))
    return Instance(calc, tuple(elements), tuple(constraints))


def instance_to_json(inst: Instance) -> str:
    calc_field: object
    if builtin(inst.calculus.name) == inst.calculus:
        calc_field = inst.calculus.name
    else:
        calc_field = json.loads(save_calculus(inst.calculus))
    doc = {
        "calculus": calc_field,
        "elements": list(inst.elements),
        "constraints": [
            {"x": c.x, "y": c.y, "rels": list(inst.calculus.names_of(c.rels))}
            for c in inst.constraints
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def models_to_json(models: Sequence[Assignment], sat: bool | None = None) -> str:
    status = "sat" if (sat if sat is not None else bool(models)) else "unsat"
    doc = {"status": status, "models": [m.to_dict() for m in models]}
    return json.dumps(doc, indent=2) + "\n"
