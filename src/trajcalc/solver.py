"""Model existence for qualitative constraint networks.

An instance is a set of named elements plus constraints ``(x, y) in R`` over
a calculus.  A model is a total relation assignment that puts equality on the
diagonal, satisfies every constraint, and respects the composition table on
every ordered element triple.

The network stores one domain bitmask per unordered element pair; the domain
of the reversed pair is the elementwise converse.  That representation is
only faithful for calculi in which ``eq in c(r, r')`` pins ``r'`` to the
converse of ``r`` (checked once per calculus; others are refused).  Search is
chronological backtracking over pair domains with fixpoint propagation after
every assignment.
"""

from __future__ import annotations

import heapq
import json
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .calculus import (Calculus, CalculusError, RelationId, RelationSet,
                       allowed_tensor, builtin, load_calculus, save_calculus)


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


def _pair_table(n: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    pairs: list[tuple[int, int]] = []
    index = [[-1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            index[i][j] = index[j][i] = len(pairs)
            pairs.append((i, j))
    return pairs, index


class Network:
    """Mutable canonical-pair domain store for one solving run."""

    __slots__ = ("calculus", "elements", "domains", "pairs", "pair_index", "_elem_ids")

    def __init__(self, calculus: Calculus, elements: tuple[str, ...],
                 domains: list[RelationSet]):
        self.calculus = calculus
        self.elements = elements
        self.pairs, self.pair_index = _pair_table(len(elements))
        if len(domains) != len(self.pairs):
            raise InstanceError("domain list does not match the pair count")
        self.domains = domains
        self._elem_ids = {name: i for i, name in enumerate(elements)}

    def domain_between(self, x: str, y: str) -> RelationSet:
        i = self._elem_ids[x]
        j = self._elem_ids[y]
        if i == j:
            return 1 << self.calculus.equality
        mask = self.domains[self.pair_index[i][j]]
        return mask if i < j else self.calculus.converse_set(mask)

    def first_empty_pair(self) -> tuple[str, str] | None:
        for p, mask in enumerate(self.domains):
            if mask == 0:
                i, j = self.pairs[p]
                return (self.elements[i], self.elements[j])
        return None


def build_network(inst: Instance) -> Network:
    """Fold the constraints into per-pair domains.

    A constraint on a reversed pair lands on the canonical pair as its
    converse image.  Domains may come out empty; that is trivial
    unsatisfiability, visible via ``first_empty_pair``, not an exception.
    """
    calc = inst.calculus
    if not calc.has_unique_converse:
        raise UnsupportedCalculusError(
            f"calculus {calc.name!r} violates converse-uniqueness; the canonical-pair "
            "network cannot represent it")
    n = len(inst.elements)
    net = Network(calc, inst.elements, [calc.base_label_mask] * (n * (n - 1) // 2))
    for c in inst.constraints:
        i, j = net._elem_ids[c.x], net._elem_ids[c.y]
        mask = c.rels if i < j else calc.converse_set(c.rels)
        net.domains[net.pair_index[i][j]] &= mask
    return net


def _prop_compose_fn(calc: Calculus):
    # Effective composition for propagation: the forward table cell
    # intersected with the converse-mirrored one, so both orientations of a
    # triangle are enforced even for tables breaking the converse-composition
    # law.  For law-abiding tables the two sides coincide.
    comp = calc.compose_set
    conv = calc.converse_set
    shift = calc.n_relations
    memo: dict[int, int] = {}

    def prop(left: int, right: int) -> int:
        key = (left << shift) | right
        got = memo.get(key)
        if got is None:
            got = comp(left, right) & conv(comp(conv(right), conv(left)))
            memo[key] = got
        return got

    return prop


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


class _Engine:
    """Propagation plus trail-based backtracking over a network's domains."""

    __slots__ = ("net", "n", "domains", "pair_index", "pairs", "conv", "comp",
                 "in_queue", "queue", "trail", "deadline", "_ticks", "full", "heap")

    def __init__(self, net: Network, deadline: float | None = None):
        self.net = net
        self.n = len(net.elements)
        self.domains = net.domains
        self.pair_index = net.pair_index
        self.pairs = net.pairs
        self.conv = net.calculus.converse_set
        self.comp = _prop_compose_fn(net.calculus)
        self.full = net.calculus.full_set
        self.in_queue = bytearray(len(net.pairs))
        self.queue: deque[int] = deque()
        self.trail: list[tuple[int, int]] = []
        self.heap: list[tuple[int, int]] = []
        self.deadline = deadline
        self._ticks = 0

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveTimeout()

    def enqueue(self, p: int) -> None:
        if not self.in_queue[p]:
            self.in_queue[p] = 1
            self.queue.append(p)

    def seed_initial(self) -> None:
        full = self.full
        for p, mask in enumerate(self.domains):
            if mask != full:
                self.enqueue(p)

    def _shrink(self, p: int, new: RelationSet, record: bool) -> None:
        if record:
            self.trail.append((p, self.domains[p]))
        self.domains[p] = new
        if not self.in_queue[p]:
            self.in_queue[p] = 1
            self.queue.append(p)
        size = new.bit_count()
        if size > 1:
            heapq.heappush(self.heap, (size, p))

    def propagate(self, record: bool) -> int | None:
        """Run the triangle fixpoint; returns the first emptied pair or None."""
        domains = self.domains
        pair_index = self.pair_index
        pairs = self.pairs
        conv = self.conv
        comp = self.comp
        queue = self.queue
        in_queue = self.in_queue
        n = self.n
        while queue:
            self._ticks += 1
            if self._ticks & 0x3F == 0:
                self._check_deadline()
            p = queue.popleft()
            in_queue[p] = 0
            d_ij = domains[p]
            if d_ij == 0:
                return p
            i, j = pairs[p]
            row_i = pair_index[i]
            row_j = pair_index[j]
            d_ji = conv(d_ij)
            for k in range(n):
                if k == i or k == j:
                    continue
                t = row_i[k]
                q = row_j[k]
                # target {i,k} through j:  D(i,k) &= c(D(i,j), D(j,k))
                d_jk = domains[q] if j < k else conv(domains[q])
                composed = comp(d_ij, d_jk)
                old = domains[t]
                new = old & (composed if i < k else conv(composed))
                if new != old:
                    self._shrink(t, new, record)
                    if new == 0:
                        return t
                # target {j,k} through i:  D(j,k) &= c(D(j,i), D(i,k))
                d_ik = domains[t] if i < k else conv(domains[t])
                composed = comp(d_ji, d_ik)
                old = domains[q]
                new = old & (composed if j < k else conv(composed))
                if new != old:
                    self._shrink(q, new, record)
                    if new == 0:
                        return q
        return None

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        domains = self.domains
        heap = self.heap
        while len(trail) > mark:
            p, old = trail.pop()
            domains[p] = old
            size = old.bit_count()
            if size > 1:
                heapq.heappush(heap, (size, p))
        if self.queue:
            self.queue.clear()
            self.in_queue = bytearray(len(self.pairs))

    # -- search -------------------------------------------------------------

    def pick_mrv(self) -> int | None:
        """Undecided pair with the fewest values, ties by pair order."""
        heap = self.heap
        domains = self.domains
        while heap:
            size, p = heap[0]
            cur = domains[p].bit_count()
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
        for p, mask in enumerate(self.domains):
            if mask.bit_count() > 1:
                return p
        return None

    def search(self, pick: Callable[["_Engine"], int | None],
               value_bits: Sequence[RelationSet]) -> Iterator[list[RelationSet]]:
        """Depth-first search over the closed network's pair domains.

        ``pick`` chooses the pair to branch on (None once every pair is
        decided); values are tried in ``value_bits`` order.  Yields the
        decided domain list at every consistent leaf; it is only valid until
        the generator resumes.
        """
        domains = self.domains
        trail = self.trail
        self.heap = [(mask.bit_count(), p) for p, mask in enumerate(domains)
                     if mask.bit_count() > 1]
        heapq.heapify(self.heap)
        p = pick(self)
        if p is None:
            yield domains
            return
        # frames: [pair, remaining value bits, trail mark]
        stack: list[list[int]] = [[p, domains[p], len(trail)]]
        while stack:
            self._check_deadline()
            frame = stack[-1]
            pv, remaining, mark = frame
            self.undo_to(mark)
            if remaining == 0:
                stack.pop()
                continue
            for bit in value_bits:
                if remaining & bit:
                    break
            frame[1] = remaining ^ bit
            trail.append((pv, domains[pv]))
            domains[pv] = bit
            self.enqueue(pv)
            if self.propagate(record=True) is not None:
                continue
            p = pick(self)
            if p is None:
                yield domains
                continue
            stack.append([p, domains[p], len(trail)])


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
    i, j = net.pairs[failed]
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
        n = len(self.elements)
        pos = 0
        for i in range(n):
            for j in range(i + 1, n):
                yield (self.elements[i], self.elements[j]), self.values[pos]
                pos += 1

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
        # the upper triangle's True cells run in canonical pair order
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        values = np.asarray(assignment.values, dtype=np.intp)
        matrix = np.full((n, n), assignment.calculus.equality, dtype=np.intp)
        matrix[upper] = values
        matrix.T[upper] = np.asarray(assignment.calculus.converse, dtype=np.intp)[values]
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

    violations: list[tuple] = []
    for i in range(n):
        if matrix[i, i] != calc.equality:
            violations.append(("identity", names[i]))

    # One first element x at a time, so memory stays O(n^2): entry [y, z] of
    # ``code`` indexes the flattened table at (rel(x,y), rel(y,z), rel(x,z)).
    forbidden = ~allowed_tensor(calc).ravel()
    composition: list[tuple] = []
    for x in range(n):
        row = matrix[x]
        code = matrix * k
        code += row[:, None] * (k * k)
        code += row
        bad = forbidden[code]
        if bad.any():
            composition += [("composition", names[x], names[y], names[z])
                            for y, z in np.argwhere(bad)[:_VIOLATION_CAP - len(composition)]]
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
# listing canonical pairs only.


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
