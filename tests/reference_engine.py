"""Reference propagation engine for differential tests.

This is the canonical-pair engine that ``trajcalc.solver`` used before its
dense-matrix engine: one domain bitmask per unordered pair in a Python list,
a list-of-lists pair index, and a per-triangle Python loop with a memoised
mirrored composition.  It is slow but straightforward; the tests require the
production engine to reach the same closed domains and the same models.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

import trajcalc.solver
from trajcalc.calculus import Calculus, RelationSet, iter_bits
from trajcalc.solver import Assignment, Instance, InstanceError, SolveTimeout


def compose_set(calc: Calculus, left: RelationSet, right: RelationSet) -> RelationSet:
    """Union of ``calc.compose(r1, r2)`` over all ``r1`` in left, ``r2`` in right."""
    got = 0
    for r1 in iter_bits(left):
        row = calc.table[r1]
        for r2 in iter_bits(right):
            got |= row[r2]
    return got


def dense_domains(net: trajcalc.solver.Network) -> list[RelationSet]:
    """Domains of a dense network's canonical pairs (i, j), i < j, in pair order."""
    return net.matrix[np.triu_indices(len(net.elements), 1)].tolist()


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

    def first_empty_pair(self) -> tuple[str, str] | None:
        for p, mask in enumerate(self.domains):
            if mask == 0:
                i, j = self.pairs[p]
                return (self.elements[i], self.elements[j])
        return None


def build_network(inst: Instance) -> Network:
    calc = inst.calculus
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
    comp = partial(compose_set, calc)
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


def _close(net: Network) -> tuple[_Engine, tuple[str, str] | None]:
    engine = _Engine(net)
    empty = net.first_empty_pair()
    if empty is not None:
        return engine, empty
    engine.seed_initial()
    failed = engine.propagate(record=False)
    if failed is None:
        return engine, None
    i, j = net.pairs[failed]
    return engine, (net.elements[i], net.elements[j])


def closure(inst: Instance) -> tuple[list[RelationSet], tuple[str, str] | None]:
    """Canonical-pair domains after closure, and the first emptied pair."""
    net = build_network(inst)
    _, failed = _close(net)
    return net.domains, failed


def _models(inst: Instance, pick: Callable[[_Engine], int | None],
            value_bits: Sequence[RelationSet]) -> Iterator[Assignment]:
    net = build_network(inst)
    if inst.elements and not inst.calculus.diagonal_consistent:
        return
    engine, failed = _close(net)
    if failed is not None:
        return
    for domains in engine.search(pick, value_bits):
        values = tuple(mask.bit_length() - 1 for mask in domains)
        yield Assignment(net.calculus, net.elements, values)


def enumerate_models(inst: Instance, limit: int | None = None) -> list[Assignment]:
    if limit is not None and limit <= 0:
        return []
    declared = [1 << r for r in range(inst.calculus.n_relations)]
    return list(islice(_models(inst, _Engine.pick_first_undecided, declared), limit))
