"""Qualitative calculi as immutable data.

A calculus couples a finite relation alphabet with a designated equality
relation, a converse map, and a dense composition table.  Relation sets are
plain ``int`` bitmasks over the declaration order of the alphabet, which keeps
set algebra allocation-free and makes calculi safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

RelationId = int
RelationSet = int  # bitmask; bit r set <=> relation with id r is in the set


class CalculusError(ValueError):
    """Structurally broken calculus or malformed calculus file."""


def iter_bits(mask: RelationSet) -> Iterator[RelationId]:
    """Yield the relation ids set in ``mask``, lowest id first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Relation sets fit int16 masks, and the row-union tables stay K x 2^K small.
MAX_TABLE_RELATIONS = 15


class RowUnionTables(NamedTuple):
    """Read-only lookup tables over relation-set masks ``M`` (``2^K`` of them).

    ``fwd[a][M]`` is the union of ``c(a, b)`` over ``b`` in ``M``;
    ``mir[a][M]`` is the union of ``converse(c(converse b, converse a))``;
    ``conv[M]`` is the elementwise converse image.  So the propagation
    composition of masks ``L`` and ``R``, ``c(L, R)`` intersected with the
    converse of ``c(conv R, conv L)``, is the union of ``fwd[a][R]`` over ``a``
    in ``L`` intersected with the union of ``mir[a][R]``.  ``mir`` equals
    ``fwd`` when the table obeys the converse-composition law.
    """

    fwd: np.ndarray
    mir: np.ndarray
    conv: np.ndarray


def _mask_unions(cells: np.ndarray) -> np.ndarray:
    """``out[..., M]`` is the union of ``cells[..., b]`` over the bits ``b`` of
    ``M``.  Built by doubling: the masks with top bit ``b`` are the masks below
    ``2^b`` with ``cells[..., b]`` added."""
    out = np.zeros(cells.shape[:-1] + (1,), dtype=np.int16)
    for b in range(cells.shape[-1]):
        out = np.concatenate((out, out | cells[..., b:b + 1]), axis=-1)
    return out


@dataclass(frozen=True)
class Calculus:
    """A finite relation algebra fragment: alphabet, equality, converse, table.

    Instances are immutable after construction.  Structural well-formedness
    (shapes, symbol syntax, ids in range) is enforced here; the algebraic laws
    (identity, involution, converse-uniqueness, the converse-composition law,
    non-empty table cells) are *not* -- they are checked by
    :func:`validate_calculus`, so that a deliberately broken calculus can be
    built for table debugging and fault-injection tests.
    """

    name: str
    relations: tuple[str, ...]
    equality: RelationId
    converse: tuple[RelationId, ...]
    table: tuple[tuple[RelationSet, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.relations)
        if n == 0:
            raise CalculusError("calculus needs at least one relation")
        seen = set()
        for sym in self.relations:
            if not sym or not sym.isidentifier() or sym != sym.lower():
                raise CalculusError(f"relation symbol {sym!r} is not a lowercase identifier")
            if sym in seen:
                raise CalculusError(f"duplicate relation symbol {sym!r}")
            seen.add(sym)
        if not 0 <= self.equality < n:
            raise CalculusError(f"equality id {self.equality} out of range")
        if len(self.converse) != n or any(not 0 <= c < n for c in self.converse):
            raise CalculusError("converse map must cover exactly the declared relations")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise CalculusError(f"table must be dense {n}x{n}")
        full = (1 << n) - 1
        for row in self.table:
            for cell in row:
                if cell & ~full:
                    raise CalculusError("table cell mentions an undeclared relation")

    # -- basic lookups ----------------------------------------------------

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @cached_property
    def full_set(self) -> RelationSet:
        return (1 << len(self.relations)) - 1

    @cached_property
    def _ids(self) -> dict[str, RelationId]:
        return {sym: i for i, sym in enumerate(self.relations)}

    def rel_id(self, symbol: str) -> RelationId:
        try:
            return self._ids[symbol]
        except KeyError:
            raise CalculusError(f"unknown relation symbol {symbol!r} in calculus {self.name!r}") from None

    def rel_name(self, rid: RelationId) -> str:
        return self.relations[rid]

    def mask_of(self, symbols: Iterable[str]) -> RelationSet:
        mask = 0
        for sym in symbols:
            mask |= 1 << self.rel_id(sym)
        return mask

    def names_of(self, mask: RelationSet) -> tuple[str, ...]:
        return tuple(self.relations[r] for r in iter_bits(mask))

    # -- algebra -----------------------------------------------------------

    def compose(self, r1: RelationId, r2: RelationId) -> RelationSet:
        """Table cell for the pair ``(r1, r2)``."""
        n = len(self.relations)
        if not (0 <= r1 < n and 0 <= r2 < n):
            raise CalculusError(f"relation id out of range: ({r1}, {r2})")
        return self.table[r1][r2]

    @cached_property
    def _conv_memo(self) -> dict[RelationSet, RelationSet]:
        return {}

    def converse_set(self, rels: RelationSet) -> RelationSet:
        """Elementwise converse image of a relation set."""
        memo = self._conv_memo
        got = memo.get(rels)
        if got is None:
            got = 0
            conv = self.converse
            for r in iter_bits(rels):
                got |= 1 << conv[r]
            memo[rels] = got
        return got

    @cached_property
    def row_union_tables(self) -> RowUnionTables:
        """The propagation lookup tables; needs at most ``MAX_TABLE_RELATIONS``
        relations."""
        k = len(self.relations)
        if k > MAX_TABLE_RELATIONS:
            raise CalculusError(f"calculus {self.name!r} has {k} relations; row-union "
                                f"tables support at most {MAX_TABLE_RELATIONS}")
        table = np.array(self.table, dtype=np.int16)
        conv_ids = np.array(self.converse, dtype=np.intp)
        conv = _mask_unions(np.left_shift(1, conv_ids).astype(np.int16))
        fwd = _mask_unions(table)
        # mirrored cell [a, b] = converse(c(converse b, converse a))
        mir = _mask_unions(conv[table[conv_ids[None, :], conv_ids[:, None]]])
        for array in (fwd, mir, conv):
            array.setflags(write=False)
        return RowUnionTables(fwd, mir, conv)

    @cached_property
    def forbidden_flat(self) -> np.ndarray:
        """Read-only flat bool array: entry ``(r1 * K + r2) * K + r3`` is True
        iff ``r3`` is not in the table cell ``c(r1, r2)``."""
        table = np.array(self.table, dtype=np.int64)
        forbidden = ((table[:, :, None] >> np.arange(self.n_relations)) & 1 == 0).ravel()
        forbidden.setflags(write=False)
        return forbidden

    @cached_property
    def has_unique_converse(self) -> bool:
        """True iff for each r, {r' : eq in c(r, r')} is exactly {converse(r)}.

        This law is what lets a constraint network store only one domain per
        unordered element pair; the solver refuses calculi without it.
        """
        eq_bit = 1 << self.equality
        for r in range(len(self.relations)):
            partners = [r2 for r2 in range(len(self.relations)) if self.table[r][r2] & eq_bit]
            if partners != [self.converse[r]]:
                return False
        return True

    @cached_property
    def diagonal_consistent(self) -> bool:
        """Whether eq itself survives the degenerate triple (x, x, x)."""
        return bool(self.table[self.equality][self.equality] & (1 << self.equality))

    @cached_property
    def base_label_mask(self) -> RelationSet:
        """Relations that can label a pair of distinct elements in some model.

        A label r needs converse(converse(r)) = r plus survival of the four
        degenerate triples (x,x,y), (x,y,y), (x,y,x) and (y,x,y).  For a
        law-abiding calculus this is the full set; restricting the initial
        domains to it keeps the solver sound on tables that break the
        identity or involution laws.
        """
        eq = self.equality
        eq_bit = 1 << eq
        mask = 0
        for r in range(len(self.relations)):
            rc = self.converse[r]
            bit = 1 << r
            cbit = 1 << rc
            if (self.converse[rc] == r
                    and self.table[eq][r] & bit
                    and self.table[r][eq] & bit
                    and self.table[eq][rc] & cbit
                    and self.table[rc][eq] & cbit
                    and self.table[r][rc] & eq_bit
                    and self.table[rc][r] & eq_bit):
                mask |= bit
        return mask


# -- validation -------------------------------------------------------------


@dataclass(frozen=True)
class LawViolation:
    law: str
    where: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the calculus laws; empty means valid."""

    calculus: str
    violations: tuple[LawViolation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def for_law(self, law: str) -> tuple[LawViolation, ...]:
        return tuple(v for v in self.violations if v.law == law)

    def format(self) -> str:
        if self.ok:
            return f"calculus {self.calculus!r}: all laws hold"
        lines = [f"calculus {self.calculus!r}: {len(self.violations)} violation(s)"]
        for v in self.violations:
            lines.append(f"  [{v.law}] ({', '.join(v.where)}): {v.message}")
        return "\n".join(lines)


LAW_NON_EMPTY = "non-empty-cell"
LAW_IDENTITY = "identity"
LAW_INVOLUTION = "converse-involution"
LAW_UNIQUENESS = "converse-uniqueness"
LAW_CONV_COMP = "converse-composition"


def validate_calculus(calc: Calculus) -> ValidationReport:
    """Check the calculus laws and report every violating cell.

    Violations are data, not exceptions: the report doubles as a debugging
    aid when authoring a new composition table.
    """
    bad: list[LawViolation] = []
    n = calc.n_relations
    names = calc.relations
    eq = calc.equality
    eq_bit = 1 << eq

    for r1 in range(n):
        for r2 in range(n):
            if calc.table[r1][r2] == 0:
                bad.append(LawViolation(LAW_NON_EMPTY, (names[r1], names[r2]), "cell is empty"))

    for r in range(n):
        want = 1 << r
        if calc.table[eq][r] != want:
            bad.append(LawViolation(
                LAW_IDENTITY, (names[eq], names[r]),
                f"c(eq, {names[r]}) = {{{', '.join(calc.names_of(calc.table[eq][r]))}}}, expected {{{names[r]}}}"))
        if calc.table[r][eq] != want:
            bad.append(LawViolation(
                LAW_IDENTITY, (names[r], names[eq]),
                f"c({names[r]}, eq) = {{{', '.join(calc.names_of(calc.table[r][eq]))}}}, expected {{{names[r]}}}"))

    for r in range(n):
        if calc.converse[calc.converse[r]] != r:
            bad.append(LawViolation(
                LAW_INVOLUTION, (names[r],),
                f"converse(converse({names[r]})) = {names[calc.converse[calc.converse[r]]]}"))
    if calc.converse[eq] != eq:
        bad.append(LawViolation(
            LAW_INVOLUTION, (names[eq],),
            f"converse of the equality relation is {names[calc.converse[eq]]}"))

    for r in range(n):
        partners = [r2 for r2 in range(n) if calc.table[r][r2] & eq_bit]
        if partners != [calc.converse[r]]:
            got = ", ".join(names[p] for p in partners) or "nothing"
            bad.append(LawViolation(
                LAW_UNIQUENESS, (names[r],),
                f"eq appears in c({names[r]}, r') for r' in {{{got}}}, expected exactly "
                f"{{{names[calc.converse[r]]}}}"))

    for r1 in range(n):
        for r2 in range(n):
            lhs = calc.converse_set(calc.table[r1][r2])
            rhs = calc.table[calc.converse[r2]][calc.converse[r1]]
            if lhs != rhs:
                bad.append(LawViolation(
                    LAW_CONV_COMP, (names[r1], names[r2]),
                    f"c({names[r1]},{names[r2]})^conv = {{{', '.join(calc.names_of(lhs))}}} but "
                    f"c({names[calc.converse[r2]]},{names[calc.converse[r1]]}) = "
                    f"{{{', '.join(calc.names_of(rhs))}}}"))

    return ValidationReport(calc.name, tuple(bad))


# -- built-in calculi ---------------------------------------------------------

TC6_RELATIONS = ("eq", "alt", "s", "f", "i", "dis")

_TC6_TABLE = {
    "eq":  {"eq": "eq", "alt": "alt", "s": "s", "f": "f", "i": "i", "dis": "dis"},
    "alt": {"eq": "alt", "alt": "eq alt", "s": "s", "f": "f", "i": "i dis", "dis": "i dis"},
    "s":   {"eq": "s", "alt": "s", "s": "eq alt s", "f": "i dis", "i": "f i dis", "dis": "f i dis"},
    "f":   {"eq": "f", "alt": "f", "s": "i dis", "f": "eq alt f", "i": "s i dis", "dis": "s i dis"},
    "i":   {"eq": "i", "alt": "i dis", "s": "f i dis", "f": "s i dis",
            "i": "eq alt s f i dis", "dis": "alt s f i dis"},
    "dis": {"eq": "dis", "alt": "i dis", "s": "f i dis", "f": "s i dis",
            "i": "alt s f i dis", "dis": "eq alt s f i dis"},
}

TC10_RELATIONS = ("eq", "rev", "alt", "ret", "s", "f", "ex", "exi", "i", "dis")

_TC10_TABLE = {
    "eq":  {"eq": "eq", "rev": "rev", "alt": "alt", "ret": "ret", "s": "s", "f": "f",
            "ex": "ex", "exi": "exi", "i": "i", "dis": "dis"},
    "rev": {"eq": "rev", "rev": "eq", "alt": "ret", "ret": "alt", "s": "exi", "f": "ex",
            "ex": "f", "exi": "s", "i": "i", "dis": "dis"},
    "alt": {"eq": "alt", "rev": "ret", "alt": "eq alt", "ret": "rev ret", "s": "s", "f": "f",
            "ex": "ex", "exi": "exi", "i": "i dis", "dis": "i dis"},
    "ret": {"eq": "ret", "rev": "alt", "alt": "rev ret", "ret": "eq alt", "s": "exi", "f": "ex",
            "ex": "f", "exi": "s", "i": "i dis", "dis": "i dis"},
    "s":   {"eq": "s", "rev": "ex", "alt": "s", "ret": "ex", "s": "eq alt s", "f": "exi i dis",
            "ex": "rev ret ex", "exi": "f i dis", "i": "f exi i dis", "dis": "f exi i dis"},
    "f":   {"eq": "f", "rev": "exi", "alt": "f", "ret": "exi", "s": "ex i dis", "f": "eq alt f",
            "ex": "s i dis", "exi": "rev ret exi", "i": "s ex i dis", "dis": "s ex i dis"},
    "ex":  {"eq": "ex", "rev": "s", "alt": "ex", "ret": "s", "s": "f i dis", "f": "rev ret ex",
            "ex": "exi i dis", "exi": "eq alt s", "i": "f exi i dis", "dis": "f exi i dis"},
    "exi": {"eq": "exi", "rev": "f", "alt": "exi", "ret": "f", "s": "rev ret exi", "f": "s i dis",
            "ex": "eq alt f", "exi": "ex i dis", "i": "s ex i dis", "dis": "s ex i dis"},
    "i":   {"eq": "i", "rev": "i", "alt": "i dis", "ret": "i dis", "s": "f ex i dis",
            "f": "s exi i dis", "ex": "s exi i dis", "exi": "f ex i dis",
            "i": "eq rev alt ret s f ex exi i dis", "dis": "alt ret s f ex exi i dis"},
    "dis": {"eq": "dis", "rev": "dis", "alt": "i dis", "ret": "i dis", "s": "f ex i dis",
            "f": "s exi i dis", "ex": "s exi i dis", "exi": "f ex i dis",
            "i": "alt ret s f ex exi i dis", "dis": "eq rev alt ret s f ex exi i dis"},
}


def _build(name: str, relations: tuple[str, ...], table_spec: dict[str, dict[str, str]],
           converse_pairs: dict[str, str]) -> Calculus:
    ids = {sym: i for i, sym in enumerate(relations)}
    conv = list(range(len(relations)))
    for a, b in converse_pairs.items():
        conv[ids[a]] = ids[b]
        conv[ids[b]] = ids[a]
    table = tuple(
        tuple(
            sum(1 << ids[sym] for sym in table_spec[r1][r2].split())
            for r2 in relations
        )
        for r1 in relations
    )
    return Calculus(name=name, relations=relations, equality=ids["eq"],
                    converse=tuple(conv), table=table)


@lru_cache(maxsize=None)
def builtin_tc6() -> Calculus:
    """The 6-relation trajectory calculus; every relation is its own converse."""
    return _build("tc6", TC6_RELATIONS, _TC6_TABLE, {})


@lru_cache(maxsize=None)
def builtin_tc10() -> Calculus:
    """The 10-relation trajectory calculus; ex/exi are mutual converses."""
    return _build("tc10", TC10_RELATIONS, _TC10_TABLE, {"ex": "exi"})


def builtin(name: str) -> Calculus | None:
    if name == "tc6":
        return builtin_tc6()
    if name == "tc10":
        return builtin_tc10()
    return None


# -- file format --------------------------------------------------------------
#
# UTF-8 JSON object:
#   name       string
#   relations  array of strings, order significant
#   equality   string
#   converse   object mapping every relation to its converse
#   table      array of [r1, r2, [out, ...]] covering every ordered pair once
#
# Canonical save order: relations in declaration order, table row-major.


def save_calculus(calc: Calculus) -> str:
    doc = {
        "name": calc.name,
        "relations": list(calc.relations),
        "equality": calc.relations[calc.equality],
        "converse": {sym: calc.relations[calc.converse[i]] for i, sym in enumerate(calc.relations)},
        "table": [
            [calc.relations[r1], calc.relations[r2], list(calc.names_of(calc.table[r1][r2]))]
            for r1 in range(calc.n_relations)
            for r2 in range(calc.n_relations)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_calculus(text: str) -> Calculus:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CalculusError(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise CalculusError("calculus file must contain a JSON object")

    try:
        name = doc["name"]
        relations = doc["relations"]
        equality = doc["equality"]
        converse = doc["converse"]
        table = doc["table"]
    except KeyError as exc:
        raise CalculusError(f"missing key {exc.args[0]!r}") from None

    if not isinstance(relations, list) or not all(isinstance(r, str) for r in relations):
        raise CalculusError("'relations' must be an array of strings")
    ids = {}
    for sym in relations:
        if sym in ids:
            raise CalculusError(f"duplicate relation symbol {sym!r}")
        ids[sym] = len(ids)
    if equality not in ids:
        raise CalculusError(f"unknown equality symbol {equality!r}")

    if not isinstance(converse, dict):
        raise CalculusError("'converse' must be an object")
    conv = [None] * len(relations)
    for a, b in converse.items():
        if a not in ids:
            raise CalculusError(f"converse mentions unknown symbol {a!r}")
        if b not in ids:
            raise CalculusError(f"converse of {a!r} is unknown symbol {b!r}")
        conv[ids[a]] = ids[b]
    for sym in relations:
        if conv[ids[sym]] is None:
            raise CalculusError(f"converse missing entry for {sym!r}")
    for sym in relations:
        i = ids[sym]
        if conv[conv[i]] != i:
            raise CalculusError(
                f"converse is not an involution: {sym!r} -> {relations[conv[i]]!r} "
                f"-> {relations[conv[conv[i]]]!r}")

    cells: dict[tuple[int, int], RelationSet] = {}
    if not isinstance(table, list):
        raise CalculusError("'table' must be an array of [r1, r2, [out, ...]] triples")
    for entry in table:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise CalculusError(f"bad table entry {entry!r}")
        r1, r2, outs = entry
        for sym in (r1, r2):
            if sym not in ids:
                raise CalculusError(f"table mentions unknown symbol {sym!r}")
        key = (ids[r1], ids[r2])
        if key in cells:
            raise CalculusError(f"duplicate table cell ({r1},{r2})")
        if not isinstance(outs, list) or not outs:
            raise CalculusError(f"empty table cell ({r1},{r2})")
        mask = 0
        for sym in outs:
            if sym not in ids:
                raise CalculusError(f"table cell ({r1},{r2}) mentions unknown symbol {sym!r}")
            mask |= 1 << ids[sym]
        cells[key] = mask
    for i, s1 in enumerate(relations):
        for j, s2 in enumerate(relations):
            if (i, j) not in cells:
                raise CalculusError(f"missing table cell ({s1},{s2})")

    dense = tuple(tuple(cells[(i, j)] for j in range(len(relations))) for i in range(len(relations)))
    return Calculus(name=str(name), relations=tuple(relations), equality=ids[equality],
                    converse=tuple(conv), table=dense)
