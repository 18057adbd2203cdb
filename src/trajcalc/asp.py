"""ASP program generation for qualitative calculi.

Four encoding families are emitted as plain program text:

* ``coi7``  -- choice rule over all relation atoms with ``X!=Z``, one
  predicate per converse pair, disjunctive rules for table cells of up to
  seven relations and exclusion integrity constraints above that, plus
  pairwise-disjointness integrity constraints;
* ``ctsa``  -- antisymmetric choice rule (``X<Y``), two predicates per
  converse pair bridged by two rules, and one simplified negative integrity
  constraint per table cell;
* ``ctsa2`` -- ``ctsa`` with known relations kept out of the choice rule via
  a ``#count`` guard and re-introduced through ``fact/3``;
* ``gen``   -- a fixed four-rule core driven entirely by ``relation/1`` and
  ``table/3`` facts, applicable to any calculus.

Output is deterministic: table-driven rules follow row-major table order and
cell members follow relation declaration order.  For the two bundled calculi
the choice-rule atom order and a handful of argument-order conventions follow
the previously published program text so that byte-level golden comparisons
hold; other calculi fall back to declaration order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .calculus import Calculus, RelationId, iter_bits
from .solver import Instance

ENCODINGS = ("coi7", "ctsa", "ctsa2", "gen")

# Disjunctive rules are emitted for table cells with at most this many
# relations; larger cells become exclusion integrity constraints.
COI7_DISJUNCTION_LIMIT = 7


class EmitError(ValueError):
    pass


@dataclass(frozen=True)
class ProgramText:
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def __iter__(self):
        return iter(self.lines)


# Published layout conventions for the bundled calculi.
_CHOICE_ORDER = {
    "tc6": ("s", "f", "alt", "i", "eq", "dis"),
    "tc10": ("s", "f", "ex", "exi", "alt", "ret", "rev", "i", "eq", "dis"),
}
# COI7 writes these (all symmetric) relations with flipped arguments.
_COI7_FLIPPED = {
    "tc6": frozenset({"eq", "alt", "dis"}),
}
_COI7_CHOICE_VARS = {
    "tc10": ("X", "Z"),
}


def _choice_order(calc: Calculus) -> tuple[RelationId, ...]:
    names = _CHOICE_ORDER.get(calc.name)
    if names is not None and set(names) == set(calc.relations):
        return tuple(calc.rel_id(n) for n in names)
    return tuple(range(calc.n_relations))


def _coi7_representative(calc: Calculus, rid: RelationId) -> tuple[RelationId, bool]:
    """Predicate used for ``rid`` in COI7 and whether its arguments swap."""
    conv = calc.converse[rid]
    if conv == rid or rid < conv:
        return rid, False
    return conv, True


def _coi7_atom(calc: Calculus, rid: RelationId, a: str, b: str, flip: bool = True) -> str:
    rep, swap = _coi7_representative(calc, rid)
    if flip and calc.relations[rep] in _COI7_FLIPPED.get(calc.name, frozenset()):
        swap = not swap
    if swap:
        a, b = b, a
    return f"{calc.relations[rep]}({a},{b})"


def emit_program(calc: Calculus, kind: str) -> ProgramText:
    """The complete encoding of a calculus, one rule or fact per line."""
    if kind == "gen":
        return _emit_gen(calc)
    if kind == "coi7":
        return _emit_coi7(calc)
    if kind == "ctsa":
        return _emit_ctsa(calc, known_facts=False)
    if kind == "ctsa2":
        return _emit_ctsa(calc, known_facts=True)
    raise EmitError(f"unknown encoding {kind!r}, expected one of {ENCODINGS}")


def _emit_coi7(calc: Calculus) -> ProgramText:
    eq = calc.relations[calc.equality]
    v1, v2 = _COI7_CHOICE_VARS.get(calc.name, ("X", "Y"))
    order = _choice_order(calc)
    # The argument-flip convention applies to table rules and disjointness
    # constraints only; choice atoms always read (v1, v2).
    choice = "; ".join(_coi7_atom(calc, r, v1, v2, flip=False) for r in order)
    lines = [
        f"{{{choice}}}=1 :- traj({v1}), traj({v2}), {v1}!={v2}.",
        f"{eq}(X,X) :- traj(X).",
    ]
    for r1 in range(calc.n_relations):
        body = f"{_coi7_atom(calc, r1, 'X', 'Y')}, "
        for r2 in range(calc.n_relations):
            cell = calc.table[r1][r2]
            rule_body = body + _coi7_atom(calc, r2, "Y", "Z")
            members = list(iter_bits(cell))
            if len(members) <= COI7_DISJUNCTION_LIMIT:
                heads = " | ".join(_coi7_atom(calc, out, "X", "Z") for out in members)
                lines.append(f"{heads} :- {rule_body}.")
            else:
                for out in range(calc.n_relations):
                    if not (cell >> out) & 1:
                        lines.append(f":- {_coi7_atom(calc, out, 'X', 'Z')}, {rule_body}.")
    for r1 in order:
        for r2 in order:
            if r1 != r2:
                lines.append(f":- {_coi7_atom(calc, r1, 'X', 'Z')}, {_coi7_atom(calc, r2, 'X', 'Z')}.")
    return ProgramText(tuple(lines))


def _emit_ctsa(calc: Calculus, known_facts: bool) -> ProgramText:
    eq = calc.relations[calc.equality]
    order = _choice_order(calc)
    choice = "; ".join(f"{calc.relations[r]}(X,Y)" for r in order)
    guard = ", #count{R : fact(R,X,Y)} = 0" if known_facts else ""
    lines = [
        f"{{{choice}}}=1 :- traj(X), traj(Y), X<Y{guard}.",
        f"{eq}(X,X) :- traj(X).",
    ]
    for r1 in range(calc.n_relations):
        n1 = calc.relations[r1]
        for r2 in range(calc.n_relations):
            n2 = calc.relations[r2]
            negs = ", ".join(f"not {calc.relations[out]}(X,Z)"
                             for out in iter_bits(calc.table[r1][r2]))
            lines.append(f":- {n1}(X,Y), {n2}(Y,Z), {negs}.")
    for r in range(calc.n_relations):
        conv = calc.converse[r]
        if r < conv:
            a, b = calc.relations[r], calc.relations[conv]
            lines.append(f"{b}(X,Y) :- {a}(Y,X), Y<X.")
            lines.append(f"{a}(X,Y) :- {b}(Y,X), Y<X.")
    if known_facts:
        for r in range(calc.n_relations):
            name = calc.relations[r]
            lines.append(f"{name}(X,Y) :- fact({name},X,Y).")
    return ProgramText(tuple(lines))


def _emit_gen(calc: Calculus) -> ProgramText:
    eq = calc.relations[calc.equality]
    lines = [
        "{true(X,R,Y) : relation(R)} = 1 :- element(X); element(Y); X != Y.",
        f"true(X,{eq},X) :- element(X).",
        ":- true(X,R1,Y); true(Y,R2,Z); not true(X,Rout,Z) : table(R1,R2,Rout).",
        ":- possible(X,_,Y); not true(X,R,Y) : possible(X,R,Y).",
        f"relation({'; '.join(calc.relations)}).",
    ]
    for r1 in range(calc.n_relations):
        for r2 in range(calc.n_relations):
            outs = ";".join(calc.names_of(calc.table[r1][r2]))
            lines.append(f"table({calc.relations[r1]}, {calc.relations[r2]}, ({outs})).")
    return ProgramText(tuple(lines))


# -- instance facts --------------------------------------------------------------


# The element names a fact can carry as they are: a clingo symbolic constant
# or a non-negative integer without leading zeros.  Anything else would be a
# variable (``T1``), a syntax error (``a b``) or a different term (``007``).
_GROUND_NAME = re.compile(r"_*[a-z][A-Za-z0-9_']*|0|[1-9][0-9]*")


def _term_key(name: str):
    # clingo orders integer constants numerically; everything else we order
    # lexicographically, matching the symbolic-constant case
    return (0, int(name), "") if name.isdigit() else (1, 0, name)


def emit_instance_facts(inst: Instance, kind: str) -> ProgramText:
    """Facts describing one instance, matched to the encoding's conventions.

    ``gen`` takes arbitrary constraints; the other encodings expect one known
    relation per constrained pair, i.e. singleton relation sets.
    """
    if kind not in ENCODINGS:
        raise EmitError(f"unknown encoding {kind!r}, expected one of {ENCODINGS}")
    for name in inst.elements:
        if not _GROUND_NAME.fullmatch(name):
            raise EmitError(f"element name {name!r} is neither an ASP constant "
                            "(lowercase first letter) nor an integer without leading zeros")
    calc = inst.calculus
    if kind == "gen":
        lines = [f"element({e})." for e in inst.elements]
        merged: dict[tuple[str, str], int] = {}
        for c in inst.constraints:
            key = (c.x, c.y)
            merged[key] = merged.get(key, calc.full_set) & c.rels
        for (x, y), mask in merged.items():
            if mask == 0:
                # contradictory constraints on one ordered pair: rule the
                # pair out entirely
                for name in calc.relations:
                    lines.append(f":- true({x},{name},{y}).")
            else:
                for name in calc.names_of(mask):
                    lines.append(f"possible({x},{name},{y}).")
        return ProgramText(tuple(lines))

    lines = [f"traj({e})." for e in inst.elements]
    chosen: dict[tuple[str, str], RelationId] = {}
    for c in inst.constraints:
        if c.rels.bit_count() != 1:
            raise EmitError(f"{kind.upper()} requires singleton constraints; "
                            f"({c.x},{c.y}) allows {c.rels.bit_count()}")
        rid = c.rels.bit_length() - 1
        x, y = c.x, c.y
        if kind in ("ctsa", "ctsa2") and _term_key(y) < _term_key(x):
            x, y = y, x
            rid = calc.converse[rid]
        key = (x, y)
        if key in chosen:
            if chosen[key] != rid:
                raise EmitError(f"conflicting known relations for pair ({x},{y})")
        else:
            chosen[key] = rid

    for (x, y), rid in chosen.items():
        if kind == "ctsa2":
            lines.append(f"fact({calc.relations[rid]},{x},{y}).")
        elif kind == "ctsa":
            lines.append(f"{calc.relations[rid]}({x},{y}).")
        else:  # coi7: converse-pair representative, original pair order
            lines.append(f"{_coi7_atom(calc, rid, x, y)}.")
    return ProgramText(tuple(lines))


def normalize_line(line: str) -> str:
    """Whitespace-insensitive form of a rule line, for golden comparisons."""
    return "".join(line.split())


def program_contains(program: ProgramText, line: str) -> bool:
    want = normalize_line(line)
    return any(normalize_line(have) == want for have in program.lines)
