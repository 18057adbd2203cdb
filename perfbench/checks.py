"""Output checks, kept apart from the code under test.

Every check returns a list of problems; an empty list means the output is
correct.  The checks use only the calculus data (relations, converse map,
composition table), ``trajcalc.oracle.relations_holding`` for ground truth,
and facts the benchmark knows because it generated the input.  None of them
calls ``solver.verify_assignment`` or compares against stored output.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, Sequence

import numpy as np

from trajcalc.oracle import relations_holding

_MAX_REPORTED = 5


def _allowed(calc) -> np.ndarray:
    k = calc.n_relations
    allowed = np.zeros((k, k, k), dtype=bool)
    for r1 in range(k):
        for r2 in range(k):
            for r3 in range(k):
                allowed[r1, r2, r3] = bool((calc.table[r1][r2] >> r3) & 1)
    return allowed


# -- models ----------------------------------------------------------------------


def model_matrix(elements: Sequence[str], of: Callable[[str, str], int]) -> np.ndarray:
    """The ordered-pair relation matrix of a model, read pair by pair."""
    n = len(elements)
    matrix = np.empty((n, n), dtype=np.int16)
    for i, x in enumerate(elements):
        row = matrix[i]
        for j, y in enumerate(elements):
            row[j] = of(x, y)
    return matrix


def check_model(calc, elements: Sequence[str], matrix: np.ndarray,
                constraints: Sequence[tuple[str, str, int]]) -> list[str]:
    """Diagonal, converse pairs, every ordered triple, every constraint.

    ``constraints`` holds ``(x, y, relation id)`` triples that must hold.
    """
    problems: list[str] = []
    n = len(elements)
    k = calc.n_relations
    if matrix.shape != (n, n) or matrix.min() < 0 or matrix.max() >= k:
        return [f"model matrix has shape {matrix.shape} or ids outside 0..{k - 1}"]
    diag = np.flatnonzero(np.diagonal(matrix) != calc.equality)
    problems += [f"diagonal of {elements[i]} is not eq" for i in diag[:_MAX_REPORTED]]
    conv = np.array(calc.converse, dtype=np.int16)
    for i, j in np.argwhere(matrix.T != conv[matrix])[:_MAX_REPORTED]:
        problems.append(f"({elements[i]},{elements[j]}) is not the converse of its reverse")
    allowed = _allowed(calc)
    for x in range(n):
        row = matrix[x]
        bad = ~allowed[row[:, None], matrix, row[None, :]]
        if bad.any():
            y, z = np.argwhere(bad)[0]
            problems.append(f"triple ({elements[x]},{elements[y]},{elements[z]}) breaks the table")
            if len(problems) >= _MAX_REPORTED:
                break
    ids = {name: i for i, name in enumerate(elements)}
    for x, y, rid in constraints:
        got = int(matrix[ids[x], ids[y]])
        if got != rid:
            problems.append(f"({x},{y}) is {calc.relations[got]}, expected {calc.relations[rid]}")
            if len(problems) >= 2 * _MAX_REPORTED:
                break
    return problems


def truth_matrix(calc, mode: str, trajectories: Sequence) -> tuple[np.ndarray, list[str]]:
    """Relation of every ordered pair from the literal definitions in the oracle."""
    n = len(trajectories)
    matrix = np.full((n, n), calc.equality, dtype=np.int16)
    problems: list[str] = []
    for i, a in enumerate(trajectories):
        for j, b in enumerate(trajectories):
            if i == j:
                continue
            holding = relations_holding(mode, a, b)
            if len(holding) != 1:
                problems.append(f"({a.id},{b.id}) satisfies {holding}, not exactly one relation")
                continue
            matrix[i, j] = calc.rel_id(holding[0])
    return matrix, problems


# -- ASP text --------------------------------------------------------------------

_FACT = re.compile(r"^([a-z][A-Za-z0-9_]*)\(([^()]*)\)\.$")
_GROUND = re.compile(r"^(-?[0-9]+|[a-z][A-Za-z0-9_]*)$")
_ATOM = re.compile(r"([a-z][A-Za-z0-9_]*)\(([A-Z]),([A-Z])\)")


def asp_order_key(term: str):
    """clingo's order of constants: integers numerically, before symbols."""
    return (0, int(term), "") if re.fullmatch(r"-?[0-9]+", term) else (1, 0, term)


def parse_facts(text: str) -> tuple[list[tuple[str, tuple[str, ...]]], list[str]]:
    """``pred(args).`` lines with ground arguments only."""
    facts, problems = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        m = _FACT.match(line.strip())
        if m is None:
            problems.append(f"line {line_no}: not a fact: {line!r}")
            continue
        args = tuple(a.strip() for a in m.group(2).split(","))
        if not all(_GROUND.match(a) for a in args):
            problems.append(f"line {line_no}: non-ground argument in {line!r}")
            continue
        facts.append((m.group(1), args))
    return facts, problems


def check_facts(calc, elements: Sequence[str], constraints: Sequence[tuple[str, str, int]],
                kind: str, text: str) -> list[str]:
    """Facts of one encoding parse back to exactly the instance.

    ``gen`` keeps each constraint's pair order (``possible(x,r,y)``).  The
    other encodings state one known relation per pair: ``ctsa`` as
    ``r(x,y)`` and ``ctsa2`` as ``fact(r,x,y)``, both with ``x < y`` in
    clingo's term order; ``coi7`` as ``p(a,b)`` where ``p`` is the lower id
    of its converse pair.  An atom ``r(a,b)`` always means ``r`` holds from
    ``a`` to ``b``.
    """
    facts, problems = parse_facts(text)
    elem_pred = "element" if kind == "gen" else "traj"
    got_elements = [args[0] for pred, args in facts if pred == elem_pred and len(args) == 1]
    if sorted(got_elements) != sorted(elements):
        problems.append(f"{kind}: element facts do not match the instance "
                        f"({len(got_elements)} facts, {len(elements)} elements)")
    index = {name: i for i, name in enumerate(elements)}
    ids = {name: r for r, name in enumerate(calc.relations)}

    def canonical(x: str, y: str, rid: int) -> tuple[str, str, int]:
        return (x, y, rid) if index[x] < index[y] else (y, x, calc.converse[rid])

    stated: list[tuple[str, str, int]] = []
    for pred, args in facts:
        if pred == elem_pred and len(args) == 1:
            continue
        if kind == "gen" and pred == "possible" and len(args) == 3:
            x, name, y = args
        elif kind == "ctsa2" and pred == "fact" and len(args) == 3:
            name, x, y = args
        elif kind in ("ctsa", "coi7") and len(args) == 2:
            name, (x, y) = pred, args
        else:
            problems.append(f"{kind}: unexpected fact {pred}({','.join(args)})")
            continue
        if name not in ids or x not in index or y not in index or x == y:
            problems.append(f"{kind}: fact on unknown relation or element: {name}({x},{y})")
            continue
        rid = ids[name]
        if kind in ("ctsa", "ctsa2") and not asp_order_key(x) < asp_order_key(y):
            problems.append(f"{kind}: pair ({x},{y}) is not in ascending term order")
        if kind == "coi7" and calc.converse[rid] < rid:
            problems.append(f"{kind}: {name} is not the representative of its converse pair")
        stated.append((x, y, rid))
    if kind == "gen":
        want, have = sorted(constraints), sorted(stated)
    else:
        want = sorted({canonical(*c) for c in constraints})
        have = sorted(canonical(*c) for c in stated)
    if have != want:
        missing = sorted(set(want) - set(have))[:_MAX_REPORTED]
        extra = sorted(set(have) - set(want))[:_MAX_REPORTED]
        problems.append(f"{kind}: {len(have)} constraint facts for {len(want)} constraints; "
                        f"missing {missing}, unexpected {extra}")
    return problems


def _decode_atom(calc, name: str, u: str, v: str, a: str, b: str) -> int:
    """Relation from ``a`` to ``b`` stated by the atom ``name(u,v)``."""
    rid = calc.rel_id(name)
    if (u, v) == (a, b):
        return rid
    if (u, v) == (b, a):
        return calc.converse[rid]
    raise ValueError(f"atom {name}({u},{v}) is not over ({a},{b})")


def program_table(calc, kind: str, text: str) -> list[list[int]]:
    """The composition table a program states, read back from its rules."""
    k = calc.n_relations
    full = (1 << k) - 1
    cells: dict[tuple[int, int], int] = {}
    for line in text.splitlines():
        if kind == "gen":
            m = re.fullmatch(r"table\((\w+), (\w+), \(([\w;]*)\)\)\.", line)
            if m:
                key = (calc.rel_id(m.group(1)), calc.rel_id(m.group(2)))
                cells[key] = calc.mask_of(m.group(3).split(";"))
            continue
        head, sep, body = line.partition(":-")
        if not sep:
            continue
        body_atoms = _ATOM.findall(body)
        if kind in ("ctsa", "ctsa2"):
            if head.strip() or "not " not in body:
                continue
            # :- A(X,Y), B(Y,Z), not O1(X,Z), ...
            r1 = _decode_atom(calc, *body_atoms[0], "X", "Y")
            r2 = _decode_atom(calc, *body_atoms[1], "Y", "Z")
            cells[(r1, r2)] = sum(1 << _decode_atom(calc, *o, "X", "Z") for o in body_atoms[2:])
        elif len(body_atoms) == 2 and head.strip():
            # coi7 disjunctive rule: h1 | h2 :- A(X,Y), B(Y,Z).
            r1 = _decode_atom(calc, *body_atoms[0], "X", "Y")
            r2 = _decode_atom(calc, *body_atoms[1], "Y", "Z")
            cells[(r1, r2)] = sum(1 << _decode_atom(calc, *h, "X", "Z")
                                  for h in _ATOM.findall(head))
        elif len(body_atoms) == 3 and not head.strip():
            # coi7 exclusion: :- O(X,Z), A(X,Y), B(Y,Z).
            out = _decode_atom(calc, *body_atoms[0], "X", "Z")
            r1 = _decode_atom(calc, *body_atoms[1], "X", "Y")
            r2 = _decode_atom(calc, *body_atoms[2], "Y", "Z")
            cells[(r1, r2)] = cells.get((r1, r2), full) & ~(1 << out)
    return [[cells.get((r1, r2), full if kind == "coi7" else 0) for r2 in range(k)]
            for r1 in range(k)]


def check_program(calc, kind: str, text: str) -> list[str]:
    try:
        table = program_table(calc, kind, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{kind} program: {exc!r}"]
    bad = [(calc.relations[r1], calc.relations[r2])
           for r1 in range(calc.n_relations) for r2 in range(calc.n_relations)
           if table[r1][r2] != calc.table[r1][r2]]
    return [f"{kind} program: table cells {bad[:_MAX_REPORTED]} differ from the calculus"] if bad else []


# -- ingest and relations --------------------------------------------------------


def parse_trajectory_file(text: str) -> dict[str, tuple[int, ...]]:
    out: dict[str, tuple[int, ...]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        head, _, tail = line.partition(":")
        out[head.strip()] = tuple(int(tok) for tok in tail.split())
    return out


def _is_subsequence(needle: Sequence[int], hay: Sequence[int]) -> bool:
    it = iter(hay)
    return all(any(cell == h for h in it) for cell in needle)


def check_ingest(rows: int, cols: int, fix_cells: Mapping[str, Sequence[int]],
                 ingested: Mapping[str, Sequence[int]]) -> list[str]:
    """Every object ingested as a valid tc10 chain through all its fixes."""
    problems: list[str] = []
    if set(ingested) != set(fix_cells):
        problems.append(f"ingested {len(ingested)} objects, the file has {len(fix_cells)}")
    for obj, cells in ingested.items():
        fixes = fix_cells.get(obj, ())
        why = None
        if any(not 0 <= c < rows * cols for c in cells):
            why = "cell outside the grid"
        elif len(cells) < 2 or cells[0] == cells[-1]:
            why = "starts and finishes in the same cell"
        elif any(a == b for a, b in zip(cells, cells[1:])):
            why = "repeats a cell"
        elif any(abs(a // cols - b // cols) > 1 or abs(a % cols - b % cols) > 1
                 for a, b in zip(cells, cells[1:])):
            why = "is not 8-connected"
        elif not fixes or cells[0] != fixes[0] or cells[-1] != fixes[-1]:
            why = "does not start and finish at its first and last fix"
        elif not _is_subsequence(fixes, cells):
            why = "misses the cell of a fix"
        if why:
            problems.append(f"trajectory {obj} {why}")
            if len(problems) >= _MAX_REPORTED:
                break
    return problems


def check_relations(mode: str, trajectories: Sequence, csv_text: str) -> list[str]:
    """Each unordered pair exactly once, with the oracle's single relation."""
    problems: list[str] = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != "id1,id2,relation":
        return ["relations output lacks the id1,id2,relation header"]
    by_id = {t.id: t for t in trajectories}
    seen: set[frozenset] = set()
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 3:
            problems.append(f"row {line!r} does not have three fields")
            continue
        a, b, rel = fields
        key = frozenset((a, b))
        if a == b or a not in by_id or b not in by_id:
            problems.append(f"row {line!r} names an unknown or repeated trajectory")
        elif key in seen:
            problems.append(f"pair ({a},{b}) appears twice")
        elif relations_holding(mode, by_id[a], by_id[b]) != [rel]:
            problems.append(f"row {line!r} disagrees with the oracle")
        seen.add(key)
        if len(problems) >= _MAX_REPORTED:
            return problems
    n = len(trajectories)
    if len(seen) != n * (n - 1) // 2:
        problems.append(f"{len(seen)} pairs listed, {n * (n - 1) // 2} expected")
    return problems
