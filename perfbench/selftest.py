"""Self-tests of the output checks: each must accept a correct output and
reject a deliberately corrupted one.

Every benchmark run calls :func:`run_all` and reports ``correct: false`` if a
check fails to tell the two apart.  Run alone with
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import re
import shutil
import sys
import tempfile
from pathlib import Path

from env import OUT_DIR  # first: puts the checkout's src/ on the path

import trajcalc.asp as asp
import trajcalc.bench as bench
import trajcalc.solver as solver

import checks
import workloads


def _expect(name: str, clean: list[str], corrupted: list[str]) -> list[str]:
    out = []
    if clean:
        out.append(f"self-test {name}: the correct output was rejected: {clean[:2]}")
    if not corrupted:
        out.append(f"self-test {name}: the corrupted output was accepted")
    return out


def model_with_one_relation_flipped() -> list[str]:
    mode, n = "tc10", 12
    trajs = bench.synthetic_trajectories(mode, n, 7)
    inst = bench.revealed_instance(mode, trajs, bench.reveal_pairs_exp1(n, 7))
    item = workloads._Instance("self-test", mode, trajs, inst)
    exp1 = workloads.Exp1(0, None)
    model = solver.solve(inst)
    clean = item.truth_problems() + exp1.check(item, model)
    x, y, rid = item.constraint_ids()[0]
    values = list(model.values)
    pos = next(p for p, (pair, _) in enumerate(model.items()) if set(pair) == {x, y})
    values[pos] = (values[pos] + 1) % inst.calculus.n_relations
    flipped = solver.Assignment(inst.calculus, inst.elements, tuple(values))
    return _expect("model", clean, exp1.check(item, flipped))


def relations_row_with_wrong_relation(work_dir: Path) -> list[str]:
    rel = workloads.Relations(0, work_dir)
    item = workloads._PointsFile(work_dir, "small", 15, "self-test")
    traj_text, relations_text = rel.read_output(rel.operation(item, 0))
    clean = rel.check(item, (traj_text, relations_text))
    lines = relations_text.splitlines()
    a, b, name = lines[1].split(",")
    lines[1] = f"{a},{b},{'i' if name == 'dis' else 'dis'}"
    problems = _expect("relations row", clean, rel.check(item, (traj_text, "\n".join(lines))))
    # a trajectory that stays in one cell for two steps
    first, *rest = traj_text.splitlines()
    head, cells = first.split(":")
    cells = cells.split()
    stuttering = "\n".join([f"{head}: {cells[0]} {' '.join(cells)}", *rest])
    return problems + _expect("ingest", [], rel.check(item, (stuttering, relations_text)))


def _states_table_cell(kind: str, line: str) -> bool:
    if kind == "gen":
        return line.startswith("table(")
    if kind == "coi7":
        return " :- " in line and not line.startswith(("{", ":-")) and "traj(" not in line
    return line.startswith(":- ") and "not " in line


def facts_with_one_fact_dropped() -> list[str]:
    problems = []
    for mode in ("tc6", "tc10"):
        n = 10
        trajs = bench.synthetic_trajectories(mode, n, 11)
        inst = bench.revealed_instance(mode, trajs, bench.reveal_pairs_exp2(n, n - 1, 11))
        calc = inst.calculus
        known = [(c.x, c.y, c.rels.bit_length() - 1) for c in inst.constraints]
        for kind in asp.ENCODINGS:
            lines = asp.emit_instance_facts(inst, kind).lines
            clean = checks.check_facts(calc, inst.elements, known, kind, "\n".join(lines))
            dropped = checks.check_facts(calc, inst.elements, known, kind, "\n".join(lines[:-1]))
            problems += _expect(f"{kind} facts", clean, dropped)
            # an element named like an ASP variable is not a ground term
            renamed = re.sub(r"(?<=[(,])1(?=[,)])", "T1", "\n".join(lines))
            problems += _expect(f"{kind} ground terms", [],
                                checks.check_facts(calc, inst.elements, known, kind, renamed))
            program = asp.emit_program(calc, kind).lines
            first = next(i for i, line in enumerate(program) if _states_table_cell(kind, line))
            tampered = program[:first] + program[first + 1:]
            problems += _expect(f"{kind} program", checks.check_program(calc, kind, "\n".join(program)),
                                checks.check_program(calc, kind, "\n".join(tampered)))
    return problems


def run_all() -> list[str]:
    """Problems found; empty when every check passed its self-test."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR))
    try:
        return (model_with_one_relation_flipped()
                + relations_row_with_wrong_relation(work_dir)
                + facts_with_one_fact_dropped())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    found = run_all()
    for line in found:
        print(line)
    print("self-tests passed" if not found else f"{len(found)} self-test(s) failed")
    sys.exit(1 if found else 0)
