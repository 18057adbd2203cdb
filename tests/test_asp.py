"""Golden checks for the four encodings.

The excerpt blocks below are reference program text the emitters must
reproduce line for line (whitespace-insensitively).  Each excerpt covers the
core rules plus the equality and finish relations; the remaining relations
follow the same generation schemes.  One reference line is a known erratum,
listed separately with its correction.
"""

import re

import pytest

from trajcalc.asp import (ENCODINGS, EmitError, ProgramText, emit_instance_facts, emit_program,
                          normalize_line, program_contains)
from trajcalc.solver import make_instance

COI7_TC6 = """
{s(X,Y); f(X,Y); alt(X,Y); i(X,Y); eq(X,Y); dis(X,Y)}=1 :- traj(X), traj(Y), X!=Y.
eq(X,X) :- traj(X).
eq(Z,X) :- eq(Y,X), eq(Z,Y).
f(X,Z) :- f(X,Y), eq(Z,Y).
alt(Z,X) :- eq(Y,X), alt(Z,Y).
f(X,Z) :- f(X,Y), alt(Z,Y).
s(X,Z) :- eq(Y,X), s(Y,Z).
i(X,Z) | dis(Z,X) :- f(X,Y), s(Y,Z).
f(X,Z) :- eq(Y,X), f(Y,Z).
eq(Z,X) | alt(Z,X) | f(X,Z) :- f(X,Y), f(Y,Z).
i(X,Z) :- eq(Y,X), i(Y,Z).
s(X,Z) | i(X,Z) | dis(Z,X) :- f(X,Y), i(Y,Z).
dis(Z,X) :- eq(Y,X), dis(Z,Y).
s(X,Z) | i(X,Z) | dis(Z,X) :- f(X,Y), dis(Z,Y).
:- eq(Z,X), s(X,Z).
:- f(X,Z), s(X,Z).
:- eq(Z,X), f(X,Z).
:- f(X,Z), alt(Z,X).
:- eq(Z,X), alt(Z,X).
:- f(X,Z), i(X,Z).
:- eq(Z,X), i(X,Z).
:- f(X,Z), eq(Z,X).
:- eq(Z,X), dis(Z,X).
:- f(X,Z), dis(Z,X).
"""

CTSA_TC6 = """
{s(X,Y); f(X,Y); alt(X,Y); i(X,Y); eq(X,Y); dis(X,Y)}=1 :- traj(X), traj(Y), X<Y.
eq(X,X) :- traj(X).
:- eq(X,Y), eq(Y,Z), not eq(X,Z).
:- f(X,Y), eq(Y,Z), not f(X,Z).
:- eq(X,Y), alt(Y,Z), not alt(X,Z).
:- f(X,Y), alt(Y,Z), not f(X,Z).
:- eq(X,Y), s(Y,Z), not s(X,Z).
:- f(X,Y), s(Y,Z), not i(X,Z), not dis(X,Z).
:- eq(X,Y), f(Y,Z), not f(X,Z).
:- f(X,Y), f(Y,Z), not eq(X,Z), not alt(X,Z), not f(X,Z).
:- eq(X,Y), i(Y,Z), not i(X,Z).
:- f(X,Y), i(Y,Z), not s(X,Z), not i(X,Z), not dis(X,Z).
:- eq(X,Y), dis(Y,Z), not dis(X,Z).
:- f(X,Y), dis(Y,Z), not s(X,Z), not i(X,Z), not dis(X,Z).
"""

CTSA2_TC6 = """
{s(X,Y); f(X,Y); alt(X,Y); i(X,Y); eq(X,Y); dis(X,Y)}=1 :- traj(X), traj(Y), X<Y, #count{R : fact(R,X,Y)} = 0.
eq(X,X) :- traj(X).
:- eq(X,Y), eq(Y,Z), not eq(X,Z).
:- f(X,Y), dis(Y,Z), not s(X,Z), not i(X,Z), not dis(X,Z).
eq(X,Y) :- fact(eq,X,Y).
f(X,Y) :- fact(f,X,Y).
"""

GEN_TC6 = """
{true(X,R,Y) : relation(R)} = 1 :- element(X); element(Y); X != Y.
true(X,eq,X) :- element(X).
:- true(X,R1,Y); true(Y,R2,Z); not true(X,Rout,Z) : table(R1,R2,Rout).
:- possible(X,_,Y); not true(X,R,Y) : possible(X,R,Y).
relation(eq; alt; s; f; i; dis).
table(eq, eq, (eq)).
table(f, eq, (f)).
table(eq, alt, (alt)).
table(f, alt, (f)).
table(eq, s, (s)).
table(f, s, (i;dis)).
table(eq, f, (f)).
table(f, f, (eq;alt;f)).
table(eq, i, (i)).
table(f, i, (s;i;dis)).
table(eq, dis, (dis)).
table(f, dis, (s;i;dis)).
"""

COI7_TC10 = """
{ s(X,Z) ; f(X,Z) ; ex(X,Z); ex(Z,X) ; alt(X,Z) ; ret(X,Z) ; rev(X,Z) ;  i(X,Z) ; eq(X,Z) ; dis(X,Z) }=1 :- traj(X), traj(Z), X!=Z.
eq(X,X) :- traj(X).
eq(X,Z) :- eq(X,Y), eq(Y,Z).
f(X,Z) :- f(X,Y), eq(Y,Z).
rev(X,Z) :- eq(X,Y), rev(Y,Z).
ex(Z,X) :- f(X,Y), rev(Y,Z).
alt(X,Z) :- eq(X,Y), alt(Y,Z).
f(X,Z) :- f(X,Y), alt(Y,Z).
ret(X,Z) :- eq(X,Y), ret(Y,Z).
s(X,Z) :- eq(X,Y), s(Y,Z).
ex(X,Z) | i(X,Z) | dis(X,Z) :- f(X,Y), s(Y,Z).
f(X,Z) :- eq(X,Y), f(Y,Z).
eq(X,Z) | alt(X,Z) | f(X,Z) :- f(X,Y), f(Y,Z).
ex(X,Z) :- eq(X,Y), ex(Y,Z).
s(X,Z) | i(X,Z) | dis(X,Z):- f(X,Y), ex(Y,Z).
ex(Z,X) :- eq(X,Y), ex(Z,Y).
rev(X,Z) | ret(X,Z) | ex(Z,X) :- f(X,Y), ex(Z,Y).
i(X,Z) :- eq(X,Y), i(Y,Z).
s(X,Z) | ex(X,Z) | i(X,Z) | dis(X,Z) :- f(X,Y), i(Y,Z).
dis(X,Z) :- eq(X,Y), dis(Y,Z).
s(X,Z) | ex(X,Z) | i(X,Z) | dis(X,Z) :- f(X,Y), dis(Y,Z).
:- eq(X,Z), alt(X,Z).
:- f(X,Z), alt(X,Z).
:- eq(X,Z), i(X,Z).
:- f(X,Z), i(X,Z).
:- eq(X,Z), s(X,Z).
:- f(X,Z), eq(X,Z).
:- eq(X,Z), f(X,Z).
:- f(X,Z), dis(X,Z).
:- eq(X,Z), dis(X,Z).
:- f(X,Z), ex(X,Z).
:- eq(X,Z), ex(X,Z).
:- f(X,Z), ex(Z,X).
:- eq(X,Z), ex(Z,X).
:- f(X,Z), rev(X,Z).
:- eq(X,Z), rev(X,Z).
:- f(X,Z), ret(X,Z).
:- eq(X,Z), ret(X,Z).
:- f(X,Z), s(X,Z).
"""

# Reference erratum: the published composition rule for finish-then-return
# reads `ex(Z,Y) :- f(X,Y), ret(Y,Z).`, constraining the (Y,Z) pair that the
# body already fixes to ret.  The cell it encodes is about the (X,Z) pair, so
# the emitted program carries the corrected head.
COI7_TC10_ERRATUM_PUBLISHED = "ex(Z,Y) :- f(X,Y), ret(Y,Z)."
COI7_TC10_ERRATUM_CORRECTED = "ex(Z,X) :- f(X,Y), ret(Y,Z)."

CTSA_TC10 = """
{s(X,Y); f(X,Y); ex(X,Y); exi(X,Y); alt(X,Y); ret(X,Y); rev(X,Y); i(X,Y); eq(X,Y); dis(X,Y)}=1 :- traj(X), traj(Y), X<Y.
eq(X,X) :- traj(X).
:- eq(X,Y), eq(Y,Z), not eq(X,Z).
:- f(X,Y), eq(Y,Z), not f(X,Z).
:- eq(X,Y), rev(Y,Z),not rev(X,Z).
:- f(X,Y), rev(Y,Z), not exi(X,Z).
:- eq(X,Y), alt(Y,Z), not alt(X,Z).
:- f(X,Y), alt(Y,Z), not f(X,Z).
:- eq(X,Y), ret(Y,Z), not ret(X,Z).
:- f(X,Y), ret(Y,Z), not exi(X,Z).
:- eq(X,Y), s(Y,Z), not s(X,Z).
:- f(X,Y), s(Y,Z), not ex(X,Z), not i(X,Z), not dis(X,Z).
:- eq(X,Y), f(Y,Z), not f(X,Z).
:- f(X,Y), f(Y,Z), not eq(X,Z), not alt(X,Z), not f(X,Z).
:- eq(X,Y), ex(Y,Z), not ex(X,Z).
:- f(X,Y), ex(Y,Z), not s(X,Z), not i(X,Z), not dis(X,Z).
:- eq(X,Y), exi(Y,Z), not exi(X,Z).
:- eq(X,Y), i(Y,Z), not i(X,Z).
:- eq(X,Y), dis(Y,Z), not dis(X,Z).
:- f(X,Y), exi(Y,Z), not rev(X,Z), not ret(X,Z), not exi(X,Z).
:- f(X,Y), i(Y,Z), not s(X,Z), not ex(X,Z), not i(X,Z), not dis(X,Z).
:- f(X,Y), dis(Y,Z), not s(X,Z), not ex(X,Z), not i(X,Z), not dis(X,Z).
exi(X,Y) :- ex(Y,X), Y<X.
ex(X,Y) :- exi(Y,X), Y<X.
"""

CTSA2_TC10 = """
{s(X,Y); f(X,Y); ex(X,Y); exi(X,Y); alt(X,Y); ret(X,Y); rev(X,Y); i(X,Y); eq(X,Y); dis(X,Y)}=1 :- traj(X), traj(Y), X<Y, #count{R : fact(R,X,Y)} = 0.
eq(X,X) :- traj(X).
:- eq(X,Y), eq(Y,Z), not eq(X,Z).
:- f(X,Y), s(Y,Z), not ex(X,Z), not i(X,Z), not dis(X,Z).
:- eq(X,Y), rev(Y,Z),not rev(X,Z).
:- f(X,Y), f(Y,Z), not eq(X,Z), not alt(X,Z), not f(X,Z).
:- eq(X,Y), alt(Y,Z), not alt(X,Z).
:- f(X,Y), ex(Y,Z), not s(X,Z), not i(X,Z), not dis(X,Z).
:- eq(X,Y), ret(Y,Z), not ret(X,Z).
:- eq(X,Y), s(Y,Z), not s(X,Z).
:- eq(X,Y), f(Y,Z), not f(X,Z).
:- eq(X,Y), ex(Y,Z), not ex(X,Z).
:- eq(X,Y), exi(Y,Z), not exi(X,Z).
:- eq(X,Y), i(Y,Z), not i(X,Z).
:- eq(X,Y), dis(Y,Z), not dis(X,Z).
:- f(X,Y), eq(Y,Z), not f(X,Z).
:- f(X,Y), rev(Y,Z), not exi(X,Z).
:- f(X,Y), alt(Y,Z), not f(X,Z).
:- f(X,Y), ret(Y,Z), not exi(X,Z).
:- f(X,Y), exi(Y,Z), not rev(X,Z), not ret(X,Z), not exi(X,Z).
:- f(X,Y), i(Y,Z), not s(X,Z), not ex(X,Z), not i(X,Z), not dis(X,Z).
:- f(X,Y), dis(Y,Z), not s(X,Z), not ex(X,Z), not i(X,Z), not dis(X,Z).
eq(X,Y) :- fact(eq,X,Y).
f(X,Y) :- fact(f,X,Y).
"""

GEN_TC10 = """
{true(X,R,Y) : relation(R)} = 1 :- element(X); element(Y); X != Y.
true(X,eq,X) :- element(X).
:- true(X,R1,Y); true(Y,R2,Z); not true(X,Rout,Z) : table(R1,R2,Rout).
:- possible(X,_,Y); not true(X,R,Y) : possible(X,R,Y).
relation(eq; rev; alt; ret; s; f; ex; exi; i; dis).
table(eq, eq, (eq)).
table(f, eq, (f)).
table(eq, rev, (rev)).
table(f, rev, (exi)).
table(eq, alt, (alt)).
table(f, alt, (f)).
table(eq, ret, (ret)).
table(f, ret, (exi)).
table(eq, s, (s)).
table(f, s, (ex;i;dis)).
table(eq, f, (f)).
table(f, f, (eq;alt;f)).
table(eq, ex, (ex)).
table(f, ex, (s;i;dis)).
table(eq, exi, (exi)).
table(f, exi, (rev;ret;exi)).
table(eq, i, (i)).
table(f, i, (s;ex;i;dis)).
table(eq, dis, (dis)).
table(f, dis, (s;ex;i;dis)).
"""

GOLDEN = {
    ("tc6", "coi7"): COI7_TC6,
    ("tc6", "ctsa"): CTSA_TC6,
    ("tc6", "ctsa2"): CTSA2_TC6,
    ("tc6", "gen"): GEN_TC6,
    ("tc10", "coi7"): COI7_TC10,
    ("tc10", "ctsa"): CTSA_TC10,
    ("tc10", "ctsa2"): CTSA2_TC10,
    ("tc10", "gen"): GEN_TC10,
}


def golden_lines(block: str) -> list[str]:
    return [line for line in (l.strip() for l in block.splitlines()) if line]


def get_calc(name, tc6, tc10):
    return tc6 if name == "tc6" else tc10


@pytest.mark.parametrize("calc_name,kind", sorted(GOLDEN))
def test_golden_lines_present(calc_name, kind, tc6, tc10):
    program = emit_program(get_calc(calc_name, tc6, tc10), kind)
    missing = [line for line in golden_lines(GOLDEN[(calc_name, kind)])
               if not program_contains(program, line)]
    assert not missing, f"missing {len(missing)} line(s), first: {missing[0]}"


def test_coi7_tc10_f_ret_head_constrains_x_z(tc10):
    program = emit_program(tc10, "coi7")
    assert program_contains(program, COI7_TC10_ERRATUM_CORRECTED)
    assert not program_contains(program, COI7_TC10_ERRATUM_PUBLISHED)


class TestProgramShape:
    @pytest.mark.parametrize("calc_name,kind", sorted(GOLDEN))
    def test_every_line_is_a_terminated_statement(self, calc_name, kind, tc6, tc10):
        program = emit_program(get_calc(calc_name, tc6, tc10), kind)
        for line in program.lines:
            assert line.endswith(".")
            assert line.isascii()

    @pytest.mark.parametrize("calc_name,kind", sorted(GOLDEN))
    def test_deterministic(self, calc_name, kind, tc6, tc10):
        calc = get_calc(calc_name, tc6, tc10)
        assert emit_program(calc, kind).text == emit_program(calc, kind).text

    def test_gen_table_fact_counts(self, tc6, tc10):
        # pooled table facts expand to one fact per cell member; the cell
        # cardinality sums are 81 and 224
        for calc, want in ((tc6, 81), (tc10, 224)):
            program = emit_program(calc, "gen")
            table_lines = [l for l in program.lines if l.startswith("table(")]
            assert len(table_lines) == calc.n_relations ** 2
            expanded = sum(l.count(";") + 1 for l in table_lines)
            assert expanded == want

    def test_ctsa_one_constraint_per_cell(self, tc10):
        program = emit_program(tc10, "ctsa")
        ics = [l for l in program.lines if l.startswith(":-")]
        assert len(ics) == 100

    def test_coi7_exclusion_constraints_for_wide_cells(self, tc10):
        # cells wider than seven relations become exclusion constraints;
        # (i,dis) and (dis,i) have 8 members so exclude {eq, rev} each, and
        # the two all-relation cells exclude nothing
        program = emit_program(tc10, "coi7")
        assert program_contains(program, ":- eq(X,Z), i(X,Y), dis(Y,Z).")
        assert program_contains(program, ":- rev(X,Z), i(X,Y), dis(Y,Z).")
        assert program_contains(program, ":- eq(X,Z), dis(X,Y), i(Y,Z).")
        heads = [l for l in program.lines if l.startswith("rev(X,Z) | ")]
        assert heads  # disjunctive rules still present for narrow cells

    def test_unknown_kind(self, tc6):
        with pytest.raises(EmitError):
            emit_program(tc6, "fancy")


class TestInstanceFacts:
    def test_gen_possible_facts(self, tc6):
        inst = make_instance(tc6, ["t1", "t2"], [("t1", "t2", ["eq", "alt"])])
        lines = emit_instance_facts(inst, "gen").lines
        assert "element(t1)." in lines and "element(t2)." in lines
        assert "possible(t1,eq,t2)." in lines
        assert "possible(t1,alt,t2)." in lines

    def test_gen_contradictory_pair(self, tc6):
        inst = make_instance(tc6, ["t1", "t2"],
                             [("t1", "t2", ["s"]), ("t1", "t2", ["f"])])
        lines = emit_instance_facts(inst, "gen").lines
        assert ":- true(t1,eq,t2)." in lines
        assert sum(1 for l in lines if l.startswith(":- true(t1,")) == 6

    def test_ctsa2_converse_normalization(self, tc10):
        inst = make_instance(tc10, ["t1", "t2"], [("t2", "t1", ["ex"])])
        assert "fact(exi,t1,t2)." in emit_instance_facts(inst, "ctsa2").lines

    def test_ctsa_numeric_order(self, tc10):
        inst = make_instance(tc10, ["2", "10"], [("10", "2", ["ex"])])
        # numeric constants order arithmetically: 2 < 10
        assert "exi(2,10)." in emit_instance_facts(inst, "ctsa").lines

    def test_coi7_keeps_pair_order_but_maps_converse_pair(self, tc10):
        inst = make_instance(tc10, ["t2", "t1"], [("t2", "t1", ["exi"])])
        assert "ex(t1,t2)." in emit_instance_facts(inst, "coi7").lines

    def test_non_singleton_rejected(self, tc6):
        inst = make_instance(tc6, ["t1", "t2"], [("t1", "t2", ["s", "f"])])
        with pytest.raises(EmitError, match="CTSA requires singleton"):
            emit_instance_facts(inst, "ctsa")
        with pytest.raises(EmitError, match="COI7 requires singleton"):
            emit_instance_facts(inst, "coi7")

    def test_conflicting_known_relations_rejected(self, tc6):
        inst = make_instance(tc6, ["t1", "t2"],
                             [("t1", "t2", ["s"]), ("t2", "t1", ["f"])])
        with pytest.raises(EmitError, match="conflicting"):
            emit_instance_facts(inst, "ctsa2")

    @pytest.mark.parametrize("kind", ENCODINGS)
    @pytest.mark.parametrize("name", ["T1", "a b", "007", "\u00b2"])
    def test_names_that_are_not_ground_terms_rejected(self, tc6, kind, name):
        # T1 would be a variable, "a b" a syntax error, 007 the integer 7
        inst = make_instance(tc6, ["t1", name], [("t1", name, ["dis"])])
        with pytest.raises(EmitError, match=re.escape(repr(name))):
            emit_instance_facts(inst, kind)

    def test_ground_names_accepted(self, tc6):
        names = ["t1", "_x'", "aB_9", "0", "10"]
        inst = make_instance(tc6, names, [("t1", "10", ["dis"])])
        for kind in ENCODINGS:
            emit_instance_facts(inst, kind)

    def test_normalize_line(self):
        assert normalize_line("a(X, Y)  :-  b(X).") == "a(X,Y):-b(X)."


class TestGenSemanticAgreement:
    """Optional: answer-set existence of the emitted gen program must match
    the native solver.  Runs only where an ASP system is importable."""

    def _has_answer_set(self, clingo_mod, text: str) -> bool:
        ctl = clingo_mod.Control(["1"])
        ctl.add("base", [], text)
        ctl.ground([("base", [])])
        return bool(ctl.solve().satisfiable)

    def test_fifty_seeded_instances(self):
        clingo_mod = pytest.importorskip("clingo")
        import random

        from trajcalc.calculus import builtin_tc6, builtin_tc10
        from trajcalc.solver import solve

        from conftest import random_small_instance

        rng = random.Random(77)
        for calc in (builtin_tc6(), builtin_tc10()):
            for _ in range(25):
                inst = random_small_instance(calc, 3, rng)
                program = emit_program(calc, "gen").text + \
                    emit_instance_facts(inst, "gen").text
                assert self._has_answer_set(clingo_mod, program) == \
                    (solve(inst) is not None)
