import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import compose_set
from trajcalc.calculus import (Calculus, CalculusError, LAW_CONV_COMP, LAW_IDENTITY,
                               LAW_INVOLUTION, LAW_NON_EMPTY, LAW_UNIQUENESS,
                               builtin_tc6, builtin_tc10, iter_bits, load_calculus,
                               save_calculus, validate_calculus)


def names(calc, mask):
    return set(calc.names_of(mask))


class TestBuiltinTables:
    def test_relation_order(self, tc6, tc10):
        assert tc6.relations == ("eq", "alt", "s", "f", "i", "dis")
        assert tc10.relations == ("eq", "rev", "alt", "ret", "s", "f", "ex", "exi", "i", "dis")

    def test_tc6_spot_cells(self, tc6):
        assert names(tc6, tc6.compose(tc6.rel_id("eq"), tc6.rel_id("dis"))) == {"dis"}
        assert names(tc6, tc6.compose(tc6.rel_id("i"), tc6.rel_id("i"))) == \
            {"eq", "alt", "s", "f", "i", "dis"}
        assert names(tc6, tc6.compose(tc6.rel_id("s"), tc6.rel_id("s"))) == {"eq", "alt", "s"}
        assert names(tc6, tc6.compose(tc6.rel_id("f"), tc6.rel_id("s"))) == {"i", "dis"}

    def test_tc10_spot_cells(self, tc10):
        rid = tc10.rel_id
        assert names(tc10, tc10.compose(rid("f"), rid("exi"))) == {"rev", "ret", "exi"}
        assert names(tc10, tc10.compose(rid("ex"), rid("ex"))) == {"exi", "i", "dis"}
        assert names(tc10, tc10.compose(rid("rev"), rid("exi"))) == {"s"}
        assert names(tc10, tc10.compose(rid("i"), rid("dis"))) == \
            {"alt", "ret", "s", "f", "ex", "exi", "i", "dis"}

    def test_cell_cardinality_sums(self, tc6, tc10):
        # frozen from hand-tallying the two tables row by row
        assert sum(m.bit_count() for row in tc6.table for m in row) == 81
        assert sum(m.bit_count() for row in tc10.table for m in row) == 224

    def test_converse_maps(self, tc6, tc10):
        assert all(tc6.converse[r] == r for r in range(6))
        assert tc10.converse[tc10.rel_id("ex")] == tc10.rel_id("exi")
        assert tc10.converse[tc10.rel_id("exi")] == tc10.rel_id("ex")
        others = set(range(10)) - {tc10.rel_id("ex"), tc10.rel_id("exi")}
        assert all(tc10.converse[r] == r for r in others)

    def test_converse_set_elementwise(self, tc10):
        mask = tc10.mask_of(["f", "exi", "i"])
        assert names(tc10, tc10.converse_set(mask)) == {"f", "ex", "i"}

    def test_tc6_table_symmetric(self, tc6):
        for r1 in range(6):
            for r2 in range(6):
                assert tc6.table[r1][r2] == tc6.table[r2][r1]


class TestAlgebraLaws:
    @pytest.mark.parametrize("which", ["tc6", "tc10"])
    def test_validation_clean(self, which, tc6, tc10):
        calc = tc6 if which == "tc6" else tc10
        report = validate_calculus(calc)
        assert report.ok, report.format()

    @pytest.mark.parametrize("which", ["tc6", "tc10"])
    def test_identity_law(self, which, tc6, tc10):
        calc = tc6 if which == "tc6" else tc10
        eq = calc.equality
        for r in range(calc.n_relations):
            assert calc.compose(eq, r) == 1 << r
            assert calc.compose(r, eq) == 1 << r

    @pytest.mark.parametrize("which", ["tc6", "tc10"])
    def test_converse_composition_law_all_cells(self, which, tc6, tc10):
        calc = tc6 if which == "tc6" else tc10
        for r1 in range(calc.n_relations):
            for r2 in range(calc.n_relations):
                lhs = calc.converse_set(calc.table[r1][r2])
                rhs = calc.table[calc.converse[r2]][calc.converse[r1]]
                assert lhs == rhs, (calc.relations[r1], calc.relations[r2])

    @pytest.mark.parametrize("which", ["tc6", "tc10"])
    def test_converse_uniqueness(self, which, tc6, tc10):
        calc = tc6 if which == "tc6" else tc10
        eq_bit = 1 << calc.equality
        for r in range(calc.n_relations):
            partners = [r2 for r2 in range(calc.n_relations) if calc.table[r][r2] & eq_bit]
            assert partners == [calc.converse[r]]
        assert calc.has_unique_converse


class TestComposeSet:
    def test_identity_lifts(self, tc6):
        eq = tc6.mask_of(["eq"])
        assert compose_set(tc6, eq, tc6.mask_of(["s"])) == tc6.mask_of(["s"])
        assert compose_set(tc6, tc6.mask_of(["s", "f"]), eq) == tc6.mask_of(["s", "f"])

    def test_union_over_cells(self, tc6):
        got = compose_set(tc6, tc6.mask_of(["alt"]), tc6.mask_of(["i", "dis"]))
        assert names(tc6, got) == {"i", "dis"}

    def test_empty_operands(self, tc6):
        assert compose_set(tc6, 0, tc6.full_set) == 0
        assert compose_set(tc6, tc6.full_set, 0) == 0

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(0, 63), b=st.integers(0, 63),
           a2=st.integers(0, 63), b2=st.integers(0, 63))
    def test_monotone(self, a, b, a2, b2):
        calc = builtin_tc6()
        s1, s2 = a, b
        s1_big, s2_big = a | a2, b | b2
        assert compose_set(calc, s1, s2) & ~compose_set(calc, s1_big, s2_big) == 0

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(0, 1023), b=st.integers(0, 1023))
    def test_matches_cellwise_union(self, a, b):
        calc = builtin_tc10()
        want = 0
        for r1 in iter_bits(a):
            for r2 in iter_bits(b):
                want |= calc.table[r1][r2]
        assert compose_set(calc, a, b) == want


class TestValidationViolations:
    def test_emptied_cell_reported(self, tc6):
        i = tc6.rel_id("alt")
        table = tuple(tuple(0 if (a, b) == (i, i) else tc6.table[a][b]
                            for b in range(6)) for a in range(6))
        broken = Calculus("bad", tc6.relations, tc6.equality, tc6.converse, table)
        report = validate_calculus(broken)
        assert not report.ok
        assert any(v.where == ("alt", "alt") for v in report.for_law(LAW_NON_EMPTY))

    def test_identity_violation_reported(self, tc6):
        eq, s = tc6.rel_id("eq"), tc6.rel_id("s")
        table = tuple(tuple(tc6.mask_of(["s", "f"]) if (a, b) == (eq, s) else tc6.table[a][b]
                            for b in range(6)) for a in range(6))
        report = validate_calculus(Calculus("bad", tc6.relations, tc6.equality,
                                            tc6.converse, table))
        assert any(v.where == ("eq", "s") for v in report.for_law(LAW_IDENTITY))

    def test_involution_violation_reported(self, tc10):
        conv = list(tc10.converse)
        conv[tc10.rel_id("ex")] = tc10.rel_id("exi")
        conv[tc10.rel_id("exi")] = tc10.rel_id("s")
        report = validate_calculus(Calculus("bad", tc10.relations, tc10.equality,
                                            tuple(conv), tc10.table))
        assert report.for_law(LAW_INVOLUTION)

    def test_uniqueness_violation_reported(self, tc6):
        s, f = tc6.rel_id("s"), tc6.rel_id("f")
        cell = tc6.table[s][f] | (1 << tc6.equality)
        table = tuple(tuple(cell if (a, b) == (s, f) else tc6.table[a][b]
                            for b in range(6)) for a in range(6))
        report = validate_calculus(Calculus("bad", tc6.relations, tc6.equality,
                                            tc6.converse, table))
        assert any(v.where == ("s",) for v in report.for_law(LAW_UNIQUENESS))

    def test_conv_comp_violation_reported(self, tc10):
        a, b = tc10.rel_id("s"), tc10.rel_id("f")
        cell = tc10.table[a][b] | (1 << tc10.rel_id("alt"))
        table = tuple(tuple(cell if (r1, r2) == (a, b) else tc10.table[r1][r2]
                            for r2 in range(10)) for r1 in range(10))
        report = validate_calculus(Calculus("bad", tc10.relations, tc10.equality,
                                            tc10.converse, table))
        assert report.for_law(LAW_CONV_COMP)


class TestFileFormat:
    @pytest.mark.parametrize("which", ["tc6", "tc10"])
    def test_round_trip(self, which, tc6, tc10):
        calc = tc6 if which == "tc6" else tc10
        again = load_calculus(save_calculus(calc))
        assert again == calc
        # canonical form is stable
        assert save_calculus(again) == save_calculus(calc)

    def test_missing_cell_rejected(self, tc6):
        import json
        doc = json.loads(save_calculus(tc6))
        doc["table"] = [row for row in doc["table"] if row[:2] != ["dis", "dis"]]
        with pytest.raises(CalculusError, match=r"missing table cell \(dis,dis\)"):
            load_calculus(json.dumps(doc))

    def test_duplicate_cell_rejected(self, tc6):
        import json
        doc = json.loads(save_calculus(tc6))
        doc["table"].append(["eq", "eq", ["eq"]])
        with pytest.raises(CalculusError, match=r"duplicate table cell \(eq,eq\)"):
            load_calculus(json.dumps(doc))

    def test_one_sided_converse_rejected(self, tc10):
        import json
        doc = json.loads(save_calculus(tc10))
        doc["converse"]["exi"] = "exi"  # ex -> exi stays, exi -> ex dropped
        with pytest.raises(CalculusError, match="involution"):
            load_calculus(json.dumps(doc))

    def test_unknown_symbol_rejected(self, tc6):
        import json
        doc = json.loads(save_calculus(tc6))
        doc["table"][3] = ["eq", "f", ["zap"]]
        with pytest.raises(CalculusError, match="zap"):
            load_calculus(json.dumps(doc))

    def test_parse_error_position(self):
        with pytest.raises(CalculusError, match=r"line \d+ column \d+"):
            load_calculus('{"name": "x",')

    def test_symbol_syntax_enforced(self):
        with pytest.raises(CalculusError, match="lowercase identifier"):
            Calculus("bad", ("EQ",), 0, (0,), ((1,),))
