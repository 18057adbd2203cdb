import hashlib
import random

import pytest

from trajcalc.calculus import builtin, validate_calculus
from trajcalc.oracle import (OracleCapError, SoundnessReport, brute_force_solve,
                             corrupt_cell, coverage_report, definition_holds,
                             random_cell_corruptions, relations_holding,
                             verify_soundness)
from trajcalc.solver import enumerate_models, make_instance, verify_assignment
from trajcalc.trajectories import Trajectory

from conftest import random_small_instance


def traj(*regions, id="t"):
    return Trajectory(id, tuple(regions))


class TestDefinitions:
    def test_spot_values(self):
        assert definition_holds("tc10", "rev", traj(0, 1, 2), traj(2, 1, 0))
        assert definition_holds("tc6", "s", traj(0, 1), traj(0, 3))
        assert not definition_holds("tc6", "alt", traj(0, 1), traj(0, 1))
        assert definition_holds("tc10", "ret", traj(0, 1, 2), traj(2, 4, 0))
        assert not definition_holds("tc10", "ret", traj(0, 1), traj(1, 0))  # exact reversal

    def test_single_relation_per_pair(self, grid3):
        from trajcalc.trajectories import enumerate_trajectories
        trajs = list(enumerate_trajectories(grid3, 3, "tc10"))[:40]
        for t1 in trajs:
            for t2 in trajs:
                assert len(relations_holding("tc10", t1, t2)) == 1


class TestSoundness:
    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    def test_len2_exhaustive_clean(self, mode, grid3):
        report = verify_soundness(mode, grid3, 2)
        assert report.ok
        assert report.trajectory_count == 40
        assert report.triples_checked == 40 ** 3

    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    def test_len3_witnesses_every_table_triple(self, mode, grid3, tc6, tc10):
        calc = tc6 if mode == "tc6" else tc10
        report = verify_soundness(mode, grid3, 3)
        assert report.ok
        assert coverage_report(report, calc) == []

    def test_corrupted_cell_detected_with_witnesses(self, grid3, tc6):
        bad = corrupt_cell(tc6, "s", "s", ["eq"])
        report = verify_soundness("tc6", grid3, 2, calculus=bad)
        assert report.violation_count > 0
        assert all(v[3] == "s" and v[4] == "s" for v in report.violations)
        assert report.violations  # concrete witnesses recorded

    def test_sampled_mode_deterministic(self, grid3):
        a = verify_soundness("tc6", grid3, 3, sample=20_000, seed=7)
        b = verify_soundness("tc6", grid3, 3, sample=20_000, seed=7)
        assert a == b
        assert a.triples_checked == 20_000

    def test_witnessed_grows_with_scale(self, grid3):
        small = verify_soundness("tc6", grid3, 2)
        big = verify_soundness("tc6", grid3, 3)
        assert small.witnessed <= big.witnessed
        assert ("eq", "eq", "eq") in small.witnessed  # any trajectory with itself twice

    def test_report_round_trip(self, grid3):
        report = verify_soundness("tc10", grid3, 2)
        assert SoundnessReport.from_json(report.to_json()) == report

    def test_reports_are_pinned(self, grid3):
        # built-in and corrupted tables, exhaustive and sampled; the small
        # recording cap pins both which violations are kept and their order
        digest = hashlib.sha256()
        for mode in ("tc6", "tc10"):
            calc = builtin(mode)
            tables = [calc] + [spec.apply(calc)
                               for spec in random_cell_corruptions(calc, 10, seed=432)]
            for table in tables:
                for max_len, sample in ((2, None), (3, None), (4, 50_000)):
                    report = verify_soundness(mode, grid3, max_len, sample=sample, seed=11,
                                              calculus=table, max_recorded=7)
                    digest.update(report.to_json().encode())
        assert digest.hexdigest() == \
            "fa905a91df59aa43fab4a334d741abe5fa0d886532a5339265830a68e7b124b4"

    @pytest.mark.parametrize("mode, count", [("tc6", 5816), ("tc10", 5088)])
    def test_sampled_max_len_5_clean(self, mode, count, grid3):
        report = verify_soundness(mode, grid3, 5, sample=1_000_000, seed=2024)
        assert report.trajectory_count == count
        assert report.violation_count == 0, report.violations[:5]

    def test_coverage_of_empty_witness_set(self, grid3, tc6):
        report = verify_soundness("tc6", grid3, 2)
        gutted = SoundnessReport(**{**report.__dict__, "witnessed": frozenset()})
        assert len(coverage_report(gutted, tc6)) == 81


class TestBruteForce:
    def test_example_models(self, example_instance):
        result = brute_force_solve(example_instance)
        assert result.sat
        assert len(result.models) == 3
        assert [m.to_dict() for m in result.models] == \
            [m.to_dict() for m in enumerate_models(example_instance)]

    def test_ex_ex_unsat(self, tc10):
        inst = make_instance(tc10, ["a", "b"], [("a", "b", ["ex"]), ("b", "a", ["ex"])])
        assert not brute_force_solve(inst).sat

    def test_two_free_elements(self, tc6):
        result = brute_force_solve(make_instance(tc6, ["a", "b"]))
        assert len(result.models) == 6

    def test_models_pass_independent_verification(self, tc10):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_small_instance(tc10, 3, rng)
            for m in brute_force_solve(inst).models:
                assert verify_assignment(inst, m).ok

    def test_cap(self, tc6):
        inst = make_instance(tc6, [f"e{i}" for i in range(8)])
        with pytest.raises(OracleCapError):
            brute_force_solve(inst)

    def test_agreement_with_solver_sample(self, tc6, tc10):
        rng = random.Random(17)
        for calc, n in ((tc6, 4), (tc10, 3)):
            for _ in range(30):
                inst = random_small_instance(calc, n, rng)
                brute = brute_force_solve(inst)
                models = enumerate_models(inst)
                assert brute.sat == bool(models)
                assert [m.to_dict() for m in brute.models] == [m.to_dict() for m in models]


class TestFaultInjection:
    def test_corrupt_cell_changes_one_cell(self, tc6):
        bad = corrupt_cell(tc6, "s", "f", ["i"])
        diffs = [(a, b) for a in range(6) for b in range(6)
                 if bad.table[a][b] != tc6.table[a][b]]
        assert diffs == [(tc6.rel_id("s"), tc6.rel_id("f"))]

    def test_random_corruptions_are_proper_removals(self, tc10):
        for spec in random_cell_corruptions(tc10, 25, seed=5):
            cell = tc10.table[tc10.rel_id(spec.r1)][tc10.rel_id(spec.r2)]
            new = tc10.mask_of(spec.new_relations)
            assert new != 0
            assert new & ~cell == 0
            assert new != cell

    def test_each_corruption_caught(self, grid3, tc6, tc10):
        # smoke version of the acceptance gate: 3 corruptions per calculus
        for mode, calc in (("tc6", tc6), ("tc10", tc10)):
            for spec in random_cell_corruptions(calc, 3, seed=123):
                bad = spec.apply(calc)
                caught = not validate_calculus(bad).ok or \
                    not verify_soundness(mode, grid3, 3, calculus=bad).ok
                assert caught, spec
