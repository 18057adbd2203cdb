import json
import os
import statistics

import pytest

from trajcalc.cli import main
from trajcalc.grids import GridSpec
from trajcalc.solver import instance_to_json, make_instance
from trajcalc.trajectories import random_trajectory


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(
        "cab1,100,0.05,0.05\n"
        "cab1,110,0.15,0.05\n"
        "cab1,120,0.25,0.15\n"
        "cab2,2008-02-02 15:36:08,0.95,0.95\n"
        "cab2,2008-02-02 15:46:08,0.85,0.85\n"
        "far,100,5.0,5.0\n"
        "far,110,5.1,5.1\n",
        encoding="utf-8")
    return path


@pytest.fixture()
def example_file(tmp_path, example_instance):
    path = tmp_path / "ex1.json"
    path.write_text(instance_to_json(example_instance), encoding="utf-8")
    return path


class TestIngest:
    def test_writes_trajectories_and_skips_outsiders(self, capsys, tmp_path, points_csv):
        out = tmp_path / "trajs.txt"
        code, _, err = run(capsys, "ingest", "--points", str(points_csv),
                           "--grid", "10x10", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines == ["cab1: 0 1 12", "cab2: 99 88"]
        assert "skipping object 'far'" in err
        assert "2 trajectories" in err

    def test_malformed_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("cab1,not-a-time,0.5\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--points", str(bad), "--grid", "4x4")
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_is_exit_2(self, capsys, tmp_path, stamp):
        # accepted, nan broke the time order of object a without a word
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,1,0.1,0.1\na,{stamp},0.9,0.9\na,3,0.1,0.9\na,2,0.9,0.1\n",
                       encoding="utf-8")
        out = tmp_path / "t.txt"
        code, _, err = run(capsys, "ingest", "--points", str(bad), "--grid", "4x4",
                           "--policy", "rasterize", "--out", str(out))
        assert code == 2
        assert err == f"trajcalc: line 2: bad timestamp {stamp!r}\n"
        assert not out.exists()

    def test_grid_file_sidecar(self, capsys, tmp_path, points_csv):
        sidecar = tmp_path / "grid.json"
        sidecar.write_text(json.dumps({
            "lat_min": 0.0, "lat_max": 1.0, "lon_min": 0.0, "lon_max": 1.0,
            "rows": 10, "cols": 10}), encoding="utf-8")
        out = tmp_path / "t.txt"
        code, _, _ = run(capsys, "ingest", "--points", str(points_csv),
                         "--grid-file", str(sidecar), "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("cab1:")


class TestRelations:
    def _write_trajs(self, tmp_path, lines):
        path = tmp_path / "trajs.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def test_pair_matrix(self, capsys, tmp_path):
        path = self._write_trajs(tmp_path, ["a: 0 1", "b: 0 1", "c: 2 1 0"])
        code, out, _ = run(capsys, "relations", "--trajectories", str(path),
                           "--calculus", "tc6", "--grid", "3x3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "id1,id2,relation"
        assert rows[1] == "a,b,eq"
        assert len(rows) == 1 + 3  # n(n-1)/2 pairs

    def test_reverse_pair_tc10(self, capsys, tmp_path):
        path = self._write_trajs(tmp_path, ["a: 0 1 2", "b: 2 1 0"])
        code, out, _ = run(capsys, "relations", "--trajectories", str(path),
                           "--calculus", "tc10", "--grid", "3x3")
        assert code == 0
        assert "a,b,rev" in out

    def test_invalid_trajectory_names_id_and_clause(self, capsys, tmp_path):
        path = self._write_trajs(tmp_path, ["a: 0 1 0", "b: 0 1"])
        code, _, err = run(capsys, "relations", "--trajectories", str(path),
                           "--calculus", "tc10", "--grid", "3x3")
        assert code == 2
        assert "'a'" in err and "t1 = tn" in err

    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    def test_file_and_stdout_bytes_match(self, capsys, tmp_path, mode):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
        trajs = [random_trajectory(grid, 2 + seed % 4, mode, seed=seed).with_id(f"t{seed}")
                 for seed in range(70)]
        path = self._write_trajs(tmp_path, [f"{t.id}: {' '.join(map(str, t.regions))}"
                                            for t in trajs])
        argv = ["relations", "--trajectories", str(path), "--calculus", mode, "--grid", "3x3"]
        out_file = tmp_path / "relations.csv"
        code, _, _ = run(capsys, *argv, "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, *argv, "--out", "-")
        assert code == 0
        assert out_file.read_bytes() == out.encode("utf-8")
        lines = out.splitlines()
        assert lines[0] == "id1,id2,relation" and len(lines) == 1 + 70 * 69 // 2

    def test_invalid_trajectory_leaves_no_output(self, capsys, tmp_path):
        path = self._write_trajs(tmp_path, ["a: 0 1", "b: 0 4 0"])
        out_file = tmp_path / "relations.csv"
        code, out, err = run(capsys, "relations", "--trajectories", str(path),
                             "--calculus", "tc10", "--grid", "3x3", "--out", str(out_file))
        assert code == 2
        assert "'b'" in err and out == ""
        assert not out_file.exists()


class TestSolveCommands:
    def test_solve_sat_exit_0(self, capsys, example_file):
        code, out, _ = run(capsys, "solve", "--instance", str(example_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "sat"
        assert doc["models"][0]["T1|T2"] == "dis"

    def test_enumerate_exact_models(self, capsys, example_file):
        code, out, _ = run(capsys, "enumerate", "--instance", str(example_file))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["models"]) == 3

    def test_enumerate_limit(self, capsys, example_file):
        code, out, _ = run(capsys, "enumerate", "--instance", str(example_file),
                           "--limit", "1")
        assert code == 0
        assert len(json.loads(out)["models"]) == 1

    def test_unsat_exit_1(self, capsys, tmp_path):
        path = tmp_path / "unsat.json"
        path.write_text(json.dumps({
            "calculus": "tc10", "elements": ["a", "b"],
            "constraints": [{"x": "a", "y": "b", "rels": ["ex"]},
                            {"x": "b", "y": "a", "rels": ["ex"]}]}), encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--instance", str(path))
        assert code == 1
        assert json.loads(out)["status"] == "unsat"

    def test_unknown_element_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "calculus": "tc6", "elements": ["a"],
            "constraints": [{"x": "a", "y": "zz", "rels": ["s"]}]}), encoding="utf-8")
        code, _, err = run(capsys, "solve", "--instance", str(path))
        assert code == 2
        assert "zz" in err

    def test_pair_separator_in_name_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bar.json"
        path.write_text(json.dumps({"calculus": "tc6", "elements": ["a", "b|c"]}),
                        encoding="utf-8")
        code, out, err = run(capsys, "solve", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert "b|c" in err

class TestEmitVerifyCalculus:
    def test_emit_gen_fact_count(self, capsys):
        code, out, _ = run(capsys, "emit", "--calculus", "tc6", "--encoding", "gen")
        assert code == 0
        table_lines = [l for l in out.splitlines() if l.startswith("table(")]
        assert sum(l.count(";") + 1 for l in table_lines) == 81

    def test_emit_with_instance_facts(self, capsys, tmp_path, tc6):
        instance = tmp_path / "ex1.json"
        instance.write_text(instance_to_json(make_instance(
            tc6, ["t1", "t2", "t3"], [("t1", "t2", ["dis"]), ("t2", "t3", ["eq", "alt"])])),
            encoding="utf-8")
        prog = tmp_path / "prog.lp"
        facts = tmp_path / "facts.lp"
        code, _, _ = run(capsys, "emit", "--calculus", "tc6", "--encoding", "gen",
                         "--instance", str(instance),
                         "--out", str(prog), "--facts-out", str(facts))
        assert code == 0
        assert "table(" in prog.read_text()
        facts_text = facts.read_text()
        assert "element(t1)." in facts_text
        assert "possible(t1,dis,t2)." in facts_text

    def test_emit_refuses_names_that_are_not_ground_terms(self, capsys, tmp_path, example_file):
        # T1 would be an ASP variable in a fact
        facts = tmp_path / "facts.lp"
        code, _, err = run(capsys, "emit", "--calculus", "tc6", "--encoding", "gen",
                           "--instance", str(example_file), "--facts-out", str(facts))
        assert code == 2
        assert "'T1'" in err
        assert not facts.exists()

    def test_verify_clean_exit_0(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--calculus", "tc10", "--grid", "3x3",
                           "--max-len", "2", "--report", str(report))
        assert code == 0
        assert "0 violation(s)" in err
        assert json.loads(report.read_text())["violation_count"] == 0

    def test_verify_sampled_mode(self, capsys):
        code, _, err = run(capsys, "verify", "--calculus", "tc6", "--grid", "3x3",
                           "--max-len", "3", "--sample", "5000", "--seed", "1")
        assert code == 0
        assert "5000 triples" in err

    def test_emit_refuses_law_breaking_calculus(self, capsys, tmp_path, tc6):
        from trajcalc.calculus import save_calculus
        doc = json.loads(save_calculus(tc6))
        doc["table"][7][2] = ["alt"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "emit", "--calculus", str(path), "--encoding", "gen")
        assert code == 2
        assert "fails validation" in err

    def test_calculus_validate_good_and_bad(self, capsys, tmp_path, tc6):
        from trajcalc.calculus import save_calculus
        good = tmp_path / "good.json"
        good.write_text(save_calculus(tc6), encoding="utf-8")
        code, out, _ = run(capsys, "calculus", "validate", "--file", str(good))
        assert code == 0 and "all laws hold" in out

        doc = json.loads(save_calculus(tc6))
        doc["table"][7][2] = ["alt"]  # drop eq from (alt,alt): no converse partner left
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "calculus", "validate", "--file", str(bad))
        assert code == 1
        assert "violation" in out

    def test_calculus_save_round_trip(self, capsys, tmp_path):
        out = tmp_path / "tc10.json"
        code, _, _ = run(capsys, "calculus", "save", "--calculus", "tc10",
                         "--out", str(out))
        assert code == 0
        from trajcalc.calculus import builtin_tc10, load_calculus
        assert load_calculus(out.read_text()) == builtin_tc10()

    def test_emit_user_calculus_from_file(self, capsys, tmp_path, tc6):
        from trajcalc.calculus import save_calculus
        path = tmp_path / "mine.json"
        path.write_text(save_calculus(tc6).replace('"tc6"', '"mine"'), encoding="utf-8")
        code, out, _ = run(capsys, "emit", "--calculus", str(path), "--encoding", "gen")
        assert code == 0
        assert "relation(eq; alt; s; f; i; dis)." in out


@pytest.mark.skipif("TRAJCALC_TDRIVE_CSV" not in os.environ,
                    reason="set TRAJCALC_TDRIVE_CSV to a taxi points CSV to enable")
def test_tdrive_style_ingest_mean_length(capsys, tmp_path):
    """With a real taxi dataset sample (1000 cabs, 100x200 grid over the
    sample's collective bounding box) the mean region-sequence length should
    land near 282, within 15 percent."""
    import csv as csv_mod

    src = os.environ["TRAJCALC_TDRIVE_CSV"]
    lats, lons = [], []
    with open(src, newline="", encoding="utf-8") as handle:
        for row in csv_mod.reader(handle):
            if len(row) == 4:
                lons.append(float(row[2]))
                lats.append(float(row[3]))
    bbox = f"{min(lats)},{max(lats)},{min(lons)},{max(lons)}"
    out = tmp_path / "trajs.txt"
    code = main(["ingest", "--points", src, "--grid", "100x200", "--bbox", bbox,
                 "--policy", "rasterize", "--out", str(out)])
    assert code == 0
    lengths = [len(line.split(":")[1].split())
               for line in out.read_text().splitlines() if ":" in line]
    mean = statistics.fmean(lengths)
    assert 282 * 0.85 <= mean <= 282 * 1.15, mean


class TestBenchCommand:
    def test_exp1_rows(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "bench", "--experiment", "exp1", "--calculus", "tc6",
                         "--sizes", "5,8", "--seed", "3", "--length", "6",
                         "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "experiment,calculus,n_elements,known_per_element,wall_ms,peak_rss_bytes,status"
        assert len(rows) == 3
        assert all(r.split(",")[-1] == "sat" for r in rows[1:])

    def test_budget_forces_timeout(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "bench", "--experiment", "exp1", "--calculus", "tc6",
                         "--sizes", "30", "--seed", "3", "--length", "6",
                         "--budget-ms", "0.0001", "--out", str(out))
        assert code == 0
        row = out.read_text().strip().splitlines()[1]
        assert row.split(",")[-1] == "timeout"
