import random
import tracemalloc

import pytest

from trajcalc.calculus import builtin
from trajcalc.grids import GridSpec
from trajcalc.oracle import relations_holding
from trajcalc.trajectories import (_BLOCK, InfeasibleError, InvalidTrajectoryError, Trajectory,
                                   all_pairs, classify, classify_name, enumerate_trajectories,
                                   random_trajectory, relation_matrix, validate_trajectory)


def traj(*regions, id="t"):
    return Trajectory(id, tuple(regions))


class TestValidation:
    def test_cycle_back_to_start(self, grid3):
        assert validate_trajectory(traj(0, 1, 0), grid3, "tc6") == []
        assert validate_trajectory(traj(0, 1, 0), grid3, "tc10") == ["t1 = tn"]

    def test_consecutive_equal(self, grid3):
        assert "consecutive equal at (0,1)" in validate_trajectory(traj(0, 0, 1), grid3, "tc6")
        assert "consecutive equal at (0,1)" in validate_trajectory(traj(0, 0, 1), grid3, "tc10")

    def test_disconnected_step(self, grid3):
        assert validate_trajectory(traj(0, 8), grid3, "tc6") == \
            ["not externally connected at (0,1)"]

    def test_too_short_and_out_of_range(self, grid3):
        assert "length < 2" in validate_trajectory(traj(0), grid3, "tc6")
        assert "region out of range at 1" in validate_trajectory(traj(0, 99), grid3, "tc6")


class TestClassify:
    def test_eq_self(self, grid3):
        t = traj(0, 1, 2)
        assert classify_name("tc6", t, t) == "eq"
        assert classify_name("tc10", t, t) == "eq"

    def test_rev(self):
        assert classify_name("tc10", traj(0, 1, 2), traj(2, 1, 0)) == "rev"

    def test_alt(self):
        assert classify_name("tc6", traj(0, 1, 2), traj(0, 4, 2)) == "alt"
        assert classify_name("tc10", traj(0, 1, 2), traj(0, 4, 2)) == "alt"

    def test_s(self):
        assert classify_name("tc6", traj(0, 1), traj(0, 3)) == "s"

    def test_f(self):
        assert classify_name("tc6", traj(1, 4), traj(3, 4)) == "f"

    def test_ret(self):
        assert classify_name("tc10", traj(0, 1, 2), traj(2, 4, 0)) == "ret"

    def test_ex_exi(self):
        # t1 starts where t2 finishes -> t1 extends t2
        assert classify_name("tc10", traj(4, 8), traj(0, 4)) == "ex"
        assert classify_name("tc10", traj(0, 4), traj(4, 8)) == "exi"

    def test_i_and_dis(self, grid3):
        assert classify_name("tc6", traj(0, 1), traj(1, 4)) == "i"
        assert classify_name("tc6", traj(3, 4), traj(0, 1)) == "dis"
        assert classify_name("tc10", traj(3, 4), traj(0, 1)) == "dis"

    def test_rejects_mode_breaking_input(self):
        with pytest.raises(InvalidTrajectoryError):
            classify("tc10", traj(0, 1, 0), traj(0, 1))
        with pytest.raises(InvalidTrajectoryError):
            classify("tc6", traj(0, 0), traj(0, 1))
        with pytest.raises(InvalidTrajectoryError):
            classify("tc6", traj(0), traj(0, 1))


def _random_pair(mode, grid, rng_seed):
    lengths = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
    t1 = random_trajectory(grid, lengths[rng_seed % len(lengths)], mode, seed=rng_seed)
    t2 = random_trajectory(grid, lengths[(rng_seed // 7) % len(lengths)], mode, seed=rng_seed + 10_000_019)
    return t1, t2


class TestAgainstLiteralDefinitions:
    """The ladder must agree with the table definitions read as raw formulas."""

    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    def test_exactly_one_definition_holds(self, mode, grid10):
        for seed in range(1500):
            t1, t2 = _random_pair(mode, grid10, seed)
            holding = relations_holding(mode, t1, t2)
            assert len(holding) == 1, (t1.regions, t2.regions, holding)
            assert classify_name(mode, t1, t2) == holding[0]

    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    def test_symmetry(self, mode, grid10):
        for seed in range(400):
            t1, t2 = _random_pair(mode, grid10, seed + 50_000)
            ab = classify_name(mode, t1, t2)
            ba = classify_name(mode, t2, t1)
            if ab == "ex":
                assert ba == "exi"
            elif ab == "exi":
                assert ba == "ex"
            else:
                assert ab == ba

    def test_reverse_is_rev(self, grid10):
        for seed in range(300):
            t = random_trajectory(grid10, 2 + seed % 11, "tc10", seed=seed + 99_000)
            assert classify_name("tc10", t, t.reversed()) == "rev"


def _variants(regions):
    """Region sequences related to ``regions`` by each rung of the ladder:
    a copy, the reversal, a prefix (same start), a suffix (same finish), a
    walk back from the finish (starts where ``regions`` finishes), a detour
    with the same endpoints and one with swapped endpoints."""
    r = regions
    return [r, r[::-1], r[:2 + len(r) // 2], r[-2 - len(r) // 2:], r[::-1][:2 + len(r) // 2],
            r + (r[-2], r[-1]), r[::-1] + (r[1], r[0])]


def _pair_population(mode, grid, n, seed):
    """``n`` valid trajectories: seeded walks plus variants of earlier ones."""
    rng = random.Random(seed)
    trajs = []
    while len(trajs) < n:
        if trajs and rng.random() < 0.4:
            regions = rng.choice(_variants(rng.choice(trajs).regions))
        else:
            regions = random_trajectory(grid, rng.randint(2, 12), mode,
                                        seed=rng.randrange(10**9)).regions
        t = Trajectory(f"t{len(trajs)}", regions)
        if not validate_trajectory(t, grid, mode):
            trajs.append(t)
    return trajs


class TestAllPairs:
    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    def test_rows_match_classify_name(self, mode, grid3):
        trajs = [random_trajectory(grid3, 2 + seed % 5, mode, seed=seed).with_id(f"t{seed}")
                 for seed in range(40)]
        trajs += [trajs[0].reversed(), trajs[1].with_id("copy")]
        expected = [(a.id, b.id, classify_name(mode, a, b))
                    for i, a in enumerate(trajs) for b in trajs[i + 1:]]
        assert list(all_pairs(mode, trajs)) == expected
        assert len({rel for _, _, rel in expected}) > 3

    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    @pytest.mark.parametrize("shape", [(3, 3), (100, 200)])
    @pytest.mark.parametrize("n", [0, 1, 2, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 5])
    def test_rows_are_the_oracle_relation(self, mode, shape, n):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, *shape)
        trajs = _pair_population(mode, grid, n, seed=f"{mode}:{shape}:{n}")
        rows = list(all_pairs(mode, trajs))
        assert [(a, b) for a, b, _ in rows] == [(a.id, b.id) for i, a in enumerate(trajs)
                                                 for b in trajs[i + 1:]]
        by_id = {t.id: t for t in trajs}
        for a, b, rel in rows:
            assert rel == classify_name(mode, by_id[a], by_id[b])
            assert relations_holding(mode, by_id[a], by_id[b]) == [rel], (a, b)
        # the full matrix classifies both orientations and the diagonal
        assert relation_matrix(mode, trajs).tolist() == [[classify(mode, a, b) for b in trajs]
                                                         for a in trajs]
        if n == 2 * _BLOCK + 5:
            # the variants reach every relation; the wide map stays mostly dis
            assert {rel for _, _, rel in rows} == set(builtin(mode).relations)
            if shape == (100, 200):
                assert sum(rel == "dis" for _, _, rel in rows) > len(rows) / 2

    def test_memory_grows_linearly(self):
        # consume the rows without keeping them: n x n temporaries would take
        # the traced peak up about 4x when n doubles, block temporaries 2x
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 100, 200)
        walks = [random_trajectory(grid, 60, "tc10", seed=seed).with_id(f"w{seed}")
                 for seed in range(2000)]
        peaks = []
        for n in (1000, 2000):
            tracemalloc.start()
            try:
                for _ in all_pairs("tc10", walks[:n]):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0], peaks

    @pytest.mark.parametrize("mode, bad", [("tc6", traj(0, 0, id="bad")),
                                           ("tc6", traj(0, id="bad")),
                                           ("tc10", traj(0, 1, 0, id="bad"))])
    def test_invalid_trajectory_raises(self, mode, bad):
        trajs = [traj(0, 1, id="a"), traj(1, 2, id="b"), bad]
        with pytest.raises(InvalidTrajectoryError, match="bad"):
            list(all_pairs(mode, trajs))


class TestRandomTrajectory:
    @pytest.mark.parametrize("mode", ["tc6", "tc10"])
    def test_valid_and_deterministic(self, mode, grid10):
        for seed in (0, 1, 17):
            t = random_trajectory(grid10, 9, mode, seed=seed)
            assert validate_trajectory(t, grid10, mode) == []
            assert t == random_trajectory(grid10, 9, mode, seed=seed)

    def test_tc10_never_closes_the_loop(self, grid10):
        for seed in range(10_000):
            t = random_trajectory(grid10, 2 + seed % 7, "tc10", seed=seed)
            assert t.regions[0] != t.regions[-1]

    def test_infeasible(self):
        tiny = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 2)
        with pytest.raises(InfeasibleError):
            random_trajectory(tiny, 3, "tc10", seed=0, max_retries=50)
        one = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
        with pytest.raises(InfeasibleError):
            random_trajectory(one, 2, "tc6", seed=0)


class TestEnumerate:
    def test_count_len2_3x3(self, grid3):
        # degree sum over the 8-neighbour graph: 4 corners x 3 + 4 edges x 5 + 8
        got = list(enumerate_trajectories(grid3, 2, "tc6"))
        assert len(got) == 40

    def test_count_1x2(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 2)
        assert [t.regions for t in enumerate_trajectories(g, 2, "tc6")] == [(0, 1), (1, 0)]
        tc10_len3 = [t for t in enumerate_trajectories(g, 3, "tc10") if len(t.regions) == 3]
        assert tc10_len3 == []

    def test_counts_len3_3x3(self, grid3):
        tc6 = [t for t in enumerate_trajectories(grid3, 3, "tc6")]
        tc10 = [t for t in enumerate_trajectories(grid3, 3, "tc10")]
        # walk counts derived from the degree sequence: sum(deg^2) = 200 for
        # length 3; tc10 drops the sum(deg) = 40 walks that return to start
        assert len(tc6) == 240
        assert len(tc10) == 200

    def test_unique_valid_lexicographic(self, grid3):
        seqs = [t.regions for t in enumerate_trajectories(grid3, 3, "tc10")]
        assert len(set(seqs)) == len(seqs)
        assert seqs == sorted(seqs)
        for t in enumerate_trajectories(grid3, 3, "tc10"):
            assert validate_trajectory(t, grid3, "tc10") == []
