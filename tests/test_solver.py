import hashlib
import itertools
import json
import os
import random
import time
from functools import cache
from itertools import islice

import numpy as np
import pytest

import reference_engine
import trajcalc.solver
from trajcalc.bench import (reveal_pairs_exp1, reveal_pairs_exp2, revealed_instance,
                            synthetic_trajectories)
from trajcalc.calculus import Calculus, builtin_tc6
from trajcalc.oracle import brute_force_solve
from trajcalc.solver import (Assignment, Constraint, Instance, InstanceError, SolveTimeout,
                             UnsupportedCalculusError, VerificationResult, algebraic_closure,
                             build_network, enumerate_models, instance_to_json, load_instance,
                             make_instance, models_to_json, solve, verify_assignment)

from conftest import random_small_instance


def model_dicts(models):
    return [m.to_dict() for m in models]


def seeded_instance(experiment, mode, n, k, seed):
    trajs = synthetic_trajectories(mode, n, seed)
    pairs = reveal_pairs_exp1(n, seed) if experiment == "exp1" \
        else reveal_pairs_exp2(n, k, seed)
    return revealed_instance(mode, trajs, pairs)


def tight_random_instance(calc, n, rng):
    """Constraints without dis and i, so branching order and backtracking
    show in the models."""
    names = [f"e{i}" for i in range(n)]
    tight = [r for r in calc.relations if r not in ("dis", "i")]
    return make_instance(calc, names, [(x, y, rng.sample(tight, rng.randint(1, 3)))
                                       for i, x in enumerate(names) for y in names[i + 1:]
                                       if rng.random() < 0.5])


def singleton_network(calc, n, rng):
    """Each pair constrained to one random relation, in a random orientation,
    or left unconstrained."""
    names = [f"e{i}" for i in range(n)]
    absent = 0.3 if rng.random() < 0.5 else 0.5
    return make_instance(calc, names, [(*rng.sample((x, y), 2), [rng.choice(calc.relations)])
                                       for i, x in enumerate(names) for y in names[i + 1:]
                                       if rng.random() >= absent])


def searched_engine(inst, entry, limit=None):
    """The engine after the search behind ``solve`` (entry "solve") or
    ``enumerate_models`` has given up to ``limit`` leaves."""
    calc = inst.calculus
    engine, failed = trajcalc.solver._close(build_network(inst), None)
    assert failed is None
    if entry == "solve":
        leaves = engine.search(trajcalc.solver._Engine.pick_mrv,
                               trajcalc.solver._loose_value_order(calc))
        limit = 1
    else:
        leaves = engine.search(trajcalc.solver._Engine.pick_first_undecided,
                               [1 << r for r in range(calc.n_relations)])
    for _ in islice(leaves, limit):
        pass
    return engine


def random_calculus_instances(seed):
    """Instances of 5-7 elements over random calculi that pass the
    converse-uniqueness gate, most of them breaking some other law."""
    rng = random.Random(seed)
    while True:
        calc = TestRandomCalculi._random_calculus(rng)
        if not calc.has_unique_converse:
            continue
        names = [f"e{i}" for i in range(rng.randint(5, 7))]
        yield Instance(calc, tuple(names), tuple(
            Constraint(*rng.sample((x, y), 2), rng.randint(1, calc.full_set))
            for i, x in enumerate(names) for y in names[i + 1:] if rng.random() < 0.3))


@cache
def restarting_instance():
    """The first closed instance of a seeded stream whose solve search fails
    a decision, so the search restarts with trailing on."""
    for inst in islice(random_calculus_instances(53), 100):
        if algebraic_closure(build_network(inst)) is None and \
                searched_engine(inst, "solve").failed_decisions:
            return inst
    pytest.fail("no solve search in the stream failed a decision")


class TestBuildNetwork:
    def test_unconstrained_is_full(self, tc6):
        net = build_network(make_instance(tc6, ["a", "b"]))
        assert net.domain_between("a", "b") == tc6.full_set

    def test_converse_folding(self, tc10):
        net = build_network(make_instance(tc10, ["a", "b"], [("b", "a", ["ex"])]))
        assert net.domain_between("a", "b") == tc10.mask_of(["exi"])
        assert net.domain_between("b", "a") == tc10.mask_of(["ex"])

    def test_contradiction_is_trivially_unsat(self, tc6):
        inst = make_instance(tc6, ["a", "b"], [("a", "b", ["s"]), ("a", "b", ["f"])])
        net = build_network(inst)
        assert net.first_empty_pair() == ("a", "b")
        assert solve(inst) is None

    def test_unknown_element_rejected(self, tc6):
        with pytest.raises(InstanceError, match="ghost"):
            make_instance(tc6, ["a", "b"], [("a", "ghost", ["s"])])

    def test_pair_separator_in_name_rejected(self, tc6):
        # pairs ("a|b", "c") and ("a", "b|c") would share the model key "a|b|c"
        with pytest.raises(InstanceError, match=r"'a\|b'"):
            make_instance(tc6, ["a|b", "c"])

    def test_refuses_calculus_without_unique_converse(self):
        # two symmetric relations, both composing to everything: eq appears in
        # c(a, a) and c(a, eq), so the converse partner of a is not unique
        full = 0b111
        table = ((0b001, 0b010, 0b100),
                 (0b010, full, full),
                 (0b100, full, full))
        calc = Calculus("loose", ("eq", "a", "b"), 0, (0, 1, 2), table)
        assert not calc.has_unique_converse
        with pytest.raises(UnsupportedCalculusError):
            build_network(make_instance(calc, ["x", "y"]))

    @staticmethod
    def _wide_calculus(k):
        # eq composes only with itself to eq; every other cell is "anything but eq"
        full = (1 << k) - 1
        names = ("eq",) + tuple(f"r{r}" for r in range(1, k))
        table = tuple(tuple(1 if a == b else full & ~1 for b in range(k)) for a in range(k))
        return Calculus(f"wide{k}", names, 0, tuple(range(k)), table)

    def test_refuses_calculus_with_more_than_15_relations(self):
        calc = self._wide_calculus(16)
        assert calc.has_unique_converse
        with pytest.raises(UnsupportedCalculusError, match="at most 15"):
            build_network(make_instance(calc, ["x", "y"]))

    def test_fifteen_relations_supported(self):
        calc = self._wide_calculus(15)
        models = enumerate_models(make_instance(calc, ["x", "y"]))
        assert [m.name_of("x", "y") for m in models] == list(calc.relations)
        inst = make_instance(calc, ["x", "y", "z"], [("x", "y", ["r14"]), ("z", "y", ["r14"])])
        model = solve(inst)
        assert model is not None and model.name_of("y", "x") == "r14"


class TestClosure:
    def test_example_refinement(self, tc6, example_instance):
        net = build_network(example_instance)
        assert algebraic_closure(net) is None
        # frozen via cell-by-cell union of the dis row over {eq, alt}
        assert net.domain_between("T1", "T3") == tc6.mask_of(["i", "dis"])
        assert net.domain_between("T2", "T3") == tc6.mask_of(["eq", "alt"])
        assert net.domain_between("T1", "T2") == tc6.mask_of(["dis"])

    def test_idempotent(self, example_instance):
        net = build_network(example_instance)
        algebraic_closure(net)
        snapshot = reference_engine.dense_domains(net)
        assert algebraic_closure(net) is None
        assert reference_engine.dense_domains(net) == snapshot

    def test_empty_detected(self, tc10):
        inst = make_instance(tc10, ["a", "b"], [("a", "b", ["ex"]), ("b", "a", ["ex"])])
        net = build_network(inst)
        assert algebraic_closure(net) == ("a", "b")

    def test_closure_keeps_every_model(self, tc6, tc10):
        # no relation that appears in some model may be pruned
        from trajcalc.oracle import brute_force_solve
        rng = random.Random(5)
        for calc, n in ((tc6, 4), (tc10, 3)):
            for _ in range(40):
                inst = random_small_instance(calc, n, rng)
                models = brute_force_solve(inst).models
                net = build_network(inst)
                algebraic_closure(net)
                for m in models:
                    for (x, y), rid in m.items():
                        assert (net.domain_between(x, y) >> rid) & 1

    def test_closure_decides_singleton_networks(self, tc6, tc10):
        # For tc6 and tc10 networks whose pair constraints are singletons or
        # absent, a pair emptied by closure is exactly an inconsistent network.
        rng = random.Random(61)
        verdicts = []
        for calc, n, count in ((tc6, 4, 200), (tc6, 5, 60), (tc10, 4, 150)):
            for _ in range(count):
                inst = singleton_network(calc, n, rng)
                brute = brute_force_solve(inst, state_cap=calc.n_relations ** (n * (n - 1) // 2))
                closed = algebraic_closure(build_network(inst)) is None
                assert closed == brute.sat, instance_to_json(inst)
                verdicts.append(closed)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    @pytest.mark.skipif(os.environ.get("TRAJCALC_EXHAUSTIVE") != "1",
                        reason="set TRAJCALC_EXHAUSTIVE=1 to check all 117,649 networks")
    def test_closure_decides_every_tc6_n4_singleton_network(self, tc6):
        names = ("a", "b", "c", "d")
        pairs = list(itertools.combinations(names, 2))
        choices = [0] + [1 << r for r in range(tc6.n_relations)]
        checked = 0
        for masks in itertools.product(choices, repeat=len(pairs)):
            inst = Instance(tc6, names, tuple(Constraint(x, y, mask) for (x, y), mask
                                              in zip(pairs, masks) if mask))
            closed = algebraic_closure(build_network(inst)) is None
            assert closed == brute_force_solve(inst).sat, instance_to_json(inst)
            checked += 1
        assert checked == 7 ** 6 == 117_649


class TestSolveAndEnumerate:
    def test_example_sat(self, example_instance):
        a = solve(example_instance)
        assert a is not None
        assert a.name_of("T1", "T2") == "dis"
        assert verify_assignment(example_instance, a).ok

    def test_example_models_exact(self, example_instance):
        got = model_dicts(enumerate_models(example_instance))
        assert got == [
            {"T1|T2": "dis", "T1|T3": "i", "T2|T3": "alt"},
            {"T1|T2": "dis", "T1|T3": "dis", "T2|T3": "eq"},
            {"T1|T2": "dis", "T1|T3": "dis", "T2|T3": "alt"},
        ]

    def test_limit(self, example_instance):
        assert len(enumerate_models(example_instance, limit=2)) == 2
        assert enumerate_models(example_instance, limit=0) == []

    def test_single_element(self, tc6):
        a = solve(make_instance(tc6, ["x"]))
        assert a is not None
        assert a.name_of("x", "x") == "eq"

    def test_two_unconstrained_elements(self, tc6):
        models = enumerate_models(make_instance(tc6, ["a", "b"]))
        assert [m.name_of("a", "b") for m in models] == list(tc6.relations)

    def test_ex_ex_unsat(self, tc10):
        inst = make_instance(tc10, ["a", "b"], [("a", "b", ["ex"]), ("b", "a", ["ex"])])
        assert solve(inst) is None
        assert enumerate_models(inst) == []

    def test_eq_between_distinct_elements_allowed(self, tc6):
        inst = make_instance(tc6, ["a", "b"], [("a", "b", ["eq"])])
        a = solve(inst)
        assert a is not None and a.name_of("a", "b") == "eq"

    def test_deterministic(self, tc6):
        rng = random.Random(99)
        for _ in range(20):
            inst = random_small_instance(tc6, 4, rng)
            first = solve(inst)
            second = solve(inst)
            if first is None:
                assert second is None
            else:
                assert first.values == second.values
            assert model_dicts(enumerate_models(inst, limit=50)) == \
                model_dicts(enumerate_models(inst, limit=50))

    def test_timeout_raises(self, tc6):
        elements = [f"e{i}" for i in range(40)]
        inst = make_instance(tc6, elements)
        with pytest.raises(SolveTimeout):
            solve(inst, deadline=time.monotonic() - 1.0)

    def test_concurrent_solves_share_calculus(self, tc6, tc10):
        # calculi and instances are immutable; each solve owns its network
        from concurrent.futures import ThreadPoolExecutor
        rng = random.Random(31)
        instances = [random_small_instance(tc6, 4, rng) for _ in range(8)] + \
                    [random_small_instance(tc10, 3, rng) for _ in range(8)]
        sequential = [solve(inst) for inst in instances]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(solve, instances))
        for seq, thr in zip(sequential, threaded):
            if seq is None:
                assert thr is None
            else:
                assert thr is not None and thr.values == seq.values

    def test_deadline_expiring_during_closure(self):
        inst = seeded_instance("exp2", "tc6", 100, 99, 0)
        algebraic_closure(build_network(inst))  # builds the calculus tables
        start = time.monotonic()
        algebraic_closure(build_network(inst))
        full = time.monotonic() - start
        net = build_network(inst)
        # the deadline lies ahead when the closure starts, so it expires midway
        deadline = time.monotonic() + full / 4
        with pytest.raises(SolveTimeout):
            algebraic_closure(net, deadline)
        assert time.monotonic() - deadline < 1.0

    def test_deadline_expiring_during_search(self):
        inst = seeded_instance("exp1", "tc10", 150, 1, 0)
        start = time.monotonic()
        assert solve(inst) is not None
        full = time.monotonic() - start
        closure_start = time.monotonic()
        algebraic_closure(build_network(inst))
        assert time.monotonic() - closure_start < full / 4  # so search is running at full / 2
        deadline = time.monotonic() + full / 2
        with pytest.raises(SolveTimeout):
            solve(inst, deadline)
        assert time.monotonic() - deadline < 1.0

    def test_timeout_before_and_after_restart(self, monkeypatch):
        inst = restarting_instance()
        # the optimistic run, which has trailed nothing
        engine, _ = trajcalc.solver._close(build_network(inst), None)
        engine.deadline = time.monotonic() - 1.0
        with pytest.raises(SolveTimeout):
            next(engine.search(trajcalc.solver._Engine.pick_mrv,
                               trajcalc.solver._loose_value_order(inst.calculus)))
        assert engine.trail_pairs is None
        # the trailed re-run after a failed decision
        restart = trajcalc.solver._Engine._restart
        restarted = []

        def restart_and_expire(engine, closed):
            restart(engine, closed)
            restarted.append(engine.trail_pairs is not None)
            engine.deadline = time.monotonic() - 1.0

        monkeypatch.setattr(trajcalc.solver._Engine, "_restart", restart_and_expire)
        with pytest.raises(SolveTimeout):
            solve(inst, deadline=time.monotonic() + 60.0)
        assert restarted == [True]

    def test_enumeration_keeps_no_mrv_heap(self, tc10):
        # only the MRV pick reads the heap, so enumeration must not fill it
        inst = seeded_instance("exp2", "tc10", 6, 4, 19)
        net = build_network(inst)
        engine, failed = trajcalc.solver._close(net, None)
        assert failed is None
        declared = [1 << r for r in range(tc10.n_relations)]
        leaves = sum(1 for _ in engine.search(trajcalc.solver._Engine.pick_first_undecided,
                                              declared))
        assert leaves == len(enumerate_models(inst))
        assert len(engine.heap or ()) <= len(engine.pairs)

    def test_search_without_numpy2_only_functions(self, tc6, monkeypatch):
        # the package supports numpy >= 1.23, which has no bitwise_count
        inst = seeded_instance("exp1", "tc6", 30, 1, 0)
        want = model_dicts([solve(inst)] + enumerate_models(inst, limit=3))
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert model_dicts([solve(inst)] + enumerate_models(inst, limit=3)) == want


class TestReferenceEngine:
    """The dense-matrix engine against the canonical-pair engine kept in
    ``tests/reference_engine.py``: the same closed domains pair for pair, the
    same first emptied pair, and the same ``solve`` / ``enumerate_models``
    output."""

    @staticmethod
    def _assert_same_closure(inst):
        domains, failed = reference_engine.closure(inst)
        net = build_network(inst)
        assert algebraic_closure(net) == failed
        if failed is None:
            assert reference_engine.dense_domains(net) == domains

    @staticmethod
    def _assert_same_models(inst, limit):
        # solve's model and the leaves after it in the same MRV / loose-first
        # order, which backtrack through the MRV heap
        loose = trajcalc.solver._loose_value_order(inst.calculus)
        want = model_dicts(islice(
            reference_engine._models(inst, reference_engine._Engine.pick_mrv, loose), limit))
        got = trajcalc.solver._models(inst, None, trajcalc.solver._Engine.pick_mrv, loose)
        assert model_dicts(islice(got, limit)) == want
        assert model_dicts(filter(None, [solve(inst)])) == want[:1]
        assert model_dicts(enumerate_models(inst, limit=limit)) == \
            model_dicts(reference_engine.enumerate_models(inst, limit=limit))

    @pytest.mark.parametrize("experiment, mode, n, k, seed", [
        ("exp1", "tc6", 100, 1, 21), ("exp1", "tc10", 100, 1, 22),
        ("exp1", "tc6", 40, 1, 23), ("exp1", "tc10", 40, 1, 24),
        ("exp2", "tc6", 100, 40, 25), ("exp2", "tc10", 90, 70, 26),
        ("exp2", "tc6", 30, 10, 27), ("exp2", "tc10", 30, 5, 28),
    ])
    def test_revealed_instances(self, experiment, mode, n, k, seed):
        inst = seeded_instance(experiment, mode, n, k, seed)
        self._assert_same_closure(inst)
        self._assert_same_models(inst, limit=3)

    @pytest.mark.parametrize("experiment, mode, n, k, seed", [
        ("exp1", "tc6", 6, 1, 31), ("exp1", "tc10", 5, 1, 32),
        ("exp2", "tc6", 7, 5, 33), ("exp2", "tc10", 6, 4, 34),
    ])
    def test_small_revealed_enumeration(self, experiment, mode, n, k, seed):
        self._assert_same_models(seeded_instance(experiment, mode, n, k, seed), limit=200)

    def test_tight_random_instances(self, tc6, tc10):
        rng = random.Random(41)
        for t in range(60):
            inst = tight_random_instance(tc6 if t % 2 else tc10, 4 + t % 5, rng)
            self._assert_same_closure(inst)
            self._assert_same_models(inst, limit=20)

    def test_random_calculi_closure(self):
        # tables breaking the converse-composition law use the mirrored half
        rng = random.Random(43)
        checked = mirrored = 0
        while checked < 150:
            calc = TestRandomCalculi._random_calculus(rng)
            if not calc.has_unique_converse:
                continue
            names = [f"e{i}" for i in range(rng.randint(6, 8))]
            constraints = [Constraint(*rng.sample((x, y), 2), rng.randint(1, calc.full_set))
                           for i, x in enumerate(names) for y in names[i + 1:]
                           if rng.random() < 0.2]
            self._assert_same_closure(Instance(calc, tuple(names), tuple(constraints)))
            tables = calc.row_union_tables
            mirrored += not np.array_equal(tables.mir, tables.fwd)
            checked += 1
        assert mirrored > 100


    def test_random_calculi_search(self):
        # law-breaking tables make decisions fail, so the search restarts
        # with trailing on: solve before its first model, enumeration too
        failed = {"solve": 0, "enumerate": 0}
        for inst in islice(random_calculus_instances(53), 40):
            self._assert_same_models(inst, limit=20)
            if algebraic_closure(build_network(inst)) is None:
                for entry in failed:
                    failed[entry] += searched_engine(inst, entry, limit=20).failed_decisions
        assert failed["solve"] > 0 and failed["enumerate"] > 0


class TestPinnedModels:
    """Models of seeded exp1/exp2 instances, pinned by the SHA-256 of their
    model JSON: the search order (MRV / loose-first for ``solve``, pair x
    declaration order for ``enumerate_models``) must not drift."""

    CASES = [
        # (entry point, experiment, calculus, n, known per element, seed, limit, sha256)
        ("solve", "exp1", "tc6", 30, 1, 11, None,
         "8edc94252eed193470baa3fb3255b3df8d3fa604bdbf2edca58cf0c95e358fe1"),
        ("solve", "exp1", "tc6", 60, 1, 12, None,
         "d39c4204b92fca3a46830ca99a3c39e977883dacf13eb256eefd4a916822d572"),
        ("solve", "exp1", "tc10", 30, 1, 13, None,
         "461aea761f3a99a2a2231c95a493ae278dce3df80cde7f59bf4334fb5190e5ee"),
        ("solve", "exp1", "tc10", 50, 1, 14, None,
         "911e87e0d787597ce6d6331c4fe02efb84642a806ab6d2fd1446adc15c20ccf1"),
        ("solve", "exp2", "tc6", 40, 8, 15, None,
         "9fcef254e40250ad03c2049600347c693b0f376b417cc8ec6ad719a97ab97898"),
        ("solve", "exp2", "tc10", 40, 20, 16, None,
         "816225e447fdcbdc5b5a9d8fcdcfae7907d7d55ef548b26cb0d4ba7a13d210e9"),
        ("enumerate", "exp1", "tc6", 6, 1, 17, 40,
         "131d89797370a22bbfc0376afa3e8f52671034fd5d2b963f9cc8c40ddca49546"),
        ("enumerate", "exp1", "tc10", 5, 1, 18, 40,
         "bf46be42018a45b94fcaa56fa296c68fc9d43e51cece9a2beb9624938966a2d5"),
        ("enumerate", "exp1", "tc10", 5, 1, 18, 1,
         "90dd65ce0767656cdd2ae562f7f11d1dac0b6ff95303010ecbfbe10b461b0f7f"),
        ("enumerate", "exp2", "tc10", 6, 4, 19, None,
         "81c1d237d806a2fe652392e76440fda218d701940b49a9d13e47745b5ea2aa90"),
        ("enumerate", "exp2", "tc6", 7, 5, 19, None,
         "186e70fb47ce5eec77000b2e8848dd42e1156990db67366da2fa848f5c38bc9e"),
    ]

    @pytest.mark.parametrize("entry, experiment, mode, n, k, seed, limit, digest", CASES)
    def test_model_json_digest(self, entry, experiment, mode, n, k, seed, limit, digest):
        inst = seeded_instance(experiment, mode, n, k, seed)
        if entry == "solve":
            model = solve(inst)
            models = [model] if model is not None else []
        else:
            models = enumerate_models(inst, limit=limit)
        text = models_to_json(models)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        # closure leaves these searches nothing to undo; solve never trails
        engine = searched_engine(inst, entry, limit)
        assert engine.failed_decisions == 0
        assert entry != "solve" or engine.trail_pairs is None

    def test_tight_random_instances_digest(self, tc6, tc10):
        # Revealed instances leave a loose relation open on almost every
        # pair, so their first model hardly depends on the branching order.
        # Constraints without dis and i make that order visible.
        rng = random.Random(11)
        digest = hashlib.sha256()
        for t in range(100):
            calc = tc6 if t % 2 else tc10
            names = [f"e{i}" for i in range(4 + t % 4)]
            tight = [r for r in calc.relations if r not in ("dis", "i")]
            constraints = [(x, y, rng.sample(tight, rng.randint(1, 3)))
                           for i, x in enumerate(names) for y in names[i + 1:]
                           if rng.random() < 0.7]
            model = solve(make_instance(calc, names, constraints))
            digest.update(models_to_json([model] if model is not None else []).encode())
        assert digest.hexdigest() == \
            "26684baa5a86d6b236cd4778d1218e844f1427e3096d3a12efabb35749f39f36"


class TestRandomCalculi:
    """The pair encoding must stay sound for any calculus that passes the
    converse-uniqueness gate, including tables that break the identity,
    involution, or converse-composition laws."""

    @staticmethod
    def _random_calculus(rng):
        n = rng.randint(2, 5)
        names = tuple(f"r{i}" if i else "eq" for i in range(n))
        conv = list(range(n))
        others = list(range(1, n))
        rng.shuffle(others)
        while len(others) >= 2 and rng.random() < 0.5:
            a, b = others.pop(), others.pop()
            conv[a], conv[b] = b, a
        full = (1 << n) - 1
        table = [[rng.randint(1, full) for _ in range(n)] for _ in range(n)]
        # force converse-uniqueness: eq in c(r, r') iff r' = converse(r)
        for a in range(n):
            for b in range(n):
                if b == conv[a]:
                    table[a][b] |= 1
                else:
                    stripped = table[a][b] & ~1
                    table[a][b] = stripped or (1 << rng.randint(1, n - 1))
        return Calculus("fuzz", names, 0, tuple(conv),
                        tuple(tuple(row) for row in table))

    def test_agreement_with_brute_force(self):
        import itertools

        from trajcalc.oracle import brute_force_solve
        rng = random.Random(5150)
        checked = 0
        while checked < 400:
            calc = self._random_calculus(rng)
            if not calc.has_unique_converse:
                continue
            elements = ("x", "y", "z")[:rng.randint(2, 3)]
            constraints = []
            for i, j in itertools.combinations(range(len(elements)), 2):
                if rng.random() < 0.55:
                    continue
                mask = rng.randint(1, calc.full_set)
                x, y = (elements[i], elements[j]) if rng.random() < 0.5 \
                    else (elements[j], elements[i])
                constraints.append(Constraint(x, y, mask))
            inst = Instance(calc, elements, tuple(constraints))
            brute = brute_force_solve(inst)
            models = enumerate_models(inst)
            assert (solve(inst) is not None) == brute.sat
            assert [m.to_dict() for m in models] == [m.to_dict() for m in brute.models]
            checked += 1


class TestVerifyAssignment:
    def test_accepts_solver_output(self, example_instance):
        for m in enumerate_models(example_instance):
            assert verify_assignment(example_instance, m).ok

    def test_flipped_model_rejected(self, tc6, example_instance):
        # take the (eq, dis) model and flip (T1,T3) to eq
        raw = {}
        for x in example_instance.elements:
            for y in example_instance.elements:
                raw[(x, y)] = "eq" if x == y else None
        raw[("T1", "T2")] = raw[("T2", "T1")] = "dis"
        raw[("T2", "T3")] = raw[("T3", "T2")] = "eq"
        raw[("T1", "T3")] = raw[("T3", "T1")] = "eq"
        result = verify_assignment(example_instance, raw)
        assert not result.ok
        assert ("composition", "T1", "T2", "T3") in result.violations

    def test_broken_diagonal_rejected(self, tc6):
        inst = make_instance(tc6, ["x", "y"])
        raw = {("x", "x"): "dis", ("y", "y"): "eq", ("x", "y"): "dis", ("y", "x"): "dis"}
        result = verify_assignment(inst, raw)
        assert not result.ok
        assert ("identity", "x") in result.violations

    def test_constraint_violation_reported(self, tc6):
        inst = make_instance(tc6, ["x", "y"], [("x", "y", ["s"])])
        raw = {("x", "x"): "eq", ("y", "y"): "eq", ("x", "y"): "dis", ("y", "x"): "dis"}
        result = verify_assignment(inst, raw)
        assert ("constraint", "x", "y") in result.violations

    def test_partial_mapping_rejected(self, tc6):
        inst = make_instance(tc6, ["x", "y"])
        with pytest.raises(InstanceError, match="not total"):
            verify_assignment(inst, {("x", "x"): "eq"})

    def test_out_of_range_relation_id_rejected(self, tc6):
        inst = make_instance(tc6, ["x", "y"])
        raw = {("x", "x"): 0, ("y", "y"): 0, ("x", "y"): tc6.n_relations, ("y", "x"): 1}
        with pytest.raises(InstanceError, match="outside the calculus"):
            verify_assignment(inst, raw)

    def test_composition_violations_capped_in_triple_order(self, tc6):
        names = [f"e{i}" for i in range(40)]
        inst = make_instance(tc6, names)
        rng = random.Random(8)
        n_pairs = len(names) * (len(names) - 1) // 2
        bad = Assignment(tc6, tuple(names),
                         tuple(rng.randrange(tc6.n_relations) for _ in range(n_pairs)))
        expected = []
        for x in names:
            for y in names:
                for z in names:
                    if not (tc6.compose(bad.of(x, y), bad.of(y, z)) >> bad.of(x, z)) & 1:
                        expected.append(("composition", x, y, z))
                if len(expected) > 64:
                    break
            if len(expected) > 64:
                break
        assert len(expected) > 64
        assert verify_assignment(inst, bad).violations == tuple(expected[:64])

    def test_failed_verification_raises(self, monkeypatch, example_instance):
        failing = VerificationResult(False, (("identity", "T1"),))
        monkeypatch.setattr(trajcalc.solver, "verify_assignment", lambda inst, a: failing)
        with pytest.raises(AssertionError, match="fails verification"):
            solve(example_instance)
        with pytest.raises(AssertionError, match="fails verification"):
            enumerate_models(example_instance)


class TestInstanceFiles:
    def test_round_trip(self, example_instance):
        text = instance_to_json(example_instance)
        again = load_instance(text)
        assert again == example_instance

    def test_builtin_by_name(self):
        inst = load_instance('{"calculus": "tc10", "elements": ["a"], "constraints": []}')
        assert inst.calculus.name == "tc10"

    def test_inline_calculus(self, tc6):
        from trajcalc.calculus import save_calculus
        doc = {"calculus": json.loads(save_calculus(tc6)),
               "elements": ["a", "b"],
               "constraints": [{"x": "a", "y": "b", "rels": ["s"]}]}
        inst = load_instance(json.dumps(doc))
        assert inst.calculus == tc6

    def test_unknown_element_in_file(self):
        doc = {"calculus": "tc6", "elements": ["a"],
               "constraints": [{"x": "a", "y": "zz", "rels": ["s"]}]}
        with pytest.raises(InstanceError, match="zz"):
            load_instance(json.dumps(doc))

    def test_pair_separator_in_file(self):
        doc = {"calculus": "tc6", "elements": ["a", "b|c"], "constraints": []}
        with pytest.raises(InstanceError, match=r"'b\|c'"):
            load_instance(json.dumps(doc))

    def test_unknown_relation_in_file(self):
        doc = {"calculus": "tc6", "elements": ["a", "b"],
               "constraints": [{"x": "a", "y": "b", "rels": ["sideways"]}]}
        with pytest.raises(InstanceError, match="sideways"):
            load_instance(json.dumps(doc))

    def test_model_output_shape(self, example_instance):
        models = enumerate_models(example_instance)
        doc = json.loads(models_to_json(models))
        assert doc["status"] == "sat"
        assert doc["models"][1] == {"T1|T2": "dis", "T1|T3": "dis", "T2|T3": "eq"}
        assert json.loads(models_to_json([]))["status"] == "unsat"
