import random

import pytest

from trajcalc.calculus import Calculus, builtin_tc6, builtin_tc10
from trajcalc.grids import GridSpec
from trajcalc.solver import Instance, make_instance


@pytest.fixture(scope="session")
def tc6() -> Calculus:
    return builtin_tc6()


@pytest.fixture(scope="session")
def tc10() -> Calculus:
    return builtin_tc10()


@pytest.fixture()
def grid3() -> GridSpec:
    return GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)


@pytest.fixture()
def grid10() -> GridSpec:
    return GridSpec(0.0, 1.0, 0.0, 1.0, 10, 10)


@pytest.fixture()
def example_instance(tc6) -> Instance:
    """Three elements, (T1,T2) fixed to dis, (T2,T3) either eq or alt."""
    return make_instance(
        tc6, ["T1", "T2", "T3"],
        [("T1", "T2", ["dis"]), ("T2", "T3", ["eq", "alt"])])


def random_small_instance(calc: Calculus, n_elements: int, rng: random.Random) -> Instance:
    """Random instance with mixed singleton/doubleton constraints, both
    orientations; shared by the solver-vs-brute-force agreement tests."""
    elements = [f"e{i}" for i in range(n_elements)]
    constraints = []
    for i in range(n_elements):
        for j in range(i + 1, n_elements):
            if rng.random() < 0.35:
                continue
            size = 1 if rng.random() < 0.5 else 2
            rels = rng.sample(range(calc.n_relations), size)
            x, y = (elements[i], elements[j]) if rng.random() < 0.5 else (elements[j], elements[i])
            constraints.append((x, y, [calc.rel_name(r) for r in rels]))
    return make_instance(calc, elements, constraints)
