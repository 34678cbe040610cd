"""The value types' repr is built from an explicit stack: the text a frozen
dataclass would give, for trees of any depth."""

import random
import sys

import pytest

from hierwave.complexity import MatrixElementSeries
from hierwave.dynamics import SimConfig
from hierwave.rep_theory import CGQuery, IrrepLabel, decompose_product
from hierwave.repair_cascade import ComponentSpec, Organism, RemovalAction
from hierwave.state_tree import STATISTICS, SU2, HierarchyLevel, HierState, Named, NodeWave, Point, SpinWeight

from helpers import chain_state, reference_repr

DEPTH = 10_000
HALF, ONE = IrrepLabel(1), IrrepLabel(2)
TEXTS = ["", "a", "it's", 'say "hi"', "tab\there", "line\nbreak", "ünï", "back\\slash"]
FLOATS = [0.0, -0.0, 1.5, -2.25e-300, 1e300, float("inf"), float("nan")]


def _label(rng):
    kind = rng.randrange(3)
    if kind == 0:
        twice_j = rng.randint(0, 4)
        return SpinWeight(twice_j, rng.randrange(-twice_j, twice_j + 1, 2))
    if kind == 1:
        return Point(rng.randint(-10**20, 10**20))
    return Named(rng.choice(TEXTS))


def _state(rng, level_index=0, depth=0):
    basis = tuple(_label(rng) for _ in range(rng.randint(0, 3)))
    level = HierarchyLevel(level_index, rng.choice([SU2, "Translation1D", "x'y"]), basis)
    amplitudes = [complex(rng.choice(FLOATS), rng.choice(FLOATS)) for _ in basis]
    wave = NodeWave(level, amplitudes, rng.choice(STATISTICS), rng.choice([None, (), (1,), (2, -3)]))
    n_children = rng.randint(0, 3) if depth < 4 else 0
    return HierState(wave, [_state(rng, level_index + 1, depth + 1) for _ in range(n_children)])


def _component(rng, depth=0):
    n_subcomponents = rng.randint(0, 3) if depth < 5 else 0
    return ComponentSpec(rng.choice(TEXTS), IrrepLabel(rng.randint(0, 6)),
                         [_component(rng, depth + 1) for _ in range(n_subcomponents)])


def _values(rng):
    """One value of each type, built at random."""
    yield _state(rng)
    yield Organism(IrrepLabel(rng.randint(0, 4)), [_component(rng) for _ in range(rng.randint(0, 3))])
    yield decompose_product([IrrepLabel(rng.randint(0, 4)) for _ in range(rng.randint(1, 4))])
    yield CGQuery(*(rng.randint(-4, 4) for _ in range(6)))
    yield RemovalAction(frozenset(rng.sample(range(10), rng.randint(1, 3))))
    yield SimConfig(rng.uniform(0.5, 2), rng.choices((0.5, -0.5), k=4), k=rng.choice(FLOATS[:5]),
                    x_init=(rng.random(), -0.0), steps=rng.randint(0, 50))
    yield MatrixElementSeries(rng.choices(FLOATS[:5], k=rng.randint(1, 3)), rng.choice([0.1, 1]))


@pytest.mark.parametrize("seed", range(200))
def test_repr_is_the_frozen_dataclass_text(seed):
    for value in _values(random.Random(seed)):
        assert repr(value) == reference_repr(value)


def test_deep_state_repr():
    psi = chain_state(DEPTH)
    nodes = [psi]
    while nodes[-1].children:
        nodes.append(nodes[-1].children[0])
    assert len(nodes) == DEPTH + 1 > sys.getrecursionlimit()
    expected = ("".join(f"HierState(wave={reference_repr(node.wave)}, children=(" for node in nodes[:-1])
                + f"HierState(wave={reference_repr(nodes[-1].wave)}, children=())" + ",))" * DEPTH)
    assert repr(psi) == expected


def test_deep_component_and_organism_repr():
    comp = ComponentSpec("leaf", HALF)
    for _ in range(DEPTH - 1):
        comp = ComponentSpec("c", ONE, (comp,))
    chain = ("ComponentSpec(name='c', irrep=IrrepLabel(twice_j=2), subcomponents=(" * (DEPTH - 1)
             + "ComponentSpec(name='leaf', irrep=IrrepLabel(twice_j=1), subcomponents=())" + ",))" * (DEPTH - 1))
    assert repr(comp) == chain
    org = Organism(ONE, (comp, ComponentSpec("e", HALF)))
    assert repr(org) == (f"Organism(target_irrep=IrrepLabel(twice_j=2), components=({chain}, "
                         "ComponentSpec(name='e', irrep=IrrepLabel(twice_j=1), subcomponents=())))")
