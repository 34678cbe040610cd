"""The iterative tree walks against plain recursive references: iter_nodes,
validate_tree and check_node on seeded trees with planted defects, on the
edge shapes a leaf shortcut could get wrong (a lone leaf, a root of leaves)
and on a chain deeper than the default recursion limit."""

import random

import pytest

from hierwave.physicality import check_node
from hierwave.state_tree import (
    SU2,
    HierarchyLevel,
    HierState,
    Named,
    NodeWave,
    SpinWeight,
    iter_nodes,
    validate_tree,
)

from helpers import (
    _preorder,
    chain_state,
    fill_shape,
    random_shape,
    recursion_limit,
    reference_check_node,
    reference_validate_tree,
)

CHAIN = 5_000
LIMIT = CHAIN + 1_000  # the recursion limit the references need on the chain
SEEDS = range(40)


def spin_level(level_index: int, twice_j: int) -> HierarchyLevel:
    return HierarchyLevel(level_index, SU2, tuple(SpinWeight(twice_j, tm) for tm in range(-twice_j, twice_j + 1, 2)))


def random_spin_tree(rng, level_index: int = 0, depth: int = 0) -> HierState:
    """A seeded tree of spin-1/2 and spin-1 nodes, a few of them Named, so that
    check_node meets physical, unphysical and unsupported nodes."""
    if rng.random() < 0.1:
        level = HierarchyLevel(level_index, SU2, (Named("x"),))
    else:
        level = spin_level(level_index, rng.choice((1, 2)))
    amplitudes = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in level.basis]
    n_children = rng.randint(0, 3) if depth < 3 else 0
    children = [random_spin_tree(rng, level_index + 1, depth + 1) for _ in range(n_children)]
    return HierState(NodeWave(level, amplitudes), children)


def plant(rng, psi: HierState, rate: float, parent_index: int = -1) -> HierState:
    """psi with defects planted at about rate of its nodes, by plain recursion:
    an amplitude count that differs from the basis size, a level not above
    its parent's, or an extra child at a level its siblings do not share."""
    wave, level = psi.wave, psi.wave.level
    children = []
    for child in psi.children:
        children.append(plant(rng, child, rate, level.level_index))
    if rng.random() < rate:
        defect = rng.choice(("count", "not above", "mixed"))
        if defect == "count":
            wave = NodeWave(level, wave.amplitudes + (0j,), wave.statistics, wave.quantum_numbers)
        elif defect == "not above" and parent_index >= 0:
            level = HierarchyLevel(parent_index - rng.randint(0, 1), level.group, level.basis)
            wave = NodeWave(level, wave.amplitudes, wave.statistics, wave.quantum_numbers)
        else:
            children.append(HierState(NodeWave(HierarchyLevel(level.level_index + 2, SU2, (Named("m"),)), (1.0,))))
    return HierState(wave, children)


def shapes():
    """(name, tree) pairs: seeded random_shape trees, plain and with planted
    defects, the edge shapes, and the deep chain, plain and with defects."""
    for seed in SEEDS:
        rng = random.Random(seed)
        psi = fill_shape(rng, random_shape(rng))
        yield f"random {seed}", psi
        yield f"planted {seed}", plant(rng, psi, 0.3)
    yield "lone leaf", chain_state(0)
    yield "root of leaves", chain_state(1, n_leaves=4)
    yield "planted root of leaves", plant(random.Random(1), chain_state(1, n_leaves=6), 0.5)
    yield "chain", chain_state(CHAIN - 1)
    yield "planted chain", plant(random.Random(2), chain_state(CHAIN - 1), 0.01)


@pytest.fixture(scope="module")
def trees():
    with recursion_limit(LIMIT):
        return list(shapes())


def test_the_trees_hold_every_planted_defect(trees):
    found = {}
    with recursion_limit(LIMIT):
        for name, psi in trees:
            found[name] = " ".join(v.message for v in reference_validate_tree(psi))
    for defect in ("amplitude count", "not greater", "children mix"):
        assert defect in " ".join(found.values()) and defect in found["planted chain"]
    assert found["chain"] == found["lone leaf"] == found["root of leaves"] == ""


def test_iter_nodes_matches_recursive_preorder(trees):
    for name, psi in trees:
        with recursion_limit(LIMIT):
            expected = _preorder(psi)
        got = list(iter_nodes(psi))
        assert [p for p, _ in got] == [p for p, _ in expected], name
        assert all(a is b for (_, a), (_, b) in zip(got, expected)), name


@pytest.mark.parametrize("require_normalized", [False, True])
def test_validate_tree_matches_recursive_reference(trees, require_normalized):
    for name, psi in trees:
        with recursion_limit(LIMIT):
            expected = reference_validate_tree(psi, require_normalized)
        assert validate_tree(psi, require_normalized) == expected, name


def test_check_node_matches_recursive_reference(trees):
    spin_trees = [(f"spin {seed}", random_spin_tree(random.Random(seed))) for seed in SEEDS]
    spin_trees.append(("root of spin leaves", HierState(NodeWave(spin_level(0, 2), (0.0, 1.0, 0.0)),
                                                       [HierState(NodeWave(spin_level(1, 1), (1.0, 0.0)))] * 2)))
    kinds = set()
    # a planted amplitude count makes dominant_label raise, so planted trees are left out
    for name, psi in spin_trees + [(n, t) for n, t in trees if "planted" not in n]:
        with recursion_limit(LIMIT):
            expected = reference_check_node(psi)
        assert check_node(psi) == expected, name
        kinds.update(report.reasons for _, report in expected)
    assert len(kinds) >= 3  # physical, unphysical and unsupported nodes were all met
