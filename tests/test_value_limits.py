"""Value types at their limits: trees copy and pickle at any depth, and a
constructor refuses an oversized value with a bounded, named ValueError."""

import copy
import pickle

import pytest

from hierwave.complexity import MatrixElementSeries
from hierwave.dynamics import SimConfig
from hierwave.rep_theory import CGQuery, InvalidQueryError, IrrepLabel
from hierwave.repair_cascade import ComponentSpec, Organism
from hierwave.state_tree import SU2, HierarchyLevel, NodeWave, SpinWeight

from helpers import chain_state

HALF, ONE = IrrepLabel(1), IrrepLabel(2)
SPINS = (0.5,) * 4
LEVEL = HierarchyLevel(0, SU2, (SpinWeight(1, 1),))


def chain_component(depth: int) -> ComponentSpec:
    comp = ComponentSpec("leaf", HALF)
    for _ in range(depth - 1):
        comp = ComponentSpec("c", ONE, (comp,))
    return comp


TREES = {
    "HierState": chain_state,
    "ComponentSpec": chain_component,
    "Organism": lambda depth: Organism(ONE, (chain_component(depth), ComponentSpec("e", HALF))),
}
COPIES = {
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("depth", [3_000, 10_000])
@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("how", COPIES)
def test_deep_tree_copies_equal(how, tree, depth):
    value = TREES[tree](depth)
    again = COPIES[how](value)
    assert type(again) is type(value) and again is not value
    assert again == value and hash(again) == hash(value)


HUGE_TEXT = "x" * 10**6
REJECTED = [
    (lambda: IrrepLabel(HUGE_TEXT), ValueError, "twice_j must be an int, got 'xxx"),
    (lambda: CGQuery(HUGE_TEXT, 1, 1, 1, 0, 0), InvalidQueryError, "twice_j1 must be an int, got 'xxx"),
    (lambda: MatrixElementSeries((1.0,), -10**5000), ValueError,
     "quantization must be positive and finite, got an int of 16610 bits"),
    (lambda: SimConfig(10**400, SPINS), ValueError, "m0 must lie within the float range, got 1000"),
    (lambda: SimConfig(1.0, SPINS, dt=10**400), ValueError, "dt must lie within the float range, got 1000"),
    (lambda: SimConfig(10**5000, SPINS), ValueError, "m0 must lie within the float range, got an int of"),
    (lambda: NodeWave(LEVEL, [10**400]), ValueError, "amplitudes must lie within the float range, got [1000"),
]
REJECTED_IDS = ["IrrepLabel", "CGQuery", "MatrixElementSeries", "SimConfig-m0", "SimConfig-dt",
                "SimConfig-m0-digits", "NodeWave"]


@pytest.mark.parametrize("build, error, start", REJECTED, ids=REJECTED_IDS)
def test_constructor_rejects_with_a_bounded_named_message(build, error, start):
    with pytest.raises(error) as caught:
        build()
    message = str(caught.value)
    assert message.startswith(start) and len(message) < 600


@pytest.mark.parametrize("field, value", [
    ("spins", (0.5, 0.5, 10**400, 0.5)),
    ("x_init", (10**400, 0)),
    ("v_init", (0.0, -10**400)),
])
def test_sim_config_names_a_field_past_the_float_range(field, value):
    fields = {"spins": SPINS, field: value}
    with pytest.raises(ValueError, match=f"^{field} must lie within the float range, got \\(") as caught:
        SimConfig(1.0, **fields)
    assert len(str(caught.value)) < 600


def test_series_refuses_a_quantization_past_the_float_range():
    with pytest.raises(ValueError, match="^quantization must lie within the float range, got an int of 1329 bits$"):
        MatrixElementSeries((1.0, 2.0), 10**400)
