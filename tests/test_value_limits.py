"""Value types at their limits: trees copy and pickle at any depth, and a
constructor or loader refuses an oversized value with a bounded, named
ValueError."""

import ast
import copy
import importlib
import pickle
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from hierwave.complexity import MatrixElementSeries, symbolize
from hierwave.dynamics import SimConfig, sim_config_from_obj
from hierwave.rep_theory import CGQuery, InvalidQueryError, IrrepLabel
from hierwave.repair_cascade import ComponentSpec, Organism
from hierwave.state_tree import SU2, HierarchyLevel, HierState, NodeWave, SpinWeight, state_from_obj, state_to_obj

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


# trees whose every node but the root is a leaf, which _assemble makes without a stack entry
LEAFY = {
    "lone HierState": lambda: chain_state(0),
    "HierState of leaves": lambda: chain_state(1, n_leaves=3),
    "ComponentSpec of leaves": lambda: ComponentSpec("c", ONE, (ComponentSpec("a", HALF), ComponentSpec("b", HALF))),
    "lone ComponentSpec": lambda: ComponentSpec("a", HALF),
}


@pytest.mark.parametrize("tree", LEAFY)
@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_trees_of_leaves_copy_equal(how, tree):
    value = LEAFY[tree]()
    again = COPIES[how](value)
    assert type(again) is type(value) and again is not value
    assert again == value and hash(again) == hash(value)
    below = lambda node: node.children if isinstance(node, HierState) else node.subcomponents
    assert below(again).__class__ is tuple and all(below(leaf) == () for leaf in below(again))


HUGE_TEXT = "x" * 10**6
DEEP = []  # [[...[]...]], 5,000 levels: past repr()'s recursion limit on 3.11 and 3.12 (3.13 shows it)
for _ in range(5_000):
    DEEP = [DEEP]
REJECTED = [
    (lambda: IrrepLabel(HUGE_TEXT), ValueError, "twice_j must be an int, got 'xxx"),
    (lambda: CGQuery(HUGE_TEXT, 1, 1, 1, 0, 0), InvalidQueryError, "j1/m1: twice_j must be an int, got 'xxx"),
    (lambda: MatrixElementSeries((1.0,), -10**5000), ValueError,
     "quantization must be positive and finite, got an int of 16610 bits"),
    (lambda: SimConfig(10**400, SPINS), ValueError, "m0 must lie within the float range, got 1000"),
    (lambda: SimConfig(1.0, SPINS, dt=10**400), ValueError, "dt must lie within the float range, got 1000"),
    (lambda: SimConfig(10**5000, SPINS), ValueError, "m0 must lie within the float range, got an int of"),
    (lambda: NodeWave(LEVEL, [10**400]), ValueError, "amplitudes must lie within the float range, got [1000"),
    (lambda: state_from_obj({**state_to_obj(chain_state(1)), "amplitudes": DEEP}), ValueError,
     "amplitudes must be [re, im] pairs of finite numbers, got "),
    (lambda: sim_config_from_obj({"m0": DEEP, "spins": SPINS, "x_init": [0, 0], "v_init": [0, 0], "dt": 0.1,
                                  "steps": 1}), ValueError, "m0 must be a number, got "),
]
REJECTED_IDS = ["IrrepLabel", "CGQuery", "MatrixElementSeries", "SimConfig-m0", "SimConfig-dt",
                "SimConfig-m0-digits", "NodeWave", "state_from_obj-deep", "sim_config_from_obj-deep"]


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
    with pytest.raises(ValueError) as caught:
        MatrixElementSeries((1.0, 2.0), 10**400)
    assert str(caught.value) == f"quantization must lie within the float range, got {10**400}"


@pytest.mark.parametrize("step", [Decimal("0.1"), Decimal(2)])
def test_series_refuses_a_quantization_that_a_float_cannot_divide_by(step):
    # it orders with floats, so it passed the positivity check, but symbolize divides floats by it
    with pytest.raises(ValueError) as caught:
        MatrixElementSeries((1.0, 2.0), step)
    assert str(caught.value) == f"quantization must be a number, got {step!r}"


def test_series_keeps_a_fraction_quantization_exact_through_symbolize():
    series = MatrixElementSeries((1.0, 2.0, -0.5), Fraction(1, 3))
    assert series.quantization == Fraction(1, 3)
    assert symbolize(series) == [3, 6, -2]


def test_series_refuses_a_fraction_quantization_that_rounds_to_zero():
    # float() of it is 0.0, by which symbolize would divide; a Fraction inside the float range is kept
    with pytest.raises(ValueError, match=r"^quantization must lie within the float range, got Fraction\(1, 1000"):
        MatrixElementSeries((1.0, 2.0), Fraction(1, 10**400))
    assert MatrixElementSeries((1.0, 2.0), Fraction(1, 3)).quantization == Fraction(1, 3)


SRC = Path(__file__).resolve().parents[1] / "src" / "hierwave"


def test_readme_table_lists_every_limit():
    # a module-level MAX_* name, with its value, must be a row of the README's limits table
    rows = {}
    for line in (SRC.parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `MAX_"):
            name, value = (cell.strip() for cell in line.split("|")[1:3])
            rows[name.strip("`")] = int(value.replace(",", ""))
    limits = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"hierwave.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                        limits[target.id] = getattr(module, target.id)
    assert rows == limits
