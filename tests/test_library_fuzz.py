"""Library-level fuzz: the object loaders and the value constructors either
succeed or raise ValueError (or a subclass) on junk fields, whatever their
type and at any nesting depth."""

import json
import math
import random
from decimal import Decimal
from enum import IntEnum
from pathlib import Path

import pytest

import hierwave
from hierwave._value import _members, _shown
from hierwave.complexity import MatrixElementSeries, classify
from hierwave.dynamics import SimConfig, sim_config_from_obj
from hierwave.physicality import pauli_check
from hierwave.rep_theory import CGQuery, IrrepLabel
from hierwave.repair_cascade import ComponentSpec, Organism, Remainder, RemovalAction, organism_from_obj, repair
from hierwave.state_tree import SU2, HierarchyLevel, HierState, Named, NodeWave, Point, SpinWeight, state_from_obj

DATA = Path(hierwave.__file__).parent / "data"

DEEP = []  # [[...[]...]], 5,000 levels: past repr()'s and str()'s recursion limit on 3.11 and 3.12
for _ in range(5_000):
    DEEP = [DEEP]
JUNK = [None, True, False, 10**400, math.nan, "", [], {}, [1], {"a": 1}, DEEP]
JUNK_IDS = ["None", "True", "False", "10**400", "nan", "empty-str", "empty-list", "empty-dict", "[1]",
            "{a: 1}", "deep"]

LOADERS = {
    "two_spin_example.json": state_from_obj,
    "hydra.json": organism_from_obj,
    "harmonic_benchmark.json": sim_config_from_obj,
}


def _slots(doc):
    """Every (container, key) of doc: each object value and array item, at any depth."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            slots.append((node, key))
            stack.append(node[key])
    return slots


def _mutant(rng, text):
    """A fresh copy of the document with 1-3 of its fields replaced by junk; the
    junk itself is shared between mutants, which no loader changes."""
    doc = json.loads(text)
    for container, key in rng.sample(_slots(doc), rng.randint(1, 3)):
        container[key] = rng.choice(JUNK)
    return doc


@pytest.mark.parametrize("name", LOADERS)
def test_object_loaders_raise_only_value_error_on_seeded_mutants(name):
    text, load = (DATA / name).read_text(encoding="utf-8"), LOADERS[name]
    rng = random.Random(27)
    loaded = refused = 0
    for i in range(1_000):
        doc = _mutant(rng, text)
        try:
            load(doc)
        except ValueError:
            refused += 1
        except Exception as exc:  # noqa: BLE001 -- any other type breaks the contract
            pytest.fail(f"mutant {i} of {name} raised {type(exc).__name__}: {_shown(exc)}")
        else:
            loaded += 1
    assert refused >= 250, (loaded, refused)


SPINS = (0.5,) * 4
LEVEL = HierarchyLevel(0, SU2, (SpinWeight(1, 1),))
WAVE = NodeWave(LEVEL, (1,))
SIM_FIELDS = {"m0": 1.0, "spins": SPINS, "lambda0": 0.0, "lambda1": 0.0, "k": 0.0, "kappa": 0.0,
              "x_init": (0.0, 0.0), "v_init": (0.0, 0.0), "dt": 0.1, "steps": 10}
CONSTRUCTORS = {
    "SpinWeight-twice_j": lambda v: SpinWeight(v, 0),
    "SpinWeight-twice_m": lambda v: SpinWeight(2, v),
    "IrrepLabel": IrrepLabel,
    "Point-index": Point,
    **{f"CGQuery-{i}": lambda v, i=i: CGQuery(*[v if k == i else 1 for k in range(6)]) for i in range(6)},
    "HierarchyLevel-level_index": lambda v: HierarchyLevel(v, SU2, ()),
    "HierarchyLevel-group": lambda v: HierarchyLevel(0, v, ()),
    "HierarchyLevel-basis": lambda v: HierarchyLevel(0, SU2, v),
    "Named-text": Named,
    "NodeWave-level": lambda v: NodeWave(v, (1,)),
    "NodeWave-amplitudes": lambda v: NodeWave(LEVEL, v),
    "NodeWave-statistics": lambda v: NodeWave(LEVEL, (1,), v),
    "NodeWave-quantum_numbers": lambda v: NodeWave(LEVEL, (1,), quantum_numbers=v),
    "HierState-wave": HierState,
    "HierState-children": lambda v: HierState(WAVE, v),
    "ComponentSpec-name": lambda v: ComponentSpec(v, IrrepLabel(1)),
    "ComponentSpec-irrep": lambda v: ComponentSpec("a", v),
    "ComponentSpec-subcomponents": lambda v: ComponentSpec("a", IrrepLabel(1), v),
    "Organism-target_irrep": lambda v: Organism(v, ()),
    "Organism-components": lambda v: Organism(IrrepLabel(0), v),
    "RemovalAction-removed_indices": RemovalAction,
    **{f"SimConfig-{field}": lambda v, field=field: SimConfig(**{**SIM_FIELDS, field: v}) for field in SIM_FIELDS},
    "MatrixElementSeries-values": lambda v: MatrixElementSeries(v, 0.1),
    "MatrixElementSeries-quantization": lambda v: MatrixElementSeries((1.0, 2.0), v),
}
# the numeric arguments of the library functions, named as a field is
ARGUMENTS = {
    "pauli_check-scope": lambda v: pauli_check(HierState(WAVE), v),
    "repair-max_depth": lambda v: repair(Remainder(IrrepLabel(0), (ComponentSpec("a", IrrepLabel(1)),), False), v),
    "classify-threshold": lambda v: classify(MatrixElementSeries((1.0, 2.0), 0.1), v),
}
CALLS = {**CONSTRUCTORS, **ARGUMENTS}


@pytest.mark.parametrize("name", CALLS)
def test_value_constructors_raise_only_value_error_on_junk(name):
    for value, value_id in zip(JUNK, JUNK_IDS):
        try:
            CALLS[name](value)
        except ValueError:
            pass
        except Exception as exc:  # noqa: BLE001 -- any other type breaks the contract
            pytest.fail(f"{name}({value_id}) raised {type(exc).__name__}: {_shown(exc)}")


# a value of the wrong type for the field, or a container holding one: each
# raised a bare TypeError, or was kept
NOT_ITERABLE = ("None", "True", "10**400", "nan")
NOT_ONE = ("None", "True", "10**400", "empty-list", "deep")  # for a field that holds one str or value object
WRONG_MEMBERS = ("[1]", "{a: 1}", "deep")
NOT_AN_INT = tuple(v for v in JUNK_IDS if v != "10**400")  # an int is exact: a bool is not one
NOT_A_NUMBER = ("None", "empty-str", "empty-list", "empty-dict", "[1]", "{a: 1}", "deep")  # not comparable with floats
WRONG_TYPES = {
    "Point-index": NOT_AN_INT,
    "HierarchyLevel-level_index": ("None", "True", "nan", "empty-str", "deep"),
    "HierarchyLevel-group": NOT_ONE,
    "HierarchyLevel-basis": NOT_ITERABLE + WRONG_MEMBERS,
    "Named-text": NOT_ONE,
    "NodeWave-level": NOT_ONE,
    "NodeWave-amplitudes": ("None", "True", "10**400", "nan", "deep"),
    "HierState-wave": NOT_ONE,
    "HierState-children": NOT_ITERABLE + WRONG_MEMBERS,
    "ComponentSpec-name": NOT_ONE,
    "ComponentSpec-irrep": NOT_ONE,
    "ComponentSpec-subcomponents": NOT_ITERABLE + WRONG_MEMBERS,
    "Organism-target_irrep": NOT_ONE,
    "Organism-components": NOT_ITERABLE + WRONG_MEMBERS,
    "RemovalAction-removed_indices": NOT_ITERABLE + ("{a: 1}", "deep"),
    "MatrixElementSeries-values": ("None", "False", "10**400", "nan", "deep"),
    "MatrixElementSeries-quantization": ("None", "True", "False", "empty-str", "empty-list", "empty-dict", "[1]",
                                         "{a: 1}", "deep"),
    "pauli_check-scope": NOT_AN_INT,
    "repair-max_depth": NOT_AN_INT,
    "classify-threshold": NOT_A_NUMBER,
}


@pytest.mark.parametrize("name, value_id", [(name, v) for name, ids in WRONG_TYPES.items() for v in ids])
def test_wrong_type_is_named_with_its_shown_value(name, value_id):
    value = JUNK[JUNK_IDS.index(value_id)]
    with pytest.raises(ValueError) as caught:
        CALLS[name](value)
    field = name.split("-")[1]
    message = str(caught.value)
    assert message.startswith(f"{field} must be ") and message.endswith(f", got {_shown(value)}"), message


class One(IntEnum):
    ONE = 1


class Text(str):
    pass


# plain subclasses, without __slots__, of the value classes a field holds
class SubLevel(HierarchyLevel):
    pass


class SubWave(NodeWave):
    pass


class SubIrrep(IrrepLabel):
    pass


# each field of one value that _value._exact checks, but for CGQuery's, whose
# messages open with a prefix: its name and class in messages, and an
# instance of a subclass of that class, which an isinstance test would keep
SUBCLASSED = {
    "Point-index": ("index", "an int", One.ONE),
    "SpinWeight-twice_j": ("twice_j", "an int", One.ONE),
    "SpinWeight-twice_m": ("twice_m", "an int", One.ONE),
    "IrrepLabel": ("twice_j", "an int", One.ONE),
    "HierarchyLevel-level_index": ("level_index", "an int", One.ONE),
    "HierarchyLevel-group": ("group", "a str", Text(SU2)),
    "Named-text": ("text", "a str", Text("a")),
    "NodeWave-level": ("level", "a HierarchyLevel", SubLevel(0, SU2, (SpinWeight(1, 1),))),
    "HierState-wave": ("wave", "a NodeWave", SubWave(LEVEL, (1,))),
    "ComponentSpec-name": ("name", "a str", Text("a")),
    "ComponentSpec-irrep": ("irrep", "an IrrepLabel", SubIrrep(1)),
    "Organism-target_irrep": ("target_irrep", "an IrrepLabel", SubIrrep(0)),
    "pauli_check-scope": ("scope", "an int", One.ONE),
    "repair-max_depth": ("max_depth", "an int", One.ONE),
}


@pytest.mark.parametrize("name", SUBCLASSED)
def test_field_of_one_value_refuses_a_subclass_of_its_class(name):
    field, what, value = SUBCLASSED[name]
    with pytest.raises(ValueError) as caught:
        CALLS[name](value)
    assert str(caught.value) == f"{field} must be {what}, got {_shown(value)}"


# a value that is not a number (_value._numbers) though float() or complex() takes
# it, and each number field: its name in messages and its value holding that value
NOT_NUMBERS = {"str": "1.5", "bool": True, "Decimal": Decimal("1.5"), "IntEnum": One.ONE}
NUMBER_FIELDS = {
    "NodeWave-amplitudes": ("amplitudes", lambda v: (1.0, v)),
    "MatrixElementSeries-values": ("values", lambda v: (1.0, v)),
    **{f"SimConfig-{field}": (field, lambda v: v) for field in ("m0", "lambda0", "lambda1", "dt")},
    "SimConfig-k": ("potential_U k", lambda v: v),
    "SimConfig-kappa": ("potential_Lambda kappa", lambda v: v),
    "SimConfig-spins": ("spins", lambda v: (v,) + SPINS[1:]),
    "SimConfig-x_init": ("x_init", lambda v: (v, 0.0)),
    "SimConfig-v_init": ("v_init", lambda v: (0.0, v)),
}


@pytest.mark.parametrize("name, value_id", [(name, v) for name in NUMBER_FIELDS for v in NOT_NUMBERS])
def test_number_field_refuses_what_is_not_a_number(name, value_id):
    field, holding = NUMBER_FIELDS[name]
    value = holding(NOT_NUMBERS[value_id])
    with pytest.raises(ValueError) as caught:
        CALLS[name](value)
    message = str(caught.value)
    assert message.startswith(f"{field} must be ") and message.endswith(f", got {_shown(value)}"), message


@pytest.mark.parametrize("value_id", NOT_ITERABLE)
def test_children_check_written_out_in_hier_state_matches_members(value_id):
    value = JUNK[JUNK_IDS.index(value_id)]
    with pytest.raises(ValueError) as expected:
        _members(value, (HierState,), "children", "a sequence of HierStates")
    with pytest.raises(ValueError) as caught:
        HierState(WAVE, value)
    assert str(caught.value) == str(expected.value)
