"""The value types are plain classes with __slots__ that read like the frozen
dataclasses they replaced: the same repr, equality only within one class, the
hash of the field tuple, and no field can be assigned or deleted."""

import ast
import copy
import itertools
import pickle
from dataclasses import make_dataclass
from pathlib import Path

import pytest

import hierwave
from hierwave.complexity import MatrixElementSeries
from hierwave.dynamics import SimConfig
from hierwave.rep_theory import CGQuery, IrrepLabel, IrrepSum
from hierwave.repair_cascade import ComponentSpec, Organism, RemovalAction
from hierwave.state_tree import SU2, HierarchyLevel, HierState, Named, NodeWave, Point, SpinWeight

HALF = IrrepLabel(1)
LEVEL = HierarchyLevel(1, SU2, (SpinWeight(1, 1), SpinWeight(1, -1)))
WAVE = NodeWave(LEVEL, (1 + 0j, 0.5j))
LEAF = ComponentSpec("leaf", HALF)
SPINS = (0.5, -0.5, 0.5, 0.5)

# each class with two or more field sets, already in normal form, in the order
# the fields were declared; the first two of each differ in one field
VALUES = [
    (SpinWeight, [dict(twice_j=1, twice_m=-1), dict(twice_j=1, twice_m=1), dict(twice_j=2, twice_m=0)]),
    (Point, [dict(index=3), dict(index=-3)]),
    (Named, [dict(text="x"), dict(text="y")]),
    (HierarchyLevel, [dict(level_index=1, group=SU2, basis=LEVEL.basis),
                      dict(level_index=2, group=SU2, basis=LEVEL.basis),
                      dict(level_index=1, group="Translation1D", basis=(Point(0), Named("x")))]),
    (NodeWave, [dict(level=LEVEL, amplitudes=(1 + 0j, 0.5j), statistics="unspecified", quantum_numbers=None),
                dict(level=LEVEL, amplitudes=(1 + 0j, 0.5j), statistics="fermion", quantum_numbers=None),
                dict(level=LEVEL, amplitudes=(1 + 0j, 0.5j), statistics="fermion", quantum_numbers=(1, 0))]),
    (HierState, [dict(wave=WAVE, children=()), dict(wave=WAVE, children=(HierState(WAVE),))]),
    (IrrepLabel, [dict(twice_j=1), dict(twice_j=2)]),
    (IrrepSum, [dict(entries=((IrrepLabel(2), 1), (IrrepLabel(0), 1))), dict(entries=((IrrepLabel(2), 1),))]),
    (CGQuery, [dict(twice_j1=1, twice_m1=1, twice_j2=1, twice_m2=-1, twice_J=0, twice_M=0),
               dict(twice_j1=1, twice_m1=1, twice_j2=1, twice_m2=-1, twice_J=2, twice_M=0)]),
    (ComponentSpec, [dict(name="a", irrep=HALF, subcomponents=()),
                     dict(name="a", irrep=HALF, subcomponents=(LEAF,))]),
    (Organism, [dict(target_irrep=IrrepLabel(0), components=(LEAF, LEAF)),
                dict(target_irrep=IrrepLabel(2), components=(LEAF, LEAF))]),
    (RemovalAction, [dict(removed_indices=frozenset({0, 2})), dict(removed_indices=frozenset({1}))]),
    (SimConfig, [dict(m0=1.0, spins=SPINS, lambda0=0.0, lambda1=0.0, k=1.0, kappa=0.0, x_init=(-0.5, 0.5),
                      v_init=(0.0, 0.0), dt=1e-3, steps=10),
                 dict(m0=1.0, spins=SPINS, lambda0=0.0, lambda1=0.0, k=1.0, kappa=0.0, x_init=(-0.5, 0.5),
                      v_init=(0.0, 0.0), dt=1e-3, steps=20)]),
    (MatrixElementSeries, [dict(values=(0.25, -1.0), quantization=0.1),
                           dict(values=(0.25, -1.0), quantization=0.2)]),
]
IDS = [cls.__name__ for cls, _ in VALUES]

# these hash their pre-order sequence, so that deep trees hash without recursion
PREORDER_HASH = (HierState, ComponentSpec, Organism)


@pytest.mark.parametrize("cls, field_sets", VALUES, ids=IDS)
def test_value_reads_like_a_frozen_dataclass(cls, field_sets):
    reference = make_dataclass(cls.__name__, list(field_sets[0]), frozen=True)
    assert cls.__slots__ == tuple(field_sets[0])
    for a, b in itertools.product(field_sets, repeat=2):
        value, other = cls(**a), cls(**b)
        assert repr(value) == repr(reference(**a))
        assert (value == other) is (reference(**a) == reference(**b)) is (a == b)
        assert (value != other) is (a != b)
    for fields in field_sets:
        value = cls(**fields)
        assert value == cls(*fields.values()) and hash(value) == hash(cls(**fields))
        if cls not in PREORDER_HASH:
            assert hash(value) == hash(reference(**fields)) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls, field_sets", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, field_sets):
    value = cls(**field_sets[0])
    for name in field_sets[0]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert not hasattr(value, "__dict__")
    assert cls(**field_sets[0]) == value  # unchanged


@pytest.mark.parametrize("cls, field_sets", VALUES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_value(cls, field_sets):
    value = cls(**field_sets[-1])
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is cls and again == value and repr(again) == repr(value)


def test_equality_is_within_one_class():
    query = CGQuery(1, 1, 1, -1, 0, 0)
    values = [IrrepLabel(1), (1,), SpinWeight(1, 1), (1, 1), Point(1), query, (1, 1, 1, -1, 0, 0),
              RemovalAction(frozenset({1})), (frozenset({1}),), IrrepSum(()), ((),)]
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b, (a, b)
    assert len(dict.fromkeys(values)) == len(values)
    assert len({IrrepLabel(1): 0, SpinWeight(1, 1): 1, query: 2, (1,): 3, (1, 1): 4}) == 5


def test_irrep_labels_have_no_order():
    with pytest.raises(TypeError):
        IrrepLabel(1) < IrrepLabel(2)  # noqa: B015


def test_only_the_base_defines_equality_and_hash():
    """Every value type takes __eq__ and __hash__ from _Value through its key;
    only the two trees define their own key, and the __reduce__ that rebuilds
    them from it.  A method counts whether written as a def or assigned."""
    defined = set()
    for path in Path(hierwave.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                names = [item.name] if isinstance(item, ast.FunctionDef) else [
                    target.id for target in getattr(item, "targets", ()) if isinstance(target, ast.Name)]
                defined.update((node.name, name) for name in names
                               if name in ("__eq__", "__hash__", "__reduce__", "_key"))
    assert defined == {("_Value", "__eq__"), ("_Value", "__hash__"), ("_Value", "__reduce__"),
                       ("HierState", "_key"), ("HierState", "__reduce__"),
                       ("ComponentSpec", "_key"), ("ComponentSpec", "__reduce__")}


def test_only_the_value_module_spells_the_number_classes():
    """What a number is, the classes int and float together, is written in
    _value alone: no other module holds an (int, float) tuple or set, in an
    isinstance call or anywhere else, in either order."""
    spelled = []
    for path in sorted(Path(hierwave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Tuple, ast.Set)):
                names = {elt.id for elt in node.elts if isinstance(elt, ast.Name)}
                if {"int", "float"} <= names:
                    spelled.append((path.name, node.lineno))
    assert {name for name, _ in spelled} == {"_value.py"}, spelled


def test_only_the_value_module_tests_a_field_class():
    """Whether a field holds a value of its exact class is decided in _value
    alone, by _exact, _members and _numbers: no other module has an `is not`
    comparison of X.__class__ or type(X)."""
    tested = []
    for path in sorted(Path(hierwave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(isinstance(op, ast.IsNot) for op in node.ops):
                left = node.left
                if ((isinstance(left, ast.Attribute) and left.attr == "__class__")
                        or (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                            and left.func.id == "type")):
                    tested.append((path.name, node.lineno))
    assert {name for name, _ in tested} == {"_value.py"}, tested
