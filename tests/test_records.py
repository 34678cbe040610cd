"""The result records are named tuples that read like the frozen dataclasses
they replaced: the same repr, field order and keyword construction, and no
field can be assigned."""

from dataclasses import make_dataclass

import pytest

from hierwave.complexity import ComplexityReport, Verdict
from hierwave.dynamics import SimState, Trajectory, TrajectorySample
from hierwave.physicality import PauliViolation
from hierwave.rep_theory import IrrepLabel, decompose_product
from hierwave.repair_cascade import CascadeResult, CascadeStep, ComponentSpec, Remainder
from hierwave.state_tree import Violation

HALF = IrrepLabel(1)
STEP = dict(depth=1, component_names=("a", "b"), product=decompose_product([HALF, HALF]),
            target_multiplicity=1, rebuilt=True)
SAMPLE = TrajectorySample(0.0, -0.5, 0.5, 0.0, 0.0, 1.0, 1.0, 0.125)

# each record with its fields, in the order the dataclass declared them
RECORDS = [
    (Remainder, dict(target_irrep=IrrepLabel(0), components=(ComponentSpec("a", HALF),), complete=False)),
    (CascadeStep, STEP),
    (CascadeResult, dict(feasible=True, levels_descended=1, steps=(CascadeStep(**STEP),), cost=2,
                         witness_irreps=(HALF, HALF))),
    (Violation, dict(path="root.0", message="basis is empty")),
    (PauliViolation, dict(system_path="root", first="root.0", second="root.1",
                          state="((1,), SpinWeight(twice_j=1, twice_m=1))")),
    (ComplexityReport, dict(raw_bits=12, compressed_bits=7, ratio=7 / 12, verdict=Verdict.RULE_LIKE,
                            threshold=0.5)),
    (SimState, dict(t=0.25, x=(-0.5, 0.5), v=(0.0, 1e-3))),
    (Trajectory, dict(samples=[SAMPLE], error="NonpositiveMassError: m")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_reads_like_its_dataclass(cls, fields):
    dataclass = make_dataclass(cls.__name__, list(fields), frozen=True)
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    assert repr(record) == repr(dataclass(**fields))
    assert record == cls(*fields.values()) == tuple(fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_trajectory_error_defaults_to_none():
    assert repr(Trajectory([])) == "Trajectory(samples=[], error=None)"
