"""Physicality checks for hierarchical basis states.

A parent basis label is physical only if its irrep appears in the tensor
product of its children's irreps and its weight equals the sum of the
children's weights.  The exclusion check generalizes the Pauli principle
one level up: two fermionic components of the *same* next-level system
may not carry the same quantum state; components of different systems
are never compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import NamedTuple

from .rep_theory import IrrepLabel, decompose_product
from .state_tree import (
    FERMION,
    SU2,
    HierState,
    NodeWave,
    SpinWeight,
    dominant_label,
    iter_nodes,
)


class Reason(Enum):
    PARENT_IRREP_ABSENT = "ParentIrrepAbsent"
    WEIGHT_MISMATCH = "WeightMismatch"
    UNSUPPORTED_GROUP = "UnsupportedGroup"


class ArityMismatchError(ValueError):
    """Child weight list and child spin list disagree in length."""


@dataclass(frozen=True)
class CoupledLabel:
    """A coupled basis state: total irrep J, total weight M, and the weights
    of the components it was built from (all weights as doubled integers)."""

    j: IrrepLabel
    twice_m: int
    child_twice_ms: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "child_twice_ms", tuple(self.child_twice_ms))
        if abs(self.twice_m) > self.j.twice_j:
            raise ValueError(f"|M| > J: 2M={self.twice_m}, 2J={self.j.twice_j}")
        if (self.twice_m - self.j.twice_j) % 2 != 0:
            raise ValueError(f"M/J parity mismatch: 2M={self.twice_m}, 2J={self.j.twice_j}")


@dataclass(frozen=True)
class PhysicalityReport:
    physical: bool
    reasons: tuple[Reason, ...]
    parent_multiplicity: int

    def __post_init__(self) -> None:
        assert self.physical == (len(self.reasons) == 0)


def check_basis_state(parent: CoupledLabel, child_spins: list[IrrepLabel]) -> PhysicalityReport:
    """Decide whether a coupled parent label can arise from the given children.

    Physical iff the parent irrep occurs in the decomposition of the
    children's tensor product and the parent weight is the sum of the
    child weights.
    """
    if len(parent.child_twice_ms) != len(child_spins):
        raise ArityMismatchError(
            f"{len(parent.child_twice_ms)} child weights vs {len(child_spins)} child spins"
        )
    for tm, spin in zip(parent.child_twice_ms, child_spins):
        if abs(tm) > spin.twice_j or (tm - spin.twice_j) % 2 != 0:
            raise ValueError(f"child weight 2m={tm} invalid for spin 2j={spin.twice_j}")

    reasons: list[Reason] = []
    mult = decompose_product(list(child_spins)).multiplicity(parent.j)
    if mult == 0:
        reasons.append(Reason.PARENT_IRREP_ABSENT)
    if parent.twice_m != sum(parent.child_twice_ms):
        reasons.append(Reason.WEIGHT_MISMATCH)
    return PhysicalityReport(not reasons, tuple(reasons), mult)


def _spin_node(node: HierState) -> SpinWeight | None:
    """Dominant label of an SU(2) node, or None if the node is not SU(2)-labeled."""
    if node.wave.level.group != SU2 or not node.wave.amplitudes:
        return None
    label = dominant_label(node.wave)
    return label if isinstance(label, SpinWeight) else None


def check_node(psi: HierState) -> list[tuple[str, PhysicalityReport]]:
    """Check every internal node's dominant basis label against the dominant
    labels of its children; one (path, report) per internal node.  Each path
    is O(depth) characters long, so a depth-d chain returns O(d^2)
    characters (at d = 10^4, peak RSS rises from 22 to 121 MB)."""
    out: list[tuple[str, PhysicalityReport]] = []
    for path, node in iter_nodes(psi):
        if not node.children:
            continue
        parent_label = _spin_node(node)
        child_labels = [_spin_node(c) for c in node.children]
        if parent_label is None or any(c is None for c in child_labels):
            out.append((path, PhysicalityReport(False, (Reason.UNSUPPORTED_GROUP,), 0)))
            continue
        parent = CoupledLabel(
            j=IrrepLabel(parent_label.twice_j),
            twice_m=parent_label.twice_m,
            child_twice_ms=tuple(c.twice_m for c in child_labels),
        )
        spins = [IrrepLabel(c.twice_j) for c in child_labels]
        out.append((path, check_basis_state(parent, spins)))
    return out


class PauliViolation(NamedTuple):
    system_path: str
    first: str
    second: str
    state: str


def _state_key(wave: NodeWave):
    if wave.statistics != FERMION or not wave.amplitudes:
        return None
    return (wave.quantum_numbers, dominant_label(wave))


def pauli_check(psi: HierState, scope: int = 1) -> list[PauliViolation]:
    """Find pairs of fermionic components of one system in the same state.

    "Same state" means equal (quantum_numbers, dominant basis label).
    ``scope`` selects which ancestor counts as "the system": 1 compares
    direct siblings only, 2 compares all grandchildren of one node, etc.
    Components of different systems are never compared.
    """
    if scope < 1:
        raise ValueError("scope must be >= 1")
    groups: dict[tuple, list[str]] = {}
    for path, node in iter_nodes(psi):
        system, *below = path.rsplit(".", scope)  # fewer than scope levels deep: no system
        if len(below) == scope and (key := _state_key(node.wave)) is not None:
            groups.setdefault((system, key), []).append(path)
    violations = [PauliViolation(system, a, b, repr(key))
                  for (system, key), paths in groups.items() for a, b in combinations(paths, 2)]
    # system, then first, then second in pre-order: the lexicographic order of child indices
    violations.sort(key=lambda v: [[int(i) for i in p.split(".")[1:]]
                                   for p in (v.system_path, v.first, v.second)])
    return violations
