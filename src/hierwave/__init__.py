"""Hierarchical wave-function toolkit."""

from .complexity import (
    ComplexityReport,
    MatrixElementSeries,
    Verdict,
    classify,
    description_length,
    symbolize,
)
from .dynamics import SimConfig, Trajectory, energy, run, step
from .physicality import (
    CoupledLabel,
    PhysicalityReport,
    check_basis_state,
    check_node,
    pauli_check,
)
from .rep_theory import (
    CGQuery,
    IrrepLabel,
    IrrepSum,
    clebsch_gordan,
    couple_pair,
    decompose_product,
)
from .repair_cascade import (
    CascadeResult,
    ComponentSpec,
    Organism,
    RemovalAction,
    amputate,
    ionize_recombine,
    repair,
)
from .state_tree import (
    HierarchyLevel,
    HierState,
    NodeWave,
    SpinWeight,
    add,
    congruent,
    scalar_mul,
    validate_tree,
)

__version__ = "0.1.0"
