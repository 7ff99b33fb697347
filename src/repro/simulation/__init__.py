"""Vectorised gate-level logic simulation (levelise → compile → execute)."""

from ..netlist.graph import LevelizationError
from .logic import evaluate_gate, gate_truth_table
from .levelize import gate_levels, level_groups, topological_gate_order
from .compiled import CompilationError, CompiledNetlist, GateSegment
from .simulator import (
    LogicSimulator,
    SimulationError,
    SimulationResult,
    functional_equivalent,
    simulate,
)
from .vectors import (
    TraceCampaign,
    fixed_vector,
    fixed_vs_fixed_campaigns,
    fixed_vs_random_campaigns,
    input_matrix_to_dict,
    random_vectors,
)

__all__ = [
    "evaluate_gate",
    "gate_truth_table",
    "LevelizationError",
    "gate_levels",
    "level_groups",
    "topological_gate_order",
    "CompilationError",
    "CompiledNetlist",
    "GateSegment",
    "LogicSimulator",
    "SimulationError",
    "SimulationResult",
    "functional_equivalent",
    "simulate",
    "TraceCampaign",
    "fixed_vector",
    "fixed_vs_fixed_campaigns",
    "fixed_vs_random_campaigns",
    "input_matrix_to_dict",
    "random_vectors",
]
