"""Levelisation: topological ordering of a netlist's combinational gates.

The simulator evaluates gates level by level; flip-flop outputs and primary
inputs form level 0, and every combinational gate is placed after all of its
drivers.  The order is the combinational order of the netlist's
:class:`~repro.netlist.graph.GateGraph`; it is computed once per netlist and
reused across all simulation batches.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..netlist.graph import gate_graph
from ..netlist.netlist import Netlist


def topological_gate_order(netlist: Netlist) -> List[str]:
    """Return combinational gate names in dependency order.

    Raises:
        LevelizationError: if the combinational portion contains a cycle.
    """
    graph = gate_graph(netlist)
    return [graph.names[v] for v in graph.topological_order()]


def gate_levels(netlist: Netlist) -> Dict[str, int]:
    """Map each combinational gate to its logic level (1 = fed by sources),
    in dependency order.

    Raises:
        LevelizationError: if the combinational portion contains a cycle.
    """
    graph = gate_graph(netlist)
    levels = graph.levels()
    return {graph.names[v]: levels[v] for v in graph.order}


def level_groups(netlist: Netlist) -> List[Tuple[int, List[str]]]:
    """Group combinational gates by level, sorted by level ascending."""
    levels = gate_levels(netlist)
    grouped: Dict[int, List[str]] = {}
    for name, level in levels.items():
        grouped.setdefault(level, []).append(name)
    return [(level, sorted(names)) for level, names in sorted(grouped.items())]
