"""Area / power / delay analysis of a netlist (paper Table IV metrics).

The paper reports design overheads of the masked netlists as multiples of
the original design's area (um^2), power (mW) and delay (ns), obtained from
the ASIC flow's reports.  This module provides the equivalent analysis on
top of the offline cell library:

* **area** — sum of fan-in-scaled cell areas;
* **power** — static leakage plus activity-weighted dynamic power (the
  average switching activity can be supplied from simulation; a default
  activity factor is used otherwise);
* **delay** — critical combinational path found by a longest-path static
  timing analysis over the levelised gate graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..netlist.cell_library import CellLibrary
from ..netlist.graph import gate_graph
from ..netlist.netlist import Netlist


@dataclass(frozen=True)
class DesignMetrics:
    """Area/power/delay summary of one netlist.

    Attributes:
        area: Total cell area in square micrometres.
        power: Estimated total power in milliwatts.
        delay: Critical-path delay in nanoseconds.
        gate_count: Number of non-port cells.
    """

    area: float
    power: float
    delay: float
    gate_count: int

    def ratios_to(self, baseline: "DesignMetrics") -> Dict[str, float]:
        """Return area/power/delay of ``self`` as multiples of ``baseline``."""
        def _ratio(value: float, reference: float) -> float:
            return value / reference if reference > 0 else float("inf")

        return {
            "area": _ratio(self.area, baseline.area),
            "power": _ratio(self.power, baseline.power),
            "delay": _ratio(self.delay, baseline.delay),
        }


#: Default toggle probability assumed when no simulated activity is provided.
DEFAULT_ACTIVITY = 0.25

#: Conversion factor from (switching energy x activity) to milliwatts at the
#: nominal clock frequency assumed by the reports.
_DYNAMIC_POWER_SCALE = 1.0e-3

#: Conversion factor from leakage microwatts to milliwatts.
_LEAKAGE_SCALE = 1.0e-3


def analyze_design(
    netlist: Netlist,
    library: Optional[CellLibrary] = None,
    activity: Optional[Mapping[str, float]] = None,
) -> DesignMetrics:
    """Compute :class:`DesignMetrics` for ``netlist``.

    Args:
        netlist: The design to analyse.
        library: Cell library; defaults to the netlist's own library.
        activity: Optional per-gate toggle probability (from
            :func:`repro.simulation.switching.switching_activity`); gates
            missing from the mapping use :data:`DEFAULT_ACTIVITY`.

    A combinational loop raises ``LevelizationError``.
    """
    library = library if library is not None else netlist.library
    area = 0.0
    dynamic = 0.0
    leakage = 0.0
    count = 0
    for gate in netlist.gates:
        if gate.gate_type.is_port:
            continue
        count += 1
        # ``overhead_scale`` lets a protection transform model a heavier
        # implementation of the same cell (e.g. VALIANT's up-sized gates).
        scale = float(gate.attributes.get("overhead_scale", 1.0))
        area += library.area(gate.gate_type, gate.fanin) * scale
        leakage += library.leakage_power(gate.gate_type) * scale
        toggle_probability = DEFAULT_ACTIVITY
        if activity is not None:
            toggle_probability = float(activity.get(gate.name, DEFAULT_ACTIVITY))
        dynamic += (library.switching_energy(gate.gate_type, gate.fanin)
                    * toggle_probability * scale)
    power = dynamic * _DYNAMIC_POWER_SCALE * 1000.0 + leakage * _LEAKAGE_SCALE
    delay = critical_path_delay(netlist, library)
    return DesignMetrics(area=area, power=power, delay=delay, gate_count=count)


def critical_path_delay(netlist: Netlist,
                        library: Optional[CellLibrary] = None) -> float:
    """Longest combinational path delay (ns) through the design.

    Sequential elements contribute their clock-to-Q delay at path starts.
    A combinational loop raises ``LevelizationError``.
    """
    library = library if library is not None else netlist.library
    graph = gate_graph(netlist)
    order = graph.topological_order()
    if not order:
        return 0.0
    arrival = [0.0] * len(graph.names)
    best = 0.0
    for v in order:
        gate = netlist.gate(graph.names[v])
        scale = float(gate.attributes.get("overhead_scale", 1.0))
        cell_delay = library.delay(gate.gate_type, gate.fanin) * scale
        start = max((arrival[u] for u in graph.fanin[v]), default=0.0)
        arrival[v] = start + cell_delay
        best = max(best, arrival[v])
    # Registers add their own delay at the capture edge.
    sequential = netlist.sequential_gates()
    if sequential:
        best += max(library.delay(g.gate_type, g.fanin) for g in sequential)
    return best


def overhead_report(original: DesignMetrics, masked: DesignMetrics) -> Dict[str, float]:
    """Flat report comparing a masked design against the original.

    Returns a dictionary with the original values, the masked-to-original
    multipliers and the percentage increases, mirroring the layout of the
    paper's Table IV.
    """
    ratios = masked.ratios_to(original)
    return {
        "original_area": original.area,
        "original_power": original.power,
        "original_delay": original.delay,
        "masked_area": masked.area,
        "masked_power": masked.power,
        "masked_delay": masked.delay,
        "area_ratio": ratios["area"],
        "power_ratio": ratios["power"],
        "delay_ratio": ratios["delay"],
        "area_increase_pct": (ratios["area"] - 1.0) * 100.0,
        "power_increase_pct": (ratios["power"] - 1.0) * 100.0,
        "delay_increase_pct": (ratios["delay"] - 1.0) * 100.0,
    }
