"""networkx oracles of the netlist topology queries.

The library answers every topology query from one integer
:class:`~repro.netlist.graph.GateGraph`.  These are the networkx versions it
replaced, kept as they were apart from the port pseudo-vertices, which no
query used.  The tests pin the gate graph's BFS neighbourhoods
(:func:`neighborhood`), topological order, logic levels, critical-path delay,
logic depth and structural feature matrices to them.  Only this module
needs networkx.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import networkx as nx

from repro.features.encoding import GateTypeEncoder
from repro.features.structural import StructuralFeatureExtractor
from repro.netlist.cell_library import CellLibrary
from repro.netlist.graph import LevelizationError
from repro.netlist.netlist import Netlist


def netlist_to_graph(netlist: Netlist) -> nx.DiGraph:
    """Convert ``netlist`` to a directed gate graph.

    Vertices are gate names; an edge ``u -> v`` means the output of ``u``
    feeds an input of ``v``.  Each gate vertex carries ``gate_type``
    (string) and ``fanin`` attributes; each edge carries the connecting
    ``net`` name.
    """
    graph = nx.DiGraph(name=netlist.name)
    for gate in netlist.gates:
        graph.add_node(gate.name, gate_type=gate.gate_type.value, fanin=gate.fanin)
    for gate in netlist.gates:
        for net in gate.inputs:
            driver = netlist.driver_of(net)
            if driver is not None:
                graph.add_edge(driver.name, gate.name, net=net)
    return graph


def combinational_graph(netlist: Netlist) -> nx.DiGraph:
    """Gate graph restricted to combinational cells with DFF edges cut.

    Flip-flop outputs are treated as pseudo primary inputs and flip-flop
    inputs as pseudo primary outputs, yielding a DAG suitable for
    levelisation and static timing analysis even for sequential designs.
    """
    graph = netlist_to_graph(netlist)
    sequential = {g.name for g in netlist.sequential_gates()}
    dag = nx.DiGraph(name=netlist.name)
    dag.add_nodes_from(
        (n, d) for n, d in graph.nodes(data=True) if n not in sequential
    )
    for u, v, data in graph.edges(data=True):
        if u in sequential or v in sequential:
            continue
        dag.add_edge(u, v, **data)
    return dag


def neighborhood(graph: nx.DiGraph, gate_name: str, size: int) -> List[str]:
    """Return up to ``size`` gates around ``gate_name`` in BFS order.

    The BFS alternately explores successors and predecessors (treating the
    graph as undirected for locality purposes) and excludes the seed gate
    itself.
    """
    if gate_name not in graph:
        raise KeyError(f"gate {gate_name!r} not in graph")
    visited: Set[str] = {gate_name}
    frontier: List[str] = [gate_name]
    ordered: List[str] = []
    while frontier and len(ordered) < size:
        next_frontier: List[str] = []
        for node in frontier:
            candidates = list(graph.successors(node)) + list(graph.predecessors(node))
            for other in candidates:
                if other in visited:
                    continue
                visited.add(other)
                next_frontier.append(other)
                ordered.append(other)
                if len(ordered) >= size:
                    break
            if len(ordered) >= size:
                break
        frontier = next_frontier
    return ordered[:size]


def _sorted_combinational_dag(netlist: Netlist):
    """Build the combinational DAG and topologically sort it.

    Raises:
        LevelizationError: if the combinational portion contains a cycle.
    """
    dag = combinational_graph(netlist)
    try:
        order = list(nx.topological_sort(dag))
    except nx.NetworkXUnfeasible as exc:
        raise LevelizationError(
            f"netlist {netlist.name!r} has a combinational loop"
        ) from exc
    return dag, order


def topological_gate_order(netlist: Netlist) -> List[str]:
    """Return combinational gate names in dependency order."""
    _, order = _sorted_combinational_dag(netlist)
    return [name for name in order if name in netlist]


def gate_levels(netlist: Netlist) -> Dict[str, int]:
    """Map each combinational gate to its logic level (1 = fed by sources)."""
    dag, order = _sorted_combinational_dag(netlist)
    levels: Dict[str, int] = {}
    for name in order:
        if name not in netlist:
            continue
        preds = dag.predecessors(name)
        levels[name] = 1 + max((levels.get(p, 0) for p in preds), default=0)
    return levels


def logic_depth(netlist: Netlist) -> int:
    """Longest combinational path length in gates (0 for empty designs)."""
    dag = combinational_graph(netlist)
    if dag.number_of_nodes() == 0:
        return 0
    depth = 0
    lengths: Dict[str, int] = {}
    for node in nx.topological_sort(dag):
        preds = list(dag.predecessors(node))
        lengths[node] = 1 + max((lengths[p] for p in preds), default=0)
        depth = max(depth, lengths[node])
    return depth


def critical_path_delay(netlist: Netlist,
                        library: Optional[CellLibrary] = None) -> float:
    """Longest combinational path delay (ns) through the design."""
    library = library if library is not None else netlist.library
    dag = combinational_graph(netlist)
    if dag.number_of_nodes() == 0:
        return 0.0
    arrival: Dict[str, float] = {}
    best = 0.0
    for node in nx.topological_sort(dag):
        gate = netlist.gate(node)
        scale = float(gate.attributes.get("overhead_scale", 1.0))
        cell_delay = library.delay(gate.gate_type, gate.fanin) * scale
        preds = list(dag.predecessors(node))
        start = max((arrival[p] for p in preds), default=0.0)
        arrival[node] = start + cell_delay
        best = max(best, arrival[node])
    # Registers add their own delay at the capture edge.
    sequential = netlist.sequential_gates()
    if sequential:
        best += max(library.delay(g.gate_type, g.fanin) for g in sequential)
    return best


class NetworkxFeatureExtractor(StructuralFeatureExtractor):
    """The structural feature extractor with every topology query answered
    by networkx: BFS neighbourhoods and connectivity from
    :func:`netlist_to_graph`, levels from :func:`gate_levels` and fan-out
    counts from :meth:`Netlist.fanout_gates`."""

    def __init__(self, netlist: Netlist, locality: int = 7,
                 encoder: Optional[GateTypeEncoder] = None) -> None:
        super().__init__(netlist, locality, encoder)
        self._nx_graph = netlist_to_graph(netlist)
        self._levels = gate_levels(netlist)
        self._max_level = max(self._levels.values(), default=1)
        self._fanout_counts = {
            gate.name: len(netlist.fanout_gates(gate.name)) for gate in netlist.gates
        }

    def _neighbours(self, gate_name: str) -> List[str]:
        return neighborhood(self._nx_graph, gate_name, self.locality)

    def _connected(self, a: Optional[str], b: Optional[str]) -> float:
        if a is None or b is None:
            return 0.0
        if self._nx_graph.has_edge(a, b) or self._nx_graph.has_edge(b, a):
            return 1.0
        return 0.0
