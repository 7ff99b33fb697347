"""Gate graph of a netlist (the ``graphify`` step of the paper).

Algorithm 1 of the paper begins with ``Gr <- graphify(D)``: the gate-level
design is converted into a directed graph whose vertices are gates and whose
edges are the gate-to-gate interconnections.  :func:`gate_graph` builds it
as integer adjacency plus the combinational topological order, and every
topology query reads it: levelisation, ``validate_netlist``'s loop check,
static timing, the feature extractor's BFS neighbourhoods and the statistics
below.  A build is one pass over the gates, so queries rebuild the graph
rather than cache it on the mutable netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .netlist import Netlist


class LevelizationError(Exception):
    """Raised when a netlist cannot be levelised (combinational loops)."""


@dataclass(frozen=True)
class GateGraph:
    """Integer gate graph of one netlist.

    Gate ``i`` is the netlist's ``i``-th gate in insertion order; an edge
    ``u -> v`` means the output of ``u`` feeds an input of ``v``.

    Attributes:
        netlist_name: Name of the netlist, for error messages.
        names: Gate names in insertion order.
        index: Gate name -> gate index.
        fanin: Per gate, its distinct driver gates in input order.
        fanout: Per gate, its distinct sink gates in gate order.
        order: The non-sequential gates in dependency order (Kahn's
            algorithm one generation at a time, flip-flop outputs as
            sources); on a loop, only the gates sorted before it stalled.
        loop: Names of the gates of one combinational loop in edge order,
            or ``()`` for a loop-free design.
    """

    netlist_name: str
    names: Tuple[str, ...]
    index: Dict[str, int]
    fanin: Tuple[Tuple[int, ...], ...]
    fanout: Tuple[Tuple[int, ...], ...]
    order: Tuple[int, ...]
    loop: Tuple[str, ...]

    def topological_order(self) -> Tuple[int, ...]:
        """The combinational order of a loop-free design.

        Raises:
            LevelizationError: if the combinational portion contains a
                cycle; the message names every gate on it.
        """
        if self.loop:
            raise LevelizationError(
                f"netlist {self.netlist_name!r} has a combinational loop: "
                + " -> ".join(self.loop))
        return self.order

    def levels(self) -> List[int]:
        """Per gate, its logic level (1 = fed only by sources; 0 for gates
        outside the combinational order)."""
        levels = [0] * len(self.names)
        fanin = self.fanin
        for v in self.topological_order():
            levels[v] = 1 + max((levels[u] for u in fanin[v]), default=0)
        return levels


def gate_graph(netlist: Netlist) -> GateGraph:
    """Build the :class:`GateGraph` of ``netlist``."""
    gates = netlist.gates
    names = tuple(gate.name for gate in gates)
    index = {name: i for i, name in enumerate(names)}
    driver = {gate.output: i for i, gate in enumerate(gates)}
    fanin: List[Tuple[int, ...]] = []
    fanout: List[List[int]] = [[] for _ in gates]
    for v, gate in enumerate(gates):
        drivers: List[int] = []
        for net in gate.inputs:
            u = driver.get(net)
            if u is not None and u not in drivers:
                drivers.append(u)
                fanout[u].append(v)
        fanin.append(tuple(drivers))

    # Kahn's algorithm over the non-sequential gates: a flip-flop's output
    # acts as a source and its input as a sink.
    combinational = [not gate.gate_type.is_sequential for gate in gates]
    indegree = [
        sum(combinational[u] for u in drivers) if combinational[v] else -1
        for v, drivers in enumerate(fanin)
    ]
    generation = [v for v, degree in enumerate(indegree) if degree == 0]
    order: List[int] = []
    while generation:
        order.extend(generation)
        following: List[int] = []
        for u in generation:
            for v in fanout[u]:
                if combinational[v]:
                    indegree[v] -= 1
                    if indegree[v] == 0:
                        following.append(v)
        generation = following

    loop: List[int] = []
    stalled = [degree > 0 for degree in indegree]
    if any(stalled):
        # Every stalled gate has a stalled driver: walking back from one
        # revisits a gate, and the stretch between the visits is a loop.
        v = stalled.index(True)
        while v not in loop:
            loop.append(v)
            v = next(u for u in fanin[v] if stalled[u])
        loop = [v] + loop[:loop.index(v):-1]
    return GateGraph(
        netlist_name=netlist.name,
        names=names,
        index=index,
        fanin=tuple(fanin),
        fanout=tuple(tuple(sinks) for sinks in fanout),
        order=tuple(order),
        loop=tuple(names[v] for v in loop),
    )


def neighborhood(graph: GateGraph, gate_name: str, size: int) -> List[str]:
    """Return up to ``size`` gates around ``gate_name`` in BFS order.

    The BFS explores each gate's sinks and then its drivers (treating the
    graph as undirected for locality purposes, matching the paper's
    "neighboring gates" description) and excludes the seed gate itself.
    An unknown ``gate_name`` raises ``KeyError``.
    """
    seed = graph.index[gate_name]
    visited = {seed}
    queue = [seed]
    for node in queue:
        if len(queue) > size:
            break
        for other in graph.fanout[node] + graph.fanin[node]:
            if other not in visited:
                visited.add(other)
                queue.append(other)
    return [graph.names[v] for v in queue[1:size + 1]]


def logic_depth(netlist: Netlist) -> int:
    """Longest combinational path length in gates (0 for empty designs);
    a combinational loop raises :class:`LevelizationError`."""
    return max(gate_graph(netlist).levels(), default=0)


def fanout_histogram(netlist: Netlist) -> Dict[int, int]:
    """Histogram mapping fan-out count to number of gates with that fan-out."""
    histogram: Dict[int, int] = {}
    for sinks in gate_graph(netlist).fanout:
        histogram[len(sinks)] = histogram.get(len(sinks), 0) + 1
    return histogram
