"""Structural feature extraction (the ``structural_features`` of Algorithm 1).

For a gate ``i`` in the design graph, the paper collects *local* structural
information: the gate's own type, the types of its ``L`` nearest neighbours
(found by breadth-first search), the connectivity among that neighbourhood
(adjacency matrix, one-hot encoded), and simple placement measures.  The
resulting vector is what the masking model is trained and evaluated on, and
its columns are named so that SHAP explanations read like the rules of the
paper's Table V (e.g. ``G4=NAND``, ``G4-G5 connected``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.cell_library import GateType
from ..netlist.graph import gate_graph, neighborhood
from ..netlist.netlist import Netlist
from ..simulation.levelize import gate_levels
from .encoding import GateTypeEncoder


class StructuralFeatureExtractor:
    """Extracts fixed-length structural feature vectors for gates.

    The extractor pre-computes the design graph, logic levels and fan-out
    counts once per netlist, so per-gate extraction is cheap even when the
    whole design is swept (Algorithm 2 does exactly that).

    Args:
        netlist: Design to analyse.
        locality: Number of BFS neighbours ``L`` included per gate (the
            paper uses ``L = 7``).
        encoder: Gate-type encoder shared across designs so feature columns
            always align.
    """

    def __init__(self, netlist: Netlist, locality: int = 7,
                 encoder: Optional[GateTypeEncoder] = None) -> None:
        if locality < 1:
            raise ValueError("locality must be >= 1")
        self.netlist = netlist
        self.locality = locality
        self.encoder = encoder if encoder is not None else GateTypeEncoder()
        self._graph = gate_graph(netlist)
        self._levels = gate_levels(netlist)
        self._max_level = max(self._levels.values(), default=1)
        self._fanout_counts = dict(
            zip(self._graph.names, map(len, self._graph.fanout)))
        self._feature_names = self._build_feature_names()

    # ------------------------------------------------------------------
    @property
    def feature_names(self) -> Tuple[str, ...]:
        """Names of the feature-vector columns."""
        return self._feature_names

    @property
    def n_features(self) -> int:
        """Length of one feature vector."""
        return len(self._feature_names)

    def _build_feature_names(self) -> Tuple[str, ...]:
        names: List[str] = []
        names.extend(self.encoder.feature_names("G0"))
        for position in range(1, self.locality + 1):
            names.extend(self.encoder.feature_names(f"G{position}"))
        # Pairwise connectivity among the seed gate (G0) and its neighbours.
        members = list(range(self.locality + 1))
        for i in members:
            for j in members:
                if i < j:
                    names.append(f"G{i}-G{j} connected")
        # Dedicated driver (fan-in) and load (fan-out) type slots: the gates
        # feeding / fed by the seed gate carry the strongest signal about
        # how data-dependent the seed gate's input activity is, which is
        # exactly what determines the benefit of masking it.
        names.extend(self.encoder.feature_names("D0"))
        names.extend(self.encoder.feature_names("D1"))
        names.extend(self.encoder.feature_names("F0"))
        names.extend([
            "fanin",
            "fanout",
            "depth_ratio",
            "neighborhood_size",
            "neighborhood_xor_fraction",
            "neighborhood_nonlinear_fraction",
            "driver_xor_fraction",
            "driver_is_primary_input_fraction",
            "load_xor_fraction",
        ])
        return tuple(names)

    # ------------------------------------------------------------------
    def extract(self, gate_name: str) -> np.ndarray:
        """Return the structural feature vector of ``gate_name``.

        Raises:
            KeyError: if the gate does not exist in the netlist graph.
        """
        if gate_name not in self.netlist:
            raise KeyError(f"gate {gate_name!r} not present in design graph")
        gate = self.netlist.gate(gate_name)
        neighbours = self._neighbours(gate_name)
        members: List[Optional[str]] = [gate_name] + list(neighbours)
        while len(members) < self.locality + 1:
            members.append(None)

        blocks: List[np.ndarray] = []
        for member in members:
            if member is None:
                blocks.append(self.encoder.encode(None))
            else:
                blocks.append(self.encoder.encode(self.netlist.gate(member).gate_type))

        adjacency: List[float] = []
        for i in range(len(members)):
            for j in range(len(members)):
                if i < j:
                    adjacency.append(self._connected(members[i], members[j]))

        xor_types = (GateType.XOR, GateType.XNOR)
        nonlinear_types = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)
        present = [m for m in neighbours]
        n_present = len(present)
        xor_fraction = 0.0
        nonlinear_fraction = 0.0
        if n_present:
            types = [self.netlist.gate(m).gate_type for m in present]
            xor_fraction = sum(t in xor_types for t in types) / n_present
            nonlinear_fraction = sum(t in nonlinear_types for t in types) / n_present

        # Dedicated driver / load blocks (first two drivers, first load).
        drivers = list(self.netlist.fanin_gates(gate_name))
        loads = list(self.netlist.fanout_gates(gate_name))
        driver_blocks = []
        for position in range(2):
            if position < len(drivers):
                driver_blocks.append(self.encoder.encode(drivers[position].gate_type))
            else:
                driver_blocks.append(self.encoder.encode(None))
        load_block = (self.encoder.encode(loads[0].gate_type) if loads
                      else self.encoder.encode(None))
        driver_xor_fraction = 0.0
        if drivers:
            driver_xor_fraction = sum(
                d.gate_type in xor_types for d in drivers) / len(drivers)
        primary_driver_fraction = 0.0
        if gate.inputs:
            primary_driver_fraction = sum(
                net in self.netlist.primary_inputs for net in gate.inputs
            ) / len(gate.inputs)
        load_xor_fraction = 0.0
        if loads:
            load_xor_fraction = sum(
                l.gate_type in xor_types for l in loads) / len(loads)

        scalars = np.array([
            float(gate.fanin),
            float(self._fanout_counts.get(gate_name, 0)),
            float(self._levels.get(gate_name, 0)) / float(self._max_level),
            float(n_present),
            xor_fraction,
            nonlinear_fraction,
            driver_xor_fraction,
            primary_driver_fraction,
            load_xor_fraction,
        ])
        # Order must match :meth:`_build_feature_names`: neighbourhood one-hot
        # blocks, adjacency flags, driver/load blocks, then scalar features.
        vector = np.concatenate(
            blocks + [np.array(adjacency, dtype=float)]
            + driver_blocks + [load_block] + [scalars])
        if vector.shape[0] != self.n_features:
            raise RuntimeError("feature vector length mismatch (internal error)")
        return vector

    def extract_many(self, gate_names: Sequence[str]) -> np.ndarray:
        """Stack :meth:`extract` for several gates into a matrix."""
        if not gate_names:
            return np.zeros((0, self.n_features))
        return np.vstack([self.extract(name) for name in gate_names])

    def extract_all(self, maskable_only: bool = False) -> Tuple[List[str], np.ndarray]:
        """Extract features for every gate (optionally only maskable ones).

        Returns:
            ``(gate_names, feature_matrix)`` in matching order.
        """
        names = [
            gate.name for gate in self.netlist.gates
            if not gate.gate_type.is_port
            and (not maskable_only or self.netlist.library.is_maskable(gate.gate_type))
        ]
        return names, self.extract_many(names)

    # ------------------------------------------------------------------
    def _neighbours(self, gate_name: str) -> List[str]:
        return neighborhood(self._graph, gate_name, self.locality)

    def _connected(self, a: Optional[str], b: Optional[str]) -> float:
        if a is None or b is None:
            return 0.0
        index, fanout = self._graph.index, self._graph.fanout
        i, j = index[a], index[b]
        return 1.0 if j in fanout[i] or i in fanout[j] else 0.0
