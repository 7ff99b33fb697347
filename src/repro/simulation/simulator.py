"""Vectorised gate-level logic simulator.

The simulator evaluates a whole netlist for a *batch* of input vectors at
once: every net's value is a boolean array of shape ``(n_vectors,)``.  The
sweep is the fused levelised kernel of :mod:`repro.simulation.compiled`: a
:class:`CompiledNetlist` plan is built once per simulator and each
:meth:`LogicSimulator.evaluate` call runs a handful of large numpy segment
kernels over one bit-packed ``(n_signals, batch / 8)`` state matrix, so
its Python overhead tracks the segment count, not the gate count.  Its
per-gate loop oracle, ``LoopSimulator``, lives with the tests
(``tests/oracles/simulation.py``).

A netlist the planner cannot fuse raises
:class:`~repro.simulation.compiled.CompilationError` when the simulator is
built, before any stimulus is evaluated.

Sequential designs are handled by treating flip-flop outputs as additional
inputs of the combinational core: :meth:`LogicSimulator.evaluate` accepts an
optional register state and returns the next state, and
:meth:`LogicSimulator.run_cycles` iterates that for multi-cycle stimulus.
"""

from __future__ import annotations

from collections.abc import Mapping as AbcMapping
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..netlist.netlist import Gate, Netlist, NetlistError
from .compiled import CompiledNetlist


class SimulationError(Exception):
    """Raised for inconsistent stimulus (missing inputs, shape mismatch)."""


class _StateNetValues(AbcMapping):
    """Lazy ``net -> value`` mapping over a state matrix.

    Each lookup returns a (read-only) row view of the state matrix, created
    on demand.  Skipping the eager construction of one view object per net
    keeps the fast path free of per-net Python work; bulk consumers should
    gather from :attr:`SimulationResult.state_matrix` directly.
    """

    __slots__ = ("_matrix", "_rows")

    def __init__(self, matrix: np.ndarray, rows: Mapping[str, int]) -> None:
        self._matrix = matrix
        self._rows = rows

    def __getitem__(self, net: str) -> np.ndarray:
        return self._matrix[self._rows[net]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, net: object) -> bool:
        return net in self._rows


class SimulationResult:
    """Values of every net for one evaluation batch.

    The sweep produces only the **packed** matrix; ``state_matrix``,
    ``net_values`` and ``next_state`` unpack it on first access (cached
    thereafter).  Consumers that stay on packed bits — the power engine's
    packed toggle extraction — therefore never pay the unpack.

    Attributes:
        plan: The compiled plan that produced this result.  Packed
            consumers use it to resolve net names to packed-matrix rows
            (:meth:`~repro.simulation.compiled.CompiledNetlist.rows_for`).
        packed_matrix: The read-only ``(n_signals, ceil(n_vectors / 8))``
            packed byte matrix; bit layout per
            :meth:`~repro.simulation.compiled.CompiledNetlist.execute_packed`.
        n_vectors: Batch size.
    """

    __slots__ = ("plan", "packed_matrix", "n_vectors", "_net_values",
                 "_next_state", "_state_matrix")

    def __init__(self, plan: CompiledNetlist, packed: np.ndarray,
                 n_vectors: int) -> None:
        self.plan = plan
        self.packed_matrix = packed
        self.n_vectors = n_vectors
        self._net_values: Optional[Mapping[str, np.ndarray]] = None
        self._next_state: Optional[Dict[str, np.ndarray]] = None
        self._state_matrix: Optional[np.ndarray] = None

    @property
    def state_matrix(self) -> np.ndarray:
        """The read-only boolean ``(n_signals, n_vectors)`` state matrix.

        ``net_values`` entries are row views of it; bulk consumers index it
        directly, resolving rows via :meth:`LogicSimulator.signal_rows`.
        """
        if self._state_matrix is None:
            self._state_matrix = self.plan.unpack(self.packed_matrix,
                                                  self.n_vectors)
        return self._state_matrix

    @property
    def net_values(self) -> Mapping[str, np.ndarray]:
        """Mapping net name -> boolean value array ``(n_vectors,)``."""
        if self._net_values is None:
            self._net_values = _StateNetValues(self.state_matrix,
                                               self.plan.signal_index)
        return self._net_values

    @property
    def next_state(self) -> Dict[str, np.ndarray]:
        """Register next-state: DFF output net -> value captured at the
        clock edge (private writable copies)."""
        if self._next_state is None:
            # Straight from the packed rows: advancing a sequential design
            # never forces a full-matrix unpack.
            self._next_state = self.plan.next_state_packed(
                self.packed_matrix, self.n_vectors)
        return self._next_state

    def __repr__(self) -> str:
        return f"SimulationResult(n_vectors={self.n_vectors})"

    def output_values(self, netlist: Netlist) -> Dict[str, np.ndarray]:
        """Values of the netlist's primary outputs.

        Raises:
            SimulationError: if a primary output has no driver (such a
                netlist fails :func:`~repro.netlist.validate_netlist`).
        """
        values = self.net_values
        undriven = [net for net in netlist.primary_outputs
                    if net not in values]
        if undriven:
            raise SimulationError(
                f"primary output(s) without a driver: {', '.join(undriven)}")
        return {net: values[net] for net in netlist.primary_outputs}

    def gate_output(self, netlist: Netlist, gate_name: str) -> np.ndarray:
        """Value of the output net of ``gate_name``."""
        return self.net_values[netlist.gate(gate_name).output]


def check_stimulus(
    netlist: Netlist,
    registers: Sequence[Gate],
    input_values: Mapping[str, np.ndarray],
    state: Optional[Mapping[str, np.ndarray]],
) -> Tuple[int, Dict[str, np.ndarray]]:
    """Validate one evaluation's stimulus and register state.

    Returns the batch size and the given register values as boolean
    arrays, keyed by DFF output net.

    Raises:
        SimulationError: if the stimulus is empty, a primary input is
            missing, a stimulus or register value is not a 1-D array, or
            the lengths disagree.
    """
    if not input_values:
        raise SimulationError("no input stimulus provided")
    sizes = set()
    scalars = []
    for net, value in input_values.items():
        # Stimulus is usually already an ndarray; only lists/scalars are
        # coerced, so the check costs no per-net allocations.
        shape = getattr(value, "shape", None)
        if shape is None:
            shape = np.asarray(value).shape
        if len(shape) == 1:
            sizes.add(shape[0])
        elif not shape:
            scalars.append(net)
        else:
            raise SimulationError(
                f"stimulus for input {net!r} has shape {tuple(shape)}; "
                f"expected a 1-D array")
    if not sizes:
        raise SimulationError(
            f"scalar stimulus for input(s) {sorted(scalars)}; expected "
            f"1-D arrays (wrap single values as length-1 arrays/lists)")
    if len(sizes) != 1:
        raise SimulationError(f"inconsistent stimulus lengths: {sorted(sizes)}")
    n_vectors = sizes.pop()
    for net in netlist.primary_inputs:
        if net not in input_values:
            raise SimulationError(f"missing stimulus for primary input {net!r}")

    state_values: Dict[str, np.ndarray] = {}
    if state:
        for gate in registers:
            if gate.output in state:
                value = np.asarray(state[gate.output], dtype=bool)
                if value.shape != (n_vectors,):
                    raise SimulationError(
                        f"state for register {gate.output!r} has shape "
                        f"{value.shape}; expected ({n_vectors},)")
                state_values[gate.output] = value
    return n_vectors, state_values


class LogicSimulator:
    """Reusable simulator bound to one netlist.

    The constructor builds the netlist's
    :class:`~repro.simulation.compiled.CompiledNetlist` of fused levelised
    segments once; every :meth:`evaluate` call (and every cycle of
    :meth:`run_cycles`) reuses it.

    Args:
        netlist: The design to simulate.

    Raises:
        CompilationError: if the planner cannot fuse the netlist
            (malformed arities, port pseudo-cells instantiated as gates).
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._dff_gates = list(netlist.sequential_gates())
        #: The fused levelised plan.
        self.plan = CompiledNetlist(netlist)

    def signal_rows(self, nets: Sequence[str]) -> np.ndarray:
        """State-matrix rows of ``nets`` for bulk gathers.

        An index array suitable for ``result.state_matrix[rows]``.
        Unknown/undriven nets map to the shared constant-zero row.
        """
        return self.plan.rows_for(nets)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Mapping[str, np.ndarray],
        state: Optional[Mapping[str, np.ndarray]] = None,
    ) -> SimulationResult:
        """Evaluate the combinational logic for a batch of input vectors.

        Args:
            input_values: Mapping from primary-input net name to a 1-D
                boolean array; all arrays must share the same length.
            state: Optional mapping from DFF output net to its current
                value; missing registers default to 0.

        Returns:
            A :class:`SimulationResult` with every net's value and the next
            register state.

        Raises:
            SimulationError: if inputs are missing or shapes disagree.
        """
        n_vectors, state_values = check_stimulus(
            self.netlist, self._dff_gates, input_values, state)
        # The plan casts/copies stimulus while packing, so no per-net
        # asarray pass is needed.  The result stays packed until someone
        # actually asks for boolean values.
        packed = self.plan.execute_packed(input_values, state_values,
                                          n_vectors)
        return SimulationResult(self.plan, packed, n_vectors)

    def run_cycles(
        self,
        stimulus: Iterable[Mapping[str, np.ndarray]],
        initial_state: Optional[Mapping[str, np.ndarray]] = None,
    ) -> List[SimulationResult]:
        """Simulate several clock cycles of a sequential design.

        Args:
            stimulus: One input mapping per cycle.
            initial_state: Register state before the first cycle.

        Returns:
            One :class:`SimulationResult` per cycle, in order.
        """
        state = dict(initial_state) if initial_state else {}
        results: List[SimulationResult] = []
        for cycle_inputs in stimulus:
            result = self.evaluate(cycle_inputs, state)
            results.append(result)
            state = result.next_state
        return results


def simulate(netlist: Netlist, input_values: Mapping[str, np.ndarray],
             state: Optional[Mapping[str, np.ndarray]] = None) -> SimulationResult:
    """One-shot convenience wrapper around :class:`LogicSimulator`."""
    return LogicSimulator(netlist).evaluate(input_values, state)


def functional_equivalent(
    netlist_a: Netlist,
    netlist_b: Netlist,
    n_vectors: int = 256,
    seed: int = 0,
) -> bool:
    """Check (by random simulation) that two netlists compute the same outputs.

    Both netlists must share primary input and output names.  Used to verify
    that the masking transform preserves functionality.
    """
    if set(netlist_a.primary_inputs) != set(netlist_b.primary_inputs):
        raise NetlistError("netlists have different primary inputs")
    common_outputs = set(netlist_a.primary_outputs) & set(netlist_b.primary_outputs)
    if not common_outputs:
        raise NetlistError("netlists share no primary outputs")
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n_vectors, len(netlist_a.primary_inputs)),
                          dtype=np.uint8).astype(bool)
    stimulus = {net: matrix[:, i]
                for i, net in enumerate(netlist_a.primary_inputs)}
    result_a = simulate(netlist_a, stimulus)
    result_b = simulate(netlist_b, stimulus)
    for net in common_outputs:
        if not np.array_equal(result_a.net_values[net], result_b.net_values[net]):
            return False
    return True
