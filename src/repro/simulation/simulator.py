"""Vectorised gate-level logic simulator.

The simulator evaluates a whole netlist for a *batch* of input vectors at
once: every net's value is a boolean array of shape ``(n_vectors,)``.  Two
interchangeable backends implement the sweep:

* ``"compiled"`` (default) — the fused levelised kernel of
  :mod:`repro.simulation.compiled`: a :class:`CompiledNetlist` plan is built
  once per simulator and each :meth:`LogicSimulator.evaluate` call runs a
  handful of large numpy segment kernels over one ``(n_signals, batch)``
  state matrix, releasing the GIL for the bulk of the work;
* ``"loop"`` — the reference per-gate Python loop (one vectorised evaluator
  call per gate), kept as the bit-identical oracle for regression tests and
  run only on request.

A netlist the planner cannot fuse raises
:class:`~repro.simulation.compiled.CompilationError` when the compiled
simulator is built, instead of deferring the error to the first
:meth:`LogicSimulator.evaluate` on the loop.

Sequential designs are handled by treating flip-flop outputs as additional
inputs of the combinational core: :meth:`LogicSimulator.evaluate` accepts an
optional register state and returns the next state, and
:meth:`LogicSimulator.run_cycles` iterates that for multi-cycle stimulus.
"""

from __future__ import annotations

from collections.abc import Mapping as AbcMapping
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..netlist.netlist import Netlist, NetlistError
from .compiled import CompiledNetlist
from .levelize import topological_gate_order
from .logic import _EVALUATORS, evaluate_gate, supports_static_dispatch

#: Simulation backends accepted by :class:`LogicSimulator` (and by
#: ``PowerTraceGenerator``'s ``sim_backend`` oracle seam).
SIM_BACKENDS = ("compiled", "loop")


class SimulationError(Exception):
    """Raised for inconsistent stimulus (missing inputs, shape mismatch)."""


class _StateNetValues(AbcMapping):
    """Lazy ``net -> value`` mapping over a compiled state matrix.

    Behaves like the loop backend's ``net_values`` dictionary, but each
    lookup returns a (read-only) row view of the state matrix, created on
    demand.  Skipping the eager construction of one view object per net
    keeps the compiled fast path free of per-net Python work; bulk
    consumers should gather from
    :attr:`SimulationResult.state_matrix` directly.
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

    Attributes:
        net_values: Mapping net name -> boolean array ``(n_vectors,)``.
        next_state: Mapping DFF output net -> value captured at the clock
            edge (i.e. the DFF input values of this evaluation).
        n_vectors: Batch size.
        state_matrix: The compiled backend's read-only ``(n_signals,
            n_vectors)`` state matrix (``None`` for the loop backend).
            ``net_values`` entries are row views of it; bulk consumers
            index it directly instead of walking the mapping — the power
            engine adopts the plan's row numbering outright
            (``plan.signal_index``), and ad-hoc net sets resolve rows via
            :meth:`LogicSimulator.signal_rows`.
        packed_matrix: The compiled backend's read-only ``(n_signals,
            ceil(n_vectors / 8))`` **packed** byte matrix (``None`` for
            the loop backend); bit layout per
            :meth:`~repro.simulation.compiled.CompiledNetlist.execute_packed`.

    Results from the compiled backend are **lazy**: the sweep produces
    only ``packed_matrix``, and ``state_matrix`` / ``net_values`` /
    ``next_state`` unpack it on first access (cached thereafter).
    Consumers that stay on packed bits — the power engine's packed
    toggle extraction — therefore never pay
    the unpack, while every existing consumer sees the exact values it
    always did.
    """

    __slots__ = ("n_vectors", "_net_values", "_next_state", "_state_matrix",
                 "_packed", "_plan")

    def __init__(self, net_values: Optional[Mapping[str, np.ndarray]] = None,
                 next_state: Optional[Dict[str, np.ndarray]] = None,
                 n_vectors: int = 0,
                 state_matrix: Optional[np.ndarray] = None) -> None:
        self.n_vectors = n_vectors
        self._net_values = net_values
        self._next_state = next_state
        self._state_matrix = state_matrix
        self._packed: Optional[np.ndarray] = None
        self._plan: Optional[CompiledNetlist] = None

    @classmethod
    def from_packed(cls, plan: CompiledNetlist, packed: np.ndarray,
                    n_vectors: int) -> "SimulationResult":
        """Wrap a packed sweep result; unpacking is deferred to first use."""
        result = cls(n_vectors=n_vectors)
        result._plan = plan
        result._packed = packed
        return result

    @property
    def packed_matrix(self) -> Optional[np.ndarray]:
        """The packed byte matrix (``None`` on the loop backend)."""
        return self._packed

    @property
    def plan(self) -> Optional[CompiledNetlist]:
        """The compiled plan that produced this result (``None`` on loop).

        Packed consumers use it to resolve net names to packed-matrix rows
        (:meth:`~repro.simulation.compiled.CompiledNetlist.rows_for`).
        """
        return self._plan

    @property
    def state_matrix(self) -> Optional[np.ndarray]:
        """The boolean state matrix, unpacked on first access."""
        if self._state_matrix is None and self._packed is not None:
            self._state_matrix = self._plan.unpack(self._packed,
                                                   self.n_vectors)
        return self._state_matrix

    @property
    def net_values(self) -> Mapping[str, np.ndarray]:
        """Mapping net name -> boolean value array."""
        if self._net_values is None:
            self._net_values = _StateNetValues(self.state_matrix,
                                               self._plan.signal_index)
        return self._net_values

    @property
    def next_state(self) -> Dict[str, np.ndarray]:
        """Register next-state (private writable copies)."""
        if self._next_state is None:
            # Straight from the packed rows: advancing a sequential design
            # on the packed path never forces a full-matrix unpack.
            self._next_state = self._plan.next_state_packed(self._packed,
                                                            self.n_vectors)
        return self._next_state

    def __repr__(self) -> str:
        return (f"SimulationResult(n_vectors={self.n_vectors}, "
                f"packed={self._packed is not None})")

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


class LogicSimulator:
    """Reusable simulator bound to one netlist.

    The evaluation plan is computed once in the constructor and reused
    across every :meth:`evaluate` call (and every cycle of
    :meth:`run_cycles`): the compiled backend builds a
    :class:`~repro.simulation.compiled.CompiledNetlist` of fused levelised
    segments, the loop backend resolves each gate's evaluator into a flat
    topological list.

    Args:
        netlist: The design to simulate.
        backend: ``"compiled"`` (default, the fused levelised kernel) or
            ``"loop"`` (the per-gate reference sweep, the oracle).

    Raises:
        ValueError: for unknown backend selectors.
        CompilationError: if the compiled backend cannot plan the netlist
            (malformed arities, port pseudo-cells instantiated as gates).
    """

    def __init__(self, netlist: Netlist, backend: str = "compiled") -> None:
        if backend not in SIM_BACKENDS:
            raise ValueError(
                f"backend must be one of {SIM_BACKENDS}, got {backend!r}")
        self.netlist = netlist
        self._dff_gates = list(netlist.sequential_gates())

        #: The fused levelised plan, or ``None`` on the loop backend.
        self._plan: Optional[CompiledNetlist] = (
            CompiledNetlist(netlist) if backend == "compiled" else None)

        # The loop dispatch plan is only built for the loop backend:
        # resolve each gate's evaluator, input tuple and output-inversion
        # flag so the per-batch loop is a straight run of vectorised ufunc
        # calls.  Gates whose operand counts cannot be validated
        # statically keep the checked :func:`evaluate_gate` path (and its
        # lazy errors) — the gates the fused planner rejects up front.
        self._order: List[str] = []
        self._compiled = []
        if self._plan is None:
            self._order = topological_gate_order(netlist)
            for name in self._order:
                gate = netlist.gate(name)
                if supports_static_dispatch(gate.gate_type, len(gate.inputs)):
                    evaluator = _EVALUATORS[gate.gate_type]
                else:
                    evaluator = (lambda operands, gate_type=gate.gate_type:
                                 evaluate_gate(gate_type, operands))
                # Masked composites that replaced an inverting primitive
                # (NAND/NOR/XNOR) fold the inversion into their
                # recombination stage; honour the transform's attribute.
                inverted = bool(gate.gate_type.is_masked
                                and gate.attributes.get("inverted_output"))
                self._compiled.append(
                    (evaluator, tuple(gate.inputs), gate.output, inverted))
        #: The backend in use (``"compiled"`` or ``"loop"``).
        self.backend: str = backend

    @property
    def plan(self) -> Optional[CompiledNetlist]:
        """The compiled plan (``None`` when the loop backend is active)."""
        return self._plan

    def signal_rows(self, nets: Sequence[str]) -> Optional[np.ndarray]:
        """State-matrix rows of ``nets`` for bulk gathers.

        Returns ``None`` when the loop backend is active (no state matrix
        exists); otherwise an index array suitable for
        ``result.state_matrix[rows]``.  Unknown/undriven nets map to the
        shared constant-zero row, matching the loop's zero-default
        semantics.
        """
        if self._plan is None:
            return None
        return self._plan.rows_for(nets)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Mapping[str, np.ndarray],
        state: Optional[Mapping[str, np.ndarray]] = None,
    ) -> SimulationResult:
        """Evaluate the combinational logic for a batch of input vectors.

        Args:
            input_values: Mapping from primary-input net name to a boolean
                array; all arrays must share the same length.
            state: Optional mapping from DFF output net to its current
                value; missing registers default to 0.

        Returns:
            A :class:`SimulationResult` with every net's value and the next
            register state.

        Raises:
            SimulationError: if inputs are missing or shapes disagree.
        """
        n_vectors = self._batch_size(input_values)
        for net in self.netlist.primary_inputs:
            if net not in input_values:
                raise SimulationError(f"missing stimulus for primary input {net!r}")

        state_values: Dict[str, np.ndarray] = {}
        if state:
            for gate in self._dff_gates:
                if gate.output in state:
                    value = np.asarray(state[gate.output], dtype=bool)
                    if value.shape != (n_vectors,):
                        raise SimulationError(
                            f"state for register {gate.output!r} has shape "
                            f"{value.shape}; expected ({n_vectors},)")
                    state_values[gate.output] = value

        if self._plan is not None:
            # The plan casts/copies stimulus while packing, so no per-net
            # asarray pass is needed on this path.  The result stays packed
            # until someone actually asks for boolean values.
            packed = self._plan.execute_packed(input_values, state_values,
                                               n_vectors)
            return SimulationResult.from_packed(self._plan, packed, n_vectors)

        values: Dict[str, np.ndarray] = {}
        for net in self.netlist.primary_inputs:
            values[net] = np.asarray(input_values[net], dtype=bool)

        # One shared default buffer backs every undriven net and DFF
        # default; it is marked read-only so an in-place mutation by a
        # caller (or engine code) raises instead of silently corrupting
        # unrelated nets across cycles.
        zeros = np.zeros(n_vectors, dtype=bool)
        zeros.setflags(write=False)
        for gate in self._dff_gates:
            if gate.output in state_values:
                values[gate.output] = state_values[gate.output]
            else:
                values[gate.output] = zeros

        for evaluator, inputs, output_net, inverted in self._compiled:
            operands = []
            for net in inputs:
                value = values.get(net)
                if value is None:
                    # Undriven net: treat as constant 0 (matches common EDA
                    # semantics for floating inputs after optimisation).
                    values[net] = zeros
                    value = zeros
                operands.append(value)
            output = evaluator(operands)
            if inverted:
                output = np.logical_not(output)
            values[output_net] = output

        next_state: Dict[str, np.ndarray] = {}
        for gate in self._dff_gates:
            data_net = gate.inputs[0]
            # Export a private copy: callers may mutate the returned state
            # (e.g. to force register values) without aliasing net values
            # still referenced by this result or by the shared zero buffer.
            next_state[gate.output] = values.get(data_net, zeros).copy()
        return SimulationResult(values, next_state, n_vectors)

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

    # ------------------------------------------------------------------
    def _batch_size(self, input_values: Mapping[str, np.ndarray]) -> int:
        if not input_values:
            raise SimulationError("no input stimulus provided")
        sizes = set()
        scalars = []
        for net, value in input_values.items():
            # Fast path: stimulus is usually already ndarray; only coerce
            # lists/scalars, so the check costs no per-net allocations.
            shape = getattr(value, "shape", None)
            if shape is None:
                shape = np.asarray(value).shape
            if len(shape) >= 1:
                sizes.add(shape[0])
            else:
                scalars.append(net)
        if not sizes:
            raise SimulationError(
                f"scalar stimulus for input(s) {sorted(scalars)}; expected "
                f"1-D arrays (wrap single values as length-1 arrays/lists)")
        if len(sizes) != 1:
            raise SimulationError(f"inconsistent stimulus lengths: {sorted(sizes)}")
        return sizes.pop()


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
