"""Per-gate loop oracle of the compiled simulator and its trace engine.

:class:`LoopSimulator` evaluates one gate per Python iteration (one
vectorised evaluator call per gate) and keeps every net value in a
dictionary.  It is the bit-identical reference of
:class:`repro.simulation.LogicSimulator`, whose fused levelised plan
replaced it (PL002 pair ``sim-backend``).

:class:`LoopTraceGenerator` is :class:`repro.power.PowerTraceGenerator`
on that loop simulator: toggles and masked data codes come from a compact
bool net-value matrix filled from the loop's net-value mapping instead of
the packed state bytes.  It draws masks and noise exactly like the
production engine, so its traces — and every t-value computed from them —
are bitwise those of the packed engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.netlist.netlist import Netlist
from repro.power import traces
from repro.power.bitops import combine_transition_codes
from repro.power.ctrsample import CounterDraws
from repro.power.traces import PowerTraceGenerator
from repro.simulation.levelize import topological_gate_order
from repro.simulation.logic import (_EVALUATORS, evaluate_gate,
                                    supports_static_dispatch)
from repro.simulation.simulator import check_stimulus
from repro.simulation.vectors import TraceCampaign


@dataclass
class LoopResult:
    """Every net's value of one loop evaluation, held eagerly."""

    net_values: Dict[str, np.ndarray]
    next_state: Dict[str, np.ndarray]
    n_vectors: int


class LoopSimulator:
    """Reference per-gate simulator bound to one netlist.

    The constructor resolves each gate's evaluator, input tuple and
    output-inversion flag in topological order, so the per-batch loop is a
    straight run of vectorised ufunc calls.  Gates whose operand counts
    cannot be validated statically keep the checked
    :func:`~repro.simulation.logic.evaluate_gate` path and its lazy errors
    — the gates the fused planner rejects up front.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._dff_gates = list(netlist.sequential_gates())
        self._compiled = []
        for name in topological_gate_order(netlist):
            gate = netlist.gate(name)
            if supports_static_dispatch(gate.gate_type, len(gate.inputs)):
                evaluator = _EVALUATORS[gate.gate_type]
            else:
                evaluator = (lambda operands, gate_type=gate.gate_type:
                             evaluate_gate(gate_type, operands))
            # Masked composites that replaced an inverting primitive
            # (NAND/NOR/XNOR) fold the inversion into their recombination
            # stage; honour the transform's attribute.
            inverted = bool(gate.gate_type.is_masked
                            and gate.attributes.get("inverted_output"))
            self._compiled.append(
                (evaluator, tuple(gate.inputs), gate.output, inverted))

    def evaluate(self, input_values: Mapping[str, np.ndarray],
                 state: Optional[Mapping[str, np.ndarray]] = None
                 ) -> LoopResult:
        """Evaluate every gate in topological order for a batch."""
        n_vectors, state_values = check_stimulus(
            self.netlist, self._dff_gates, input_values, state)
        values: Dict[str, np.ndarray] = {}
        for net in self.netlist.primary_inputs:
            values[net] = np.asarray(input_values[net], dtype=bool)

        # One shared default buffer backs every undriven net and DFF
        # default; it is read-only so an in-place mutation raises instead
        # of silently corrupting unrelated nets across cycles.
        zeros = np.zeros(n_vectors, dtype=bool)
        zeros.setflags(write=False)
        for gate in self._dff_gates:
            values[gate.output] = state_values.get(gate.output, zeros)

        for evaluator, inputs, output_net, inverted in self._compiled:
            operands = []
            for net in inputs:
                value = values.get(net)
                if value is None:
                    # Undriven net: constant 0.
                    values[net] = zeros
                    value = zeros
                operands.append(value)
            output = evaluator(operands)
            if inverted:
                output = np.logical_not(output)
            values[output_net] = output

        # Private copies: callers may mutate the returned state.
        next_state = {gate.output: values.get(gate.inputs[0], zeros).copy()
                      for gate in self._dff_gates}
        return LoopResult(values, next_state, n_vectors)

    def run_cycles(self, stimulus, initial_state=None):
        """Simulate several clock cycles, one result per cycle."""
        state = dict(initial_state) if initial_state else {}
        results = []
        for cycle_inputs in stimulus:
            result = self.evaluate(cycle_inputs, state)
            results.append(result)
            state = result.next_state
        return results


class LoopTraceGenerator(PowerTraceGenerator):
    """The trace engine on :class:`LoopSimulator`, bool-matrix extraction.

    Reuses the production plan (gate order, coefficients, masked
    sub-groups and value tables) and renumbers the nets it reads into a
    compact bool matrix, in the order the plan first reads them.
    """

    def __init__(self, netlist: Netlist, library=None, config=None) -> None:
        super().__init__(netlist, library, config)
        self._simulator = LoopSimulator(netlist)
        positions: Dict[str, int] = {}

        def net_row(net: str) -> int:
            return positions.setdefault(net, len(positions))

        self._watch_rows = np.asarray(
            [net_row(gate.inputs[0] if gate.gate_type.is_sequential
                     else gate.output)
             for gate in self._gates[:len(self._watch_rows)]],
            dtype=np.intp)
        for sub in self._masked_subgroups:
            gates = self._gates[sub.row_slice]
            sub.a_rows = np.asarray([net_row(g.inputs[0]) for g in gates],
                                    dtype=np.intp)
            sub.b_rows = np.asarray([net_row(g.inputs[1]) for g in gates],
                                    dtype=np.intp)
        self._sim_nets = tuple(positions)

    def _net_matrix(self, result: LoopResult) -> np.ndarray:
        """Net values as a compact ``(n_nets, n)`` uint8 matrix indexed by
        the renumbered net rows."""
        matrix = np.empty((len(self._sim_nets), result.n_vectors), dtype=bool)
        for index, net in enumerate(self._sim_nets):
            value = result.net_values.get(net)
            if value is None:
                # Undriven net that no gate reads: constant 0, matching the
                # simulator's semantics for floating inputs.
                matrix[index] = False
            else:
                matrix[index] = value
        return matrix.view(np.uint8)

    def _fill_blocks(self, campaign: TraceCampaign, draws: CounterDraws,
                     blocks, fill: np.ndarray, scratch: np.ndarray):
        """:meth:`PowerTraceGenerator._fill_blocks` on bool net values.

        The whole gate-major matrix is built first (:meth:`_loop_matrix`),
        then copied out block by block, so ``generate`` and the TVLA
        chunk fold both run on this engine.
        """
        power = self._loop_matrix(campaign, draws)
        for start, stop in blocks:
            block = fill[:stop - start]
            block[...] = power[start:stop]
            yield start, stop, block

    def _loop_matrix(self, campaign: TraceCampaign,
                     draws: CounterDraws) -> np.ndarray:
        """The ``(n_gates, n_traces)`` trace matrix on bool net values.

        One loop sweep covers the chunk (previous rows padded to a
        multiple of 8, then the current rows), and a constant chunk
        simulates row 0 only, as in the production engine.
        """
        n_traces = campaign.n_traces
        n_sim = (1 if n_traces > 1 and traces._constant_rows(campaign)
                 else n_traces)
        split = -(-n_sim // 8) * 8
        result = self._simulator.evaluate(
            traces._sweep_inputs(campaign, n_sim, split))
        n_gates = self.n_gates
        power = np.empty((n_gates, n_traces), dtype=self.trace_dtype)
        if n_gates == 0:
            return power

        matrix = self._net_matrix(result)
        net_prev = matrix[:, :n_sim]
        net_cur = matrix[:, split:]
        noisy = self.config.noise_sigma > 0
        noise_scale = 0.0
        noise_offset = 0.0
        if noisy:
            noise_scale, noise_offset = self._model.fast_noise_params()

        n_unmasked = len(self._watch_rows)
        if n_unmasked:
            toggled = (net_prev[self._watch_rows]
                       != net_cur[self._watch_rows])
            head = power[:n_unmasked, :n_sim]
            np.multiply(toggled, self._unmasked_dynamic.astype(self.trace_dtype),
                        out=head)
            offset_column = (self._unmasked_static + noise_offset).astype(
                self.trace_dtype)
            np.add(head, offset_column, out=head)
            power[:n_unmasked, n_sim:] = power[:n_unmasked, :1]

        counter_tables = (self._counter_value_tables(noise_offset)
                          if self._masked_subgroups else None)
        for group_index, sub in enumerate(self._masked_subgroups):
            shares = np.stack((net_prev[sub.a_rows], net_prev[sub.b_rows],
                               net_cur[sub.a_rows], net_cur[sub.b_rows]))
            codes = combine_transition_codes(shares).astype(np.uint16)
            raw = draws.mask_bytes(group_index, codes.shape[0], n_traces)
            np.left_shift(codes, 8, out=codes)
            index = np.bitwise_or(
                codes, raw, out=codes if codes.shape == raw.shape else None)
            np.take(counter_tables[group_index], index,
                    out=power[sub.row_slice], mode="clip")

        if noisy:
            counts = draws.noise_counts((n_gates, n_traces))
            noise = np.multiply(counts, self.trace_dtype.type(noise_scale))
            np.add(power, noise, out=power)

        return power
