"""Fused levelised simulation kernel: the plan/execute split.

The reference simulator (``LoopSimulator``, the test-side oracle in
``tests/oracles/simulation.py``) evaluates one gate per Python iteration.  Each
iteration is a vectorised numpy call, but the loop itself — operand list
construction, evaluator dispatch, dictionary stores — runs under the GIL and
dominates once designs reach a few hundred gates.  That loop is what capped
the thread-level parallelism of TVLA campaigns.

This module removes the per-gate loop with a classic plan/execute split:

* **Plan** (:class:`CompiledNetlist`) — walk
  :func:`~repro.simulation.levelize.level_groups` once and greedily fuse
  the gates into homogeneous :class:`GateSegment` batches.  A segment
  groups gates that share ``(kernel, fan-in, inversion)`` — NAND fuses
  with AND, masked composites with their unmasked Boolean function — and a
  gate joins the earliest such segment scheduled after all of its operand
  producers, so same-kernel work merges *across* levels and the segment
  count tracks same-kernel dependency-chain depth rather than the raw
  level count.  Each segment stores

  - one ``(fanin, n_gates)`` operand-row index array into the state matrix,
  - one kernel selector (``bitwise_and.reduce`` / ``bitwise_or.reduce`` /
    ``bitwise_xor.reduce``, negation, copy, or the 2:1-mux select), and
  - one contiguous output row slice, so the kernel writes straight into the
    state matrix.

* **Execute** (:meth:`CompiledNetlist.execute_packed`) — run a handful of
  large fused numpy calls per level.  The sweep is **bit-parallel**: the
  batch dimension is packed eight vectors to a byte (``numpy.packbits``),
  so every signal is a ``(n_vectors / 8)``-byte row, every gate evaluation
  is a bitwise byte operation, and the whole sweep touches 8x less memory
  than a boolean evaluation would.  ``execute_packed`` returns that packed
  ``(n_signals, ceil(n_vectors / 8))`` byte matrix directly — consumers
  that can work on packed bits (the power engine's packed toggle
  extraction) never pay an unpack at
  all, while :meth:`CompiledNetlist.unpack` materialises the boolean
  ``(n_signals, n_vectors)`` state matrix for everyone else.  Every call
  operates on whole segments, so a sweep is a few large numpy calls
  however many gates the design has.  The chunk tasks of
  :func:`~repro.tvla.assessment.assess_leakage` run side by side in
  forked processes, which share no GIL.

The plan is immutable after construction and ``execute_packed`` allocates
fresh buffers per call, so one plan can be shared by concurrent threads.
Netlists the planner cannot fuse (malformed arities, port pseudo-cells
instantiated as gates) raise :class:`CompilationError`, and so does a
:class:`~repro.simulation.simulator.LogicSimulator` built on them: there
is no fallback to a per-gate loop.  The loop oracle and the plan are
bit-identical on every net (pinned by ``tests/test_compiled_backend.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..netlist.cell_library import GateType
from ..netlist.netlist import Gate, Netlist
from .levelize import level_groups
from .logic import supports_static_dispatch

#: Row index of the shared constant-zero signal (undriven nets, register
#: defaults); row 0 of every state matrix.
ZERO_ROW = 0

# Kernel selectors; one per fused numpy operation the executor knows.
_K_COPY = 0    # BUF: gather the operand row
_K_NOT = 1     # NOT: negated gather
_K_AND = 2     # AND family (n-ary bitwise_and.reduce)
_K_OR = 3      # OR family
_K_XOR = 4     # XOR family
_K_MUX = 5     # MUX(d0, d1, sel): (d0 & ~sel) | (d1 & sel)

_BINARY_UFUNC = {_K_AND: np.bitwise_and, _K_OR: np.bitwise_or,
                 _K_XOR: np.bitwise_xor}

# Executor opcodes: kernel with the fan-in class folded in (resolved once
# at plan time so the execute loop dispatches on a single integer).
(_OP_AND2, _OP_OR2, _OP_XOR2, _OP_COPY, _OP_NOT,
 _OP_ANDN, _OP_ORN, _OP_XORN, _OP_MUX) = range(9)

_REDUCE_UFUNC = {_OP_ANDN: np.bitwise_and, _OP_ORN: np.bitwise_or,
                 _OP_XORN: np.bitwise_xor}

#: Kernel and output inversion per gate type.  Masked composites compute the
#: unmasked Boolean function of their two data inputs (randomness inputs are
#: ignored for the logical value, mirroring :mod:`repro.simulation.logic`).
_GATE_KERNELS: Dict[GateType, Tuple[int, bool]] = {
    GateType.BUF: (_K_COPY, False),
    GateType.NOT: (_K_NOT, False),
    GateType.AND: (_K_AND, False),
    GateType.NAND: (_K_AND, True),
    GateType.OR: (_K_OR, False),
    GateType.NOR: (_K_OR, True),
    GateType.XOR: (_K_XOR, False),
    GateType.XNOR: (_K_XOR, True),
    GateType.MUX: (_K_MUX, False),
    GateType.MASKED_AND: (_K_AND, False),
    GateType.MASKED_OR: (_K_OR, False),
    GateType.MASKED_XOR: (_K_XOR, False),
    GateType.MASKED_AND_DOM: (_K_AND, False),
}


class CompilationError(Exception):
    """Raised when a netlist cannot be fused into levelised segments.

    :class:`~repro.simulation.simulator.LogicSimulator` lets it propagate
    at construction, so a malformed gate fails before any stimulus is
    evaluated.
    """


class GateSegment:
    """One homogeneous fused batch of gates.

    All gates in a segment share a kernel, a fan-in and an
    output-inversion flag, and every operand is produced by an earlier
    segment (or is a level-0 source), so a single numpy kernel evaluates
    the whole segment: gather the operand rows, reduce (or select), write
    the contiguous output slice of the state matrix.

    Attributes:
        level: Logic level at which the segment first became executable
            (the level of the gate that opened it; 1 = fed by sources).
        kernel: Kernel selector (internal; AND/OR/XOR reduce, copy,
            negation, or mux select).
        operand_rows: ``(fanin, n_gates)`` state-matrix row indices; column
            ``j`` holds the operand rows of the segment's ``j``-th gate.
        out_start: First state-matrix row written by this segment.
        out_stop: One past the last row written (``out_stop - out_start ==
            n_gates``).
        invert: Whether the kernel result is negated before the store
            (NAND/NOR/XNOR and masked composites replacing them).
    """

    __slots__ = ("level", "kernel", "operand_rows", "out_start", "out_stop",
                 "invert")

    def __init__(self, level: int, kernel: int, operand_rows: np.ndarray,
                 out_start: int, out_stop: int, invert: bool) -> None:
        self.level = level
        self.kernel = kernel
        self.operand_rows = operand_rows
        self.out_start = out_start
        self.out_stop = out_stop
        self.invert = invert

    @property
    def n_gates(self) -> int:
        """Number of gates fused into this segment."""
        return self.out_stop - self.out_start


def _plan_gate(gate: Gate) -> Tuple[int, List[str], bool]:
    """Resolve one gate to ``(kernel, operand nets, invert)``.

    Mirrors the validity conditions of the reference loop's static compile
    step; anything the loop would defer to the checked (lazily raising)
    :func:`~repro.simulation.logic.evaluate_gate` path is rejected here, at
    plan time.

    Raises:
        CompilationError: for gate arities/types the fused kernels do not
            cover.
    """
    gate_type = gate.gate_type
    n_inputs = len(gate.inputs)
    if not supports_static_dispatch(gate_type, n_inputs):
        raise CompilationError(
            f"gate {gate.name!r} ({gate_type.value}, {n_inputs} inputs) "
            f"cannot be fused")
    kernel, invert = _GATE_KERNELS[gate_type]
    if gate_type.is_masked:
        if n_inputs < 2:
            raise CompilationError(
                f"masked gate {gate.name!r} has {n_inputs} input(s)")
        operands = list(gate.inputs[:2])
        # Masked composites that replaced an inverting primitive fold the
        # inversion into their recombination stage (transform attribute).
        invert = bool(gate.attributes.get("inverted_output"))
    else:
        operands = list(gate.inputs)
    return kernel, operands, invert


class CompiledNetlist:
    """Executable levelised plan for one netlist.

    The constructor performs the **plan** step: assign every signal a row in
    the state matrix (row 0 is the shared constant-zero signal, then primary
    inputs, then flip-flop outputs, then one contiguous row range per fused
    :class:`GateSegment` in level order) and precompute each segment's
    operand-row indices and kernel.

    Args:
        netlist: The design to compile.  Sequential designs are supported:
            flip-flop outputs are level-0 signals like primary inputs.

    Raises:
        CompilationError: if any combinational gate cannot be fused.
        LevelizationError: if the netlist has a combinational loop.

    Example (doctest)::

        >>> from repro.netlist import GateType, Netlist
        >>> from repro.simulation import CompiledNetlist
        >>> n = Netlist("tiny")
        >>> for net in ("a", "b", "c"):
        ...     n.add_primary_input(net)
        >>> _ = n.add_gate("g1", GateType.AND, ["a", "b"], "n1")
        >>> _ = n.add_gate("g2", GateType.AND, ["b", "c"], "n2")
        >>> _ = n.add_gate("g3", GateType.XOR, ["n1", "n2"], "y")
        >>> plan = CompiledNetlist(n)
        >>> plan.n_levels, plan.n_segments  # the two ANDs fuse into one
        (2, 2)
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        row_of: Dict[str, int] = {}
        next_row = ZERO_ROW + 1

        input_items: List[Tuple[str, int]] = []
        for net in netlist.primary_inputs:
            row_of[net] = next_row
            input_items.append((net, next_row))
            next_row += 1

        dff_gates = list(netlist.sequential_gates())
        for gate in dff_gates:
            if len(gate.inputs) != 1:
                raise CompilationError(
                    f"register {gate.name!r} has {len(gate.inputs)} inputs")
            row_of[gate.output] = next_row
            next_row += 1
        #: Contiguous row range holding the register outputs.
        self._dff_rows = (next_row - len(dff_gates), next_row)
        self._dff_outputs: Tuple[str, ...] = tuple(
            gate.output for gate in dff_gates)

        # Schedule pass: walk the levelised gates once and greedily fuse
        # them into homogeneous segments.  A gate may join an existing
        # segment with the same (kernel, fan-in, inversion) key as long as
        # every one of its operand producers runs in a strictly earlier
        # segment; otherwise a fresh segment is appended.  This merges
        # same-kernel work *across* levels (a level-5 XOR whose operands
        # were produced by level-1 gates rides in the first XOR segment
        # that runs late enough), so the segment count tracks the depth of
        # same-kernel dependency chains rather than the raw level count.
        #: scheduled segments: [key, level, [(gate, operands), ...]]
        scheduled: List[List] = []
        by_key: Dict[Tuple[int, int, bool], List[int]] = {}
        #: net -> index of the segment producing it (-1 for level-0 sources)
        producer: Dict[str, int] = {}
        depth = 0
        for level, names in level_groups(netlist):
            depth = level
            for name in names:
                gate = netlist.gate(name)
                kernel, operands, invert = _plan_gate(gate)
                key = (kernel, len(operands), invert)
                ready_after = max(
                    (producer.get(net, -1) for net in operands), default=-1)
                target = -1
                for index in by_key.get(key, ()):
                    if index > ready_after:
                        target = index
                        break
                if target < 0:
                    target = len(scheduled)
                    scheduled.append([key, level, []])
                    by_key.setdefault(key, []).append(target)
                scheduled[target][2].append((gate, operands))
                producer[gate.output] = target

        segments: List[GateSegment] = []
        for (kernel, fanin, invert), level, members in scheduled:
            rows = np.empty((fanin, len(members)), dtype=np.intp)
            out_start = next_row
            for j, (gate, operands) in enumerate(members):
                for i, net in enumerate(operands):
                    # Unseen operands are undriven (drivers always live in
                    # earlier segments): share the constant-zero row.
                    rows[i, j] = row_of.setdefault(net, ZERO_ROW)
                # Ignored trailing inputs (masked-composite randomness
                # nets) still surface in net_values, like the loop does.
                for net in gate.inputs[len(operands):]:
                    row_of.setdefault(net, ZERO_ROW)
                row_of[gate.output] = next_row
                next_row += 1
            segments.append(GateSegment(level, kernel, rows, out_start,
                                        next_row, invert))

        #: (register output net, its row, its data-input row) triplets; the
        #: data row falls back to the zero row for undriven data nets.
        self._dff_next_items: Tuple[Tuple[str, int, int], ...] = tuple(
            (gate.output, row_of[gate.output],
             row_of.get(gate.inputs[0], ZERO_ROW))
            for gate in dff_gates)
        self._input_items: Tuple[Tuple[str, int], ...] = tuple(input_items)
        self._segments: Tuple[GateSegment, ...] = tuple(segments)
        self._row_of = row_of
        self._depth = depth
        self.n_signals = next_row

        # Flat dispatch list: one (opcode, operand rows, out start, out
        # stop, invert) tuple per segment, with the fan-in class folded
        # into the opcode so the executor's inner loop is a single
        # tuple-unpack plus an if-chain ordered by frequency.
        self._exec: List[Tuple[int, np.ndarray, int, int, bool]] = []
        for seg in segments:
            rows = seg.operand_rows
            fanin = rows.shape[0]
            if seg.kernel == _K_COPY or fanin == 1:
                opcode = (_OP_NOT if seg.kernel == _K_NOT else _OP_COPY)
                operand = rows[0]
            elif seg.kernel == _K_MUX:
                opcode = _OP_MUX
                operand = rows
            elif fanin == 2:
                opcode = {_K_AND: _OP_AND2, _K_OR: _OP_OR2,
                          _K_XOR: _OP_XOR2}[seg.kernel]
                operand = rows
            else:
                opcode = {_K_AND: _OP_ANDN, _K_OR: _OP_ORN,
                          _K_XOR: _OP_XORN}[seg.kernel]
                operand = rows
            self._exec.append((opcode, operand, seg.out_start, seg.out_stop,
                               seg.invert))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def segments(self) -> Tuple[GateSegment, ...]:
        """The fused segments in execution (level) order."""
        return self._segments

    @property
    def n_segments(self) -> int:
        """Total number of fused segments (numpy-kernel batches)."""
        return len(self._segments)

    @property
    def n_levels(self) -> int:
        """Combinational depth of the design (number of logic levels).

        Taken from the levelisation, not from the segments: cross-level
        fusion can absorb a whole level into an earlier segment, so the
        distinct segment-opening levels would understate the depth.
        """
        return self._depth

    @property
    def n_gates(self) -> int:
        """Number of combinational gates covered by the plan."""
        return sum(segment.n_gates for segment in self._segments)

    @property
    def signal_index(self) -> Mapping[str, int]:
        """Mapping net name -> state-matrix row for every net in the plan.

        Covers the reference loop's ``net_values`` key set: primary inputs,
        register outputs, every gate input (undriven ones share the zero
        row) and every gate output.
        """
        return self._row_of

    def rows_for(self, nets: Sequence[str]) -> np.ndarray:
        """State-matrix rows of ``nets`` (zero row for unknown nets).

        Consumers that repeatedly read the same net set resolve their rows
        once and gather ``state_matrix[rows]`` per evaluation instead of
        walking a dict.  (The power engine goes one step further and adopts
        :attr:`signal_index` numbering for its whole plan, making its net
        matrix a zero-copy view.)
        """
        return np.asarray([self._row_of.get(net, ZERO_ROW) for net in nets],
                          dtype=np.intp)

    def describe(self) -> Dict[str, float]:
        """Plan statistics (used by benches and the architecture docs)."""
        n_gates = self.n_gates
        n_segments = self.n_segments
        return {
            "n_signals": self.n_signals,
            "n_gates": n_gates,
            "n_levels": self.n_levels,
            "n_segments": n_segments,
            "gates_per_segment": n_gates / n_segments if n_segments else 0.0,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_packed(
        self,
        input_values: Mapping[str, np.ndarray],
        state: Optional[Mapping[str, np.ndarray]],
        n_vectors: int,
    ) -> np.ndarray:
        """Run the bit-parallel sweep and return the **packed** state matrix.

        Inputs are packed eight vectors to a byte and every segment kernel
        is a fused bitwise byte operation; no unpack happens here.  Bit
        ``j`` (MSB first, ``numpy.packbits`` order) of byte ``k`` in a row
        holds vector ``8 * k + j`` of that signal; bits beyond
        ``n_vectors`` in the last byte are padding with **unspecified**
        values (inverting kernels flip them), so consumers must mask or
        drop them — :meth:`unpack` and
        :func:`repro.power.bitops.popcount_rows` both do.

        Args:
            input_values: Boolean array per primary input, shape
                ``(n_vectors,)`` each (the caller validates completeness
                and shape consistency).
            state: Register values (output net -> boolean array), or
                ``None``; missing registers default to 0.
            n_vectors: Batch size.

        Returns:
            The ``(n_signals, ceil(n_vectors / 8))`` uint8 matrix, marked
            read-only (row views of it are shared with lazy consumers).
            Fresh buffers are allocated per call, so results from
            successive calls never alias and the plan is safe to share
            across threads.
        """
        n_bytes = (n_vectors + 7) // 8
        # calloc'd: row 0 (constant zero), register defaults and undriven
        # rows are already correct.  Padding bits beyond n_vectors in the
        # last byte are dropped by the final unpack.
        packed = np.zeros((self.n_signals, n_bytes), dtype=np.uint8)

        if self._input_items:
            stacked = np.empty((len(self._input_items), n_vectors),
                               dtype=bool)
            for i, (net, _) in enumerate(self._input_items):
                stacked[i] = input_values[net]
            first_row = self._input_items[0][1]
            packed[first_row:first_row + len(self._input_items)] = (
                np.packbits(stacked, axis=1))
        if state:
            start, stop = self._dff_rows
            stacked = np.zeros((stop - start, n_vectors), dtype=bool)
            for i, net in enumerate(self._dff_outputs):
                value = state.get(net)
                if value is not None:
                    stacked[i] = value
            packed[start:stop] = np.packbits(stacked, axis=1)

        band, bor, bxor = np.bitwise_and, np.bitwise_or, np.bitwise_xor
        bnot, copyto = np.bitwise_not, np.copyto
        for opcode, rows, start, stop, invert in self._exec:
            out = packed[start:stop]
            if opcode == _OP_AND2:
                # The dominant cases: one gather, one fused binary op.
                operands = packed[rows]
                band(operands[0], operands[1], out=out)
            elif opcode == _OP_XOR2:
                operands = packed[rows]
                bxor(operands[0], operands[1], out=out)
            elif opcode == _OP_OR2:
                operands = packed[rows]
                bor(operands[0], operands[1], out=out)
            elif opcode == _OP_COPY:
                copyto(out, packed[rows])
            elif opcode == _OP_NOT:
                bnot(packed[rows], out=out)
            elif opcode == _OP_MUX:
                # MUX(d0, d1, sel) = (d0 & ~sel) | (d1 & sel); the gathered
                # operands are private copies, mutated freely.
                d0, d1, sel = packed[rows]
                band(d1, sel, out=d1)
                bnot(sel, out=sel)
                band(d0, sel, out=d0)
                bor(d0, d1, out=out)
            else:
                _REDUCE_UFUNC[opcode].reduce(packed[rows], axis=0, out=out)
            if invert:
                bnot(out, out=out)

        packed.setflags(write=False)
        return packed

    @staticmethod
    def unpack(packed: np.ndarray, n_vectors: int) -> np.ndarray:
        """Unpack a matrix from :meth:`execute_packed` to boolean form.

        Returns:
            The ``(n_signals, n_vectors)`` boolean state matrix, marked
            read-only: every exported net value is a view of this matrix,
            so an in-place mutation by a caller raises instead of silently
            corrupting other nets (same contract as the loop oracle's
            shared zero buffer, extended to all signals).
        """
        matrix = np.unpackbits(packed, axis=1, count=n_vectors).view(bool)
        matrix.setflags(write=False)
        return matrix

    def next_state_packed(self, packed: np.ndarray,
                          n_vectors: int) -> Dict[str, np.ndarray]:
        """Register next-state straight from a packed state matrix.

        Unpacks only the register data rows, so multi-cycle runs on the
        packed path never force a full-matrix unpack just to advance the
        clock.  Returns fresh writable arrays.
        """
        if not self._dff_next_items:
            return {}
        data_rows = np.asarray([row for _, _, row in self._dff_next_items],
                               dtype=np.intp)
        values = np.unpackbits(packed[data_rows], axis=1,
                               count=n_vectors).view(bool)
        return {net: values[i]
                for i, (net, _, _) in enumerate(self._dff_next_items)}
