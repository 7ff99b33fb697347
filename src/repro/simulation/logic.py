"""Boolean evaluation of library cells on vectorised numpy operands.

All simulator code represents a signal's value across ``n`` parallel input
vectors as a ``numpy`` boolean array of shape ``(n,)``; evaluating a gate is
a single vectorised bitwise operation, which keeps whole-design simulation
fast enough for TVLA campaigns with thousands of traces.

Masked composite cells evaluate to the same Boolean function as the cell
they replace (masking preserves functionality); their side-channel behaviour
is modelled separately by the power model, which looks at the masked shares.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from ..netlist.cell_library import GateType

BoolArray = np.ndarray


def _reduce(op: Callable[[BoolArray, BoolArray], BoolArray],
            operands: Sequence[BoolArray]) -> BoolArray:
    result = operands[0]
    for value in operands[1:]:
        result = op(result, value)
    return result


def _eval_and(operands: Sequence[BoolArray]) -> BoolArray:
    return _reduce(np.logical_and, operands)


def _eval_or(operands: Sequence[BoolArray]) -> BoolArray:
    return _reduce(np.logical_or, operands)


def _eval_xor(operands: Sequence[BoolArray]) -> BoolArray:
    return _reduce(np.logical_xor, operands)


def _eval_not(operands: Sequence[BoolArray]) -> BoolArray:
    return np.logical_not(operands[0])


def _eval_buf(operands: Sequence[BoolArray]) -> BoolArray:
    return np.asarray(operands[0], dtype=bool).copy()


def _eval_mux(operands: Sequence[BoolArray]) -> BoolArray:
    # MUX(d0, d1, sel): sel ? d1 : d0
    d0, d1, sel = operands
    return np.where(sel, d1, d0)


_EVALUATORS: Dict[GateType, Callable[[Sequence[BoolArray]], BoolArray]] = {
    GateType.BUF: _eval_buf,
    GateType.NOT: _eval_not,
    GateType.AND: _eval_and,
    GateType.NAND: lambda ops: np.logical_not(_eval_and(ops)),
    GateType.OR: _eval_or,
    GateType.NOR: lambda ops: np.logical_not(_eval_or(ops)),
    GateType.XOR: _eval_xor,
    GateType.XNOR: lambda ops: np.logical_not(_eval_xor(ops)),
    GateType.MUX: _eval_mux,
    # Masked cells compute the original (unmasked) function on data inputs;
    # any trailing randomness inputs are ignored for the logical value.
    GateType.MASKED_AND: lambda ops: _eval_and(ops[:2]),
    GateType.MASKED_OR: lambda ops: _eval_or(ops[:2]),
    GateType.MASKED_XOR: lambda ops: _eval_xor(ops[:2]),
    GateType.MASKED_AND_DOM: lambda ops: _eval_and(ops[:2]),
}

#: Number of *data* inputs a masked cell consumes; remaining inputs (if the
#: masking transform wires explicit randomness nets) are mask bits.
MASKED_DATA_INPUTS: Dict[GateType, int] = {
    GateType.MASKED_AND: 2,
    GateType.MASKED_OR: 2,
    GateType.MASKED_XOR: 2,
    GateType.MASKED_AND_DOM: 2,
}


def supports_static_dispatch(gate_type: GateType, n_inputs: int) -> bool:
    """Whether ``(gate_type, n_inputs)`` can skip the checked evaluate path.

    Shared by the fused planner (:mod:`repro.simulation.compiled`), which
    rejects anything else up front with a ``CompilationError``, and the
    per-gate loop oracle of the tests, which resolves such gates to bare
    evaluators and keeps the lazily raising :func:`evaluate_gate` path for
    anything else.  Keeping the condition in one place keeps the two
    agreeing on which gates are malformed.
    """
    return (gate_type in _EVALUATORS and n_inputs >= 1
            and not (gate_type is GateType.MUX and n_inputs != 3)
            and not (gate_type in (GateType.NOT, GateType.BUF)
                     and n_inputs != 1))


def evaluate_gate(gate_type: GateType, operands: Sequence[BoolArray]) -> BoolArray:
    """Evaluate ``gate_type`` on vectorised boolean ``operands``.

    Args:
        gate_type: A combinational (or masked composite) cell type.
        operands: One boolean array per input, all of equal shape.

    Returns:
        Boolean array with the gate's output for every vector.

    Raises:
        ValueError: for port/sequential cells or wrong operand counts.
    """
    if gate_type not in _EVALUATORS:
        raise ValueError(f"gate type {gate_type.value} is not combinational")
    if not operands:
        raise ValueError("evaluate_gate requires at least one operand")
    arrays = [np.asarray(op, dtype=bool) for op in operands]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("all operands must share the same shape")
    if gate_type is GateType.MUX and len(arrays) != 3:
        raise ValueError("MUX requires exactly 3 operands (d0, d1, sel)")
    if gate_type in (GateType.NOT, GateType.BUF) and len(arrays) != 1:
        raise ValueError(f"{gate_type.value} requires exactly 1 operand")
    return _EVALUATORS[gate_type](arrays)


def gate_truth_table(gate_type: GateType, fanin: int) -> np.ndarray:
    """Return the truth table of ``gate_type`` for ``fanin`` inputs.

    The result is a boolean array of length ``2**fanin`` indexed by the
    integer formed by the input bits (input 0 is the least-significant bit).
    Useful for exhaustive equivalence checks in the test-suite.
    """
    n_rows = 2 ** fanin
    columns = []
    for bit in range(fanin):
        pattern = (np.arange(n_rows) >> bit) & 1
        columns.append(pattern.astype(bool))
    return evaluate_gate(gate_type, columns)
