"""Switching-activity analysis.

Dynamic power in CMOS is dominated by output toggles, so the power model
(:mod:`repro.power.model`) needs, for every gate and every trace, whether the
gate's output changed between the previous and the current stimulus.  This
module computes those per-gate toggle matrices and aggregate switching
statistics from two :class:`~repro.simulation.simulator.SimulationResult`
batches.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from ..netlist.netlist import Netlist
from .simulator import SimulationResult


def toggle_matrix(netlist: Netlist, previous: SimulationResult,
                  current: SimulationResult) -> Dict[str, np.ndarray]:
    """Per-gate boolean toggle matrix between two evaluation batches.

    Returns:
        Mapping gate name -> boolean array ``(n_traces,)`` that is ``True``
        where the gate's output differs between the two batches.

    Raises:
        ValueError: if the two results have different batch sizes.
    """
    if previous.n_vectors != current.n_vectors:
        raise ValueError("previous and current batches have different sizes")
    toggles: Dict[str, np.ndarray] = {}
    for gate in netlist.gates:
        before = previous.net_values[gate.output]
        after = current.net_values[gate.output]
        toggles[gate.name] = np.logical_xor(before, after)
    return toggles


def toggle_counts(netlist: Netlist, previous: SimulationResult,
                  current: SimulationResult) -> Dict[str, int]:
    """Total number of toggles per gate across the batch.

    When both results come from the same compiled plan, the counts come
    straight from ``popcount(prev_row ^ cur_row)`` on the packed bytes
    (:func:`repro.power.bitops.popcount_rows`) — no boolean unpack, 8x
    less memory touched, bit-identical totals.
    """
    plan = previous.plan
    if plan is current.plan:
        if previous.n_vectors != current.n_vectors:
            raise ValueError(
                "previous and current batches have different sizes")
        from ..power.bitops import popcount_rows
        gates = list(netlist.gates)
        rows = plan.rows_for([gate.output for gate in gates])
        counts = popcount_rows(
            previous.packed_matrix[rows] ^ current.packed_matrix[rows],
            previous.n_vectors)
        return {gate.name: int(count) for gate, count in zip(gates, counts)}
    return {name: int(matrix.sum())
            for name, matrix in toggle_matrix(netlist, previous, current).items()}


def switching_activity(netlist: Netlist, previous: SimulationResult,
                       current: SimulationResult) -> Dict[str, float]:
    """Per-gate toggle probability (toggles / traces) between two batches."""
    n = max(1, previous.n_vectors)
    return {name: count / n
            for name, count in toggle_counts(netlist, previous, current).items()}


def design_switching_summary(activity: Mapping[str, float]) -> Dict[str, float]:
    """Aggregate statistics of a per-gate switching-activity mapping."""
    if not activity:
        return {"mean": 0.0, "max": 0.0, "min": 0.0, "total": 0.0}
    values = np.array(list(activity.values()), dtype=float)
    return {
        "mean": float(values.mean()),
        "max": float(values.max()),
        "min": float(values.min()),
        "total": float(values.sum()),
    }
