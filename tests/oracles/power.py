"""Per-gate reference loop of the trace engine.

:func:`generate_loop` is the original trace engine: two simulator sweeps
per campaign, then one power evaluation per gate, with masks and the
popcount noise drawn per gate from a sequential
:class:`numpy.random.Generator`.  It is the oracle of
:meth:`repro.power.PowerTraceGenerator.generate` (PL002 pair
``trace-engine``): exact to float32 on unmasked designs without noise,
equal in distribution on masked designs.

:func:`unmasked_power` and :func:`masked_power` evaluate one gate's power
directly from its toggles and from its masked composite's internal share
network (:meth:`repro.power.GatePowerModel._masked_nodes_for` with
freshly drawn masks), the per-trace form of the fused value tables the
production engine gathers from.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.netlist.cell_library import GateType
from repro.netlist.netlist import Gate
from repro.power.bitops import FAST_NOISE_BITS, popcount16, words_for_units
from repro.power.model import GatePowerModel
from repro.power.traces import PowerTraceGenerator, PowerTraces
from repro.simulation.vectors import TraceCampaign

#: Full range of a uint64 word, used to draw raw noise bits.
_U64_MAX = np.iinfo(np.uint64).max

Masks = Tuple[np.ndarray, np.ndarray, np.ndarray]


def unmasked_power(model: GatePowerModel, gate: Gate, toggled: np.ndarray,
                   fanout: int = 1) -> np.ndarray:
    """Power of an ordinary cell: energy on toggle plus static floor.

    Args:
        model: The gate power model.
        gate: The gate instance.
        toggled: Boolean array (n_traces,) of output toggles.
        fanout: Number of sinks the gate drives; every extra load adds
            ``load_factor`` times the cell energy to each output toggle.

    Returns:
        Float array (n_traces,) of noiseless power samples.
    """
    dynamic, static = model.unmasked_coefficients(gate, fanout)
    return dynamic * toggled.astype(float) + static


def _masked_internal_nodes(gate_type: GateType, a: np.ndarray, b: np.ndarray,
                           rng: np.random.Generator,
                           masks: Optional[Masks] = None
                           ) -> Tuple[Dict[str, np.ndarray], Masks]:
    """Masked-composite node values for one stimulus, and the masks used.

    Draws fresh masks ``(x, y, z)`` from ``rng`` unless ``masks`` is given.
    """
    if masks is None:
        masks = tuple(rng.integers(0, 2, size=a.shape,
                                   dtype=np.uint8).astype(bool)
                      for _ in range(3))
    return GatePowerModel._masked_nodes_for(gate_type, a, b, *masks), masks


def masked_power(model: GatePowerModel, gate: Gate,
                 data_prev: Tuple[np.ndarray, np.ndarray],
                 data_cur: Tuple[np.ndarray, np.ndarray],
                 rng: np.random.Generator,
                 glitch_input_factor: float = 1.0) -> np.ndarray:
    """Power of a masked composite cell from its internal share toggles.

    Args:
        model: The gate power model.
        gate: The masked gate instance.
        data_prev: Tuple of the two data inputs' values in the previous
            stimulus (boolean arrays of shape (n_traces,)).
        data_cur: Same for the current stimulus.
        rng: Generator for the fresh mask bits.
        glitch_input_factor: Multiplier on the residual data-dependent
            leakage reflecting how glitchy the gate's fan-in cone is.

    Returns:
        Float array (n_traces,) of noiseless power samples.
    """
    a_prev, b_prev = data_prev
    a_cur, b_cur = data_cur
    n_traces = a_cur.shape[0]
    nodes_prev, masks = _masked_internal_nodes(gate.gate_type, a_prev,
                                               b_prev, rng)
    # Faulty masking (mask_refresh=False) reuses the previous masks, so
    # the shares track the data and leakage persists.
    nodes_cur, _ = _masked_internal_nodes(
        gate.gate_type, a_cur, b_cur, rng,
        masks=None if model.config.mask_refresh else masks)
    toggles = np.zeros(n_traces, dtype=float)
    for name in nodes_cur:
        toggles += np.logical_xor(nodes_prev[name], nodes_cur[name]).astype(float)
    total_energy = model.library.switching_energy(gate.gate_type, gate.fanin)
    per_node_energy = total_energy / max(1, len(nodes_cur))
    static = model.config.static_fraction * total_energy

    # Residual first-order leakage: the composite's data input pins carry
    # unmasked values, so their transitions (and the glitches they feed
    # into the masked core) remain data dependent.
    residual_coeff = model.masked_residual_coefficient(gate,
                                                       glitch_input_factor)
    residual = np.zeros(n_traces, dtype=float)
    if residual_coeff > 0:
        input_toggles = (
            np.logical_xor(a_prev, a_cur).astype(float)
            + np.logical_xor(b_prev, b_cur).astype(float)
        ) / 2.0
        residual = residual_coeff * input_toggles

    return per_node_energy * toggles + residual + static


def _fast_noise_counts(rng: np.random.Generator,
                       shape: Tuple[int, ...]) -> np.ndarray:
    """Raw Binomial(16, 1/2) popcounts of the loop's noise."""
    count = int(np.prod(shape)) if shape else 1
    words = rng.integers(0, _U64_MAX, size=words_for_units(count, np.uint16),
                         dtype=np.uint64, endpoint=True)
    return popcount16(words.view(np.uint16)[:count].reshape(shape))


def generate_loop(generator: PowerTraceGenerator, campaign: TraceCampaign,
                  rng: np.random.Generator) -> PowerTraces:
    """Per-gate reference loop of ``generator.generate``.

    Simulates the previous and the current rows in two sweeps on the
    generator's simulator, then evaluates every gate's power on its own.
    Masks and the popcount noise are drawn per gate from ``rng``.
    """
    prev_inputs, cur_inputs = campaign.as_dicts()
    previous = generator._simulator.evaluate(prev_inputs).net_values
    current = generator._simulator.evaluate(cur_inputs).net_values
    model = generator._model

    noisy = generator.config.noise_sigma > 0
    noise_scale, _ = model.fast_noise_params()

    n_traces = campaign.n_traces
    per_gate = np.zeros((n_traces, len(generator._gates)), dtype=float)
    for column, gate in enumerate(generator._gates):
        if gate.gate_type.is_masked:
            a_net, b_net = gate.inputs[0], gate.inputs[1]
            power = masked_power(
                model, gate,
                (previous[a_net], previous[b_net]),
                (current[a_net], current[b_net]),
                rng=rng,
                glitch_input_factor=generator._glitch_factors.get(gate.name,
                                                                  1.0),
            )
        else:
            # A register toggles when its captured value changes.
            watch = (gate.inputs[0] if gate.gate_type.is_sequential
                     else gate.output)
            toggled = np.logical_xor(previous[watch], current[watch])
            power = unmasked_power(model, gate, toggled,
                                   fanout=generator._fanouts.get(gate.name, 1))
        if noisy:
            counts = _fast_noise_counts(rng, (n_traces,))
            power = power + (counts - FAST_NOISE_BITS / 2.0) * noise_scale
        per_gate[:, column] = power

    return PowerTraces(campaign.label, generator.gate_names, per_gate)
