"""Masked composite gate definitions (Trichina and DOM constructions).

Masking (paper §II-B) randomises sensitive intermediate values via secret
sharing: a value ``x`` is represented by shares whose XOR is ``x``, and
non-linear gates are replaced with composite structures that operate on the
shares plus fresh randomness.  The paper's Eq. (5) gives the Trichina masked
AND used by POLARIS::

    M(a · b) = ((a_hat · b_hat) ^ ((x · b_hat) ^ ((x · y) ^ z))) ^ (y · a_hat)

where ``a_hat = a ^ x`` and ``b_hat = b ^ y`` are the masked inputs, ``x``/
``y`` are the input masks and ``z`` is the fresh output mask.

The composites' internal share networks, which produce their power
traces, live in :meth:`repro.power.model.GatePowerModel._masked_nodes_for`;
this module only picks which composite replaces a primitive gate.
"""

from __future__ import annotations

from ..netlist.cell_library import MASKED_REPLACEMENT, GateType


def masked_type_for(gate_type: GateType, use_dom: bool = False) -> GateType:
    """Return the masked composite replacing primitive ``gate_type``.

    Args:
        gate_type: A maskable primitive (AND/NAND/OR/NOR/XOR/XNOR).
        use_dom: Replace AND-family gates with the DOM composite instead of
            the Trichina one (paper §V-E extension).

    Raises:
        ValueError: if ``gate_type`` has no masked equivalent.
    """
    if gate_type not in MASKED_REPLACEMENT:
        raise ValueError(
            f"gate type {gate_type.value} has no masked equivalent")
    masked_type = MASKED_REPLACEMENT[gate_type]
    if use_dom and masked_type is GateType.MASKED_AND:
        return GateType.MASKED_AND_DOM
    return masked_type


def needs_output_inverter(gate_type: GateType) -> bool:
    """Whether the composite replacing ``gate_type`` inverts its output.

    True for the inverting variants (NAND/NOR/XNOR): the masking transform
    records it as the replaced gate's ``inverted_output`` attribute, which
    the simulator applies to the composite's recombined output.
    """
    return gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR)
