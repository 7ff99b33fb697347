"""Masking transform: replace selected gates with masked composites.

This implements the ``modify(Sgates, D)`` primitive of the paper's
Algorithms 1 and 2: given a netlist and a set of gate names, each selected
maskable gate is replaced in-place by its masked composite cell, preserving
the design's logical function while changing its power signature.  An
inverting variant (NAND/NOR/XNOR) becomes the non-inverting composite with
its ``inverted_output`` attribute set, so no separate inverter cell is
added.

The transform never mutates its input; it returns a new netlist so the
original and masked designs can be assessed side by side (as the paper's
Table II requires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..netlist.netlist import Netlist
from .masked_gates import masked_type_for, needs_output_inverter


@dataclass
class MaskingResult:
    """Outcome of one masking transform.

    Attributes:
        netlist: The masked netlist (a new object).
        masked_gates: Names of gates that were replaced.
        skipped_gates: Requested gates that could not be masked (missing or
            not maskable), with the reason.
    """

    netlist: Netlist
    masked_gates: Tuple[str, ...]
    skipped_gates: Tuple[Tuple[str, str], ...]

    @property
    def n_masked(self) -> int:
        """Number of gates actually replaced."""
        return len(self.masked_gates)


def maskable_gates(netlist: Netlist) -> Tuple[str, ...]:
    """Names of all gates in ``netlist`` eligible for masking."""
    return tuple(
        gate.name for gate in netlist.gates
        if netlist.library.is_maskable(gate.gate_type)
    )


def apply_masking(
    netlist: Netlist,
    gate_names: Iterable[str],
    use_dom: bool = False,
    suffix: str = "_masked",
    protection_style: str = "trichina",
    overhead_scale: float = 1.0,
) -> MaskingResult:
    """Replace ``gate_names`` in ``netlist`` with masked composite cells.

    Args:
        netlist: The design to protect (not modified).
        gate_names: Gates to replace; non-maskable or unknown names are
            skipped and reported rather than raising, because upstream
            selection heuristics may legitimately nominate e.g. inverters.
        use_dom: Use the DOM composite for AND-family gates.
        suffix: Appended to the netlist name of the masked copy.
        protection_style: Recorded on each replaced gate; the power model
            applies a different residual-leakage factor for ``"valiant"``
            style protection than for the default ``"trichina"`` composites.
        overhead_scale: Area/power/delay multiplier recorded on each
            replaced gate (used to model heavier protection cells).

    Returns:
        A :class:`MaskingResult` with the new netlist and bookkeeping.
    """
    masked = netlist.copy(netlist.name + suffix)
    replaced: List[str] = []
    skipped: List[Tuple[str, str]] = []

    requested: Set[str] = set(gate_names)
    for name in sorted(requested):
        if name not in masked:
            skipped.append((name, "unknown gate"))
            continue
        gate = masked.gate(name)
        if gate.gate_type.is_masked:
            skipped.append((name, "already masked"))
            continue
        if not masked.library.is_maskable(gate.gate_type):
            skipped.append((name, f"type {gate.gate_type.value} not maskable"))
            continue

        original_type = gate.gate_type
        masked_type = masked_type_for(original_type, use_dom=use_dom)
        inputs = list(gate.inputs)
        output = gate.output
        attributes = dict(gate.attributes)
        attributes["masked_from"] = original_type.value
        attributes["protection_style"] = protection_style
        # polaris-lint: disable=PL006 exact-default check on a pass-through config knob, never a computed float
        if overhead_scale != 1.0:
            attributes["overhead_scale"] = overhead_scale
        # Inverting variants (NAND/NOR/XNOR) fold the inversion into the
        # masked composite's recombination stage, so no separate (and
        # leaky) inverter cell is exposed in the netlist; the simulator
        # inverts the composite's output when ``inverted_output`` is set.
        attributes["inverted_output"] = needs_output_inverter(original_type)

        masked.remove_gate(name)
        masked.add_gate(name, masked_type, inputs, output, attributes)
        replaced.append(name)

    return MaskingResult(
        netlist=masked,
        masked_gates=tuple(replaced),
        skipped_gates=tuple(skipped),
    )


def mask_fraction(netlist: Netlist, fraction: float,
                  ranked_gates: Optional[Sequence[str]] = None,
                  use_dom: bool = False) -> MaskingResult:
    """Mask a fraction of the (ranked) maskable gates.

    Args:
        netlist: Design to protect.
        fraction: Fraction in [0, 1] of the candidate list to mask; the
            paper's "X % Mask" configurations use 0.5, 0.75 and 1.0.
        ranked_gates: Candidate gates in priority order (most important
            first); defaults to all maskable gates in netlist order.
        use_dom: Use DOM composites for AND-family gates.

    Raises:
        ValueError: if ``fraction`` is outside [0, 1].
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    candidates = list(ranked_gates) if ranked_gates is not None else list(
        maskable_gates(netlist))
    count = int(round(len(candidates) * fraction))
    return apply_masking(netlist, candidates[:count], use_dom=use_dom)
