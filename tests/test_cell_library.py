"""Tests for the standard-cell library."""

import pytest

from repro.netlist import (
    CellLibrary,
    CellSpec,
    DEFAULT_LIBRARY,
    GateType,
    MASKED_REPLACEMENT,
)


class TestGateType:
    def test_ports_are_flagged(self):
        assert GateType.INPUT.is_port
        assert GateType.OUTPUT.is_port
        assert not GateType.AND.is_port

    def test_sequential_flag(self):
        assert GateType.DFF.is_sequential
        assert not GateType.NAND.is_sequential

    def test_masked_flag(self):
        assert GateType.MASKED_AND.is_masked
        assert GateType.MASKED_AND_DOM.is_masked
        assert not GateType.AND.is_masked

    def test_combinational_flag(self):
        assert GateType.XOR.is_combinational
        assert GateType.MASKED_OR.is_combinational
        assert not GateType.DFF.is_combinational
        assert not GateType.INPUT.is_combinational

    def test_every_maskable_type_has_replacement(self):
        assert set(MASKED_REPLACEMENT) == {
            GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
            GateType.XOR, GateType.XNOR}
        assert all(masked_type.is_masked
                   for masked_type in MASKED_REPLACEMENT.values())


class TestCellLibrary:
    def test_default_library_covers_all_types(self):
        assert len(DEFAULT_LIBRARY) == len(GateType)
        for gate_type in GateType:
            assert gate_type in DEFAULT_LIBRARY

    def test_missing_cell_raises(self):
        partial = [DEFAULT_LIBRARY[GateType.AND]]
        with pytest.raises(ValueError, match="missing specs"):
            CellLibrary(partial)

    def test_ports_have_zero_cost(self):
        assert DEFAULT_LIBRARY.area(GateType.INPUT) == 0.0
        assert DEFAULT_LIBRARY.leakage_power(GateType.INPUT) == 0.0

    def test_masked_cells_cost_more_than_primitives(self):
        assert (DEFAULT_LIBRARY.area(GateType.MASKED_AND)
                > DEFAULT_LIBRARY.area(GateType.AND))
        assert (DEFAULT_LIBRARY.delay(GateType.MASKED_OR)
                > DEFAULT_LIBRARY.delay(GateType.OR))
        assert (DEFAULT_LIBRARY.switching_energy(GateType.MASKED_AND_DOM)
                > DEFAULT_LIBRARY.switching_energy(GateType.MASKED_AND))

    def test_xor_costs_more_than_nand(self):
        assert (DEFAULT_LIBRARY.area(GateType.XOR)
                > DEFAULT_LIBRARY.area(GateType.NAND))

    def test_area_scales_with_fanin(self):
        base = DEFAULT_LIBRARY.area(GateType.AND, fanin=2)
        assert DEFAULT_LIBRARY.area(GateType.AND, fanin=4) > base
        assert DEFAULT_LIBRARY.area(GateType.AND, fanin=1) == base

    def test_delay_scales_logarithmically_with_fanin(self):
        two = DEFAULT_LIBRARY.delay(GateType.AND, fanin=2)
        four = DEFAULT_LIBRARY.delay(GateType.AND, fanin=4)
        assert four == pytest.approx(two * 2)

    def test_is_maskable(self):
        assert DEFAULT_LIBRARY.is_maskable(GateType.AND)
        assert not DEFAULT_LIBRARY.is_maskable(GateType.DFF)
        assert not DEFAULT_LIBRARY.is_maskable(GateType.BUF)

    def test_iteration_yields_cellspecs(self):
        specs = list(DEFAULT_LIBRARY)
        assert all(isinstance(spec, CellSpec) for spec in specs)
        assert len(specs) == len(DEFAULT_LIBRARY)
