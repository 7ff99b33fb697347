"""Tests for masked gate definitions and the masking transform."""

import itertools

import numpy as np
import pytest

from repro.masking import (
    apply_masking,
    mask_fraction,
    maskable_gates,
    masked_type_for,
    needs_output_inverter,
)
from repro.netlist import (
    DEFAULT_LIBRARY,
    MASKED_REPLACEMENT,
    GateType,
    Netlist,
    validate_netlist,
)
from repro.power import GatePowerModel
from repro.simulation import evaluate_gate, functional_equivalent, simulate


class TestMaskedGateConstructions:
    # Per composite: the node carrying the recombined output, whether the
    # network yields its complement, the function it must compute on
    # (a, b, x, y, z), and the number of internal nodes.
    EQ5_CASES = {
        GateType.MASKED_AND: ("out", False, lambda a, b, x, y, z: (a & b) ^ z, 10),
        GateType.MASKED_AND_DOM: ("out", False,
                                  lambda a, b, x, y, z: (a & b) ^ z, 12),
        # The De Morgan network yields the complement of the masked OR;
        # complementing a node leaves its toggles unchanged.
        GateType.MASKED_OR: ("out", True, lambda a, b, x, y, z: (a | b) ^ z, 10),
        GateType.MASKED_XOR: ("out_share", False,
                              lambda a, b, x, y, z: (a ^ b) ^ (x ^ y), 4),
    }

    @pytest.mark.parametrize("gate_type", list(EQ5_CASES), ids=lambda t: t.value)
    def test_share_network_computes_eq5_for_all_inputs(self, gate_type):
        # The share network that produces every masked power trace must
        # compute the paper's Eq. (5) for every combination of data bits
        # (a, b), input masks (x, y) and fresh output mask (z).
        node, complemented, expected, node_count = self.EQ5_CASES[gate_type]
        a, b, x, y, z = np.array(
            list(itertools.product([False, True], repeat=5))).T
        model = GatePowerModel()
        out = model._masked_nodes_for(gate_type, a, b, x, y, z)[node]
        np.testing.assert_array_equal(~out if complemented else out,
                                      expected(a, b, x, y, z))
        assert model.masked_node_count(gate_type) == node_count

    def test_masked_type_for_mapping(self):
        assert masked_type_for(GateType.AND) is GateType.MASKED_AND
        assert masked_type_for(GateType.NAND) is GateType.MASKED_AND
        assert masked_type_for(GateType.NOR) is GateType.MASKED_OR
        assert masked_type_for(GateType.XNOR) is GateType.MASKED_XOR
        assert masked_type_for(GateType.AND, use_dom=True) is GateType.MASKED_AND_DOM
        with pytest.raises(ValueError):
            masked_type_for(GateType.NOT)

    @pytest.mark.parametrize("use_dom", [False, True], ids=["trichina", "dom"])
    @pytest.mark.parametrize("gate_type", list(GateType), ids=lambda t: t.value)
    def test_masked_type_for_agrees_with_library(self, gate_type, use_dom):
        # One table answers "is it maskable" and "what replaces it".
        if not DEFAULT_LIBRARY.is_maskable(gate_type):
            assert gate_type not in MASKED_REPLACEMENT
            with pytest.raises(ValueError, match="no masked equivalent"):
                masked_type_for(gate_type, use_dom=use_dom)
            return
        masked_type = masked_type_for(gate_type, use_dom=use_dom)
        assert masked_type.is_masked
        if use_dom and MASKED_REPLACEMENT[gate_type] is GateType.MASKED_AND:
            assert masked_type is GateType.MASKED_AND_DOM
        else:
            assert masked_type is MASKED_REPLACEMENT[gate_type]

    def test_output_inverter_needed_only_for_inverting_gates(self):
        assert needs_output_inverter(GateType.NAND)
        assert needs_output_inverter(GateType.NOR)
        assert needs_output_inverter(GateType.XNOR)
        assert not needs_output_inverter(GateType.AND)


class TestMaskingTransform:
    def test_maskable_gates_excludes_inverters_and_ffs(self, sequential_netlist):
        candidates = maskable_gates(sequential_netlist)
        assert "ff" not in candidates
        assert "g_xor" in candidates

    def test_apply_masking_replaces_types(self, tiny_netlist):
        result = apply_masking(tiny_netlist, ["g_and", "g_nand"])
        assert result.n_masked == 2
        masked = result.netlist
        assert masked.gate("g_and").gate_type is GateType.MASKED_AND
        assert masked.gate("g_nand").gate_type is GateType.MASKED_AND
        assert masked.gate("g_nand").attributes["inverted_output"] is True
        assert masked.gate("g_and").attributes["inverted_output"] is False
        # Untouched gates keep their types.
        assert masked.gate("g_or").gate_type is GateType.OR

    def test_original_netlist_not_modified(self, tiny_netlist):
        apply_masking(tiny_netlist, ["g_and"])
        assert tiny_netlist.gate("g_and").gate_type is GateType.AND

    def test_masking_preserves_functionality(self, random_netlist):
        result = apply_masking(random_netlist, maskable_gates(random_netlist))
        assert functional_equivalent(random_netlist, result.netlist, n_vectors=512)
        assert validate_netlist(result.netlist).is_valid

    def test_dom_masking_preserves_functionality(self, random_netlist):
        result = apply_masking(random_netlist, maskable_gates(random_netlist),
                               use_dom=True)
        assert functional_equivalent(random_netlist, result.netlist, n_vectors=256)
        assert any(g.gate_type is GateType.MASKED_AND_DOM
                   for g in result.netlist.gates)

    def test_unknown_and_unmaskable_gates_skipped(self, sequential_netlist):
        result = apply_masking(sequential_netlist, ["ff", "ghost", "g_xor"])
        assert result.n_masked == 1
        reasons = dict(result.skipped_gates)
        assert "ghost" in reasons and "unknown" in reasons["ghost"]
        assert "ff" in reasons

    def test_double_masking_skipped(self, tiny_netlist):
        once = apply_masking(tiny_netlist, ["g_and"]).netlist
        twice = apply_masking(once, ["g_and"])
        assert twice.n_masked == 0
        assert any("already masked" in reason for _, reason in twice.skipped_gates)

    def test_protection_style_and_scale_recorded(self, tiny_netlist):
        result = apply_masking(tiny_netlist, ["g_and"],
                               protection_style="valiant", overhead_scale=1.5)
        gate = result.netlist.gate("g_and")
        assert gate.attributes["protection_style"] == "valiant"
        assert gate.attributes["overhead_scale"] == 1.5

    @pytest.mark.parametrize("use_dom", [False, True], ids=["trichina", "dom"])
    @pytest.mark.parametrize("gate_type", list(MASKED_REPLACEMENT),
                             ids=lambda t: t.value)
    def test_masked_gate_keeps_truth_table(self, gate_type, use_dom):
        # An inverting primitive becomes the non-inverting composite with
        # ``inverted_output`` set, and the simulator applies it: the masked
        # one-gate design computes the primitive on all four inputs.
        netlist = Netlist("one_gate")
        netlist.add_primary_input("a")
        netlist.add_primary_input("b")
        netlist.add_gate("g", gate_type, ["a", "b"], "y")
        netlist.add_primary_output("y")
        result = apply_masking(netlist, ["g"], use_dom=use_dom)
        gate = result.netlist.gate("g")
        assert result.masked_gates == ("g",)
        assert gate.gate_type is masked_type_for(gate_type, use_dom=use_dom)
        assert gate.attributes["inverted_output"] is needs_output_inverter(
            gate_type)
        assert gate.attributes["masked_from"] == gate_type.value
        a, b = np.array(list(itertools.product([False, True], repeat=2))).T
        outputs = simulate(result.netlist, {"a": a, "b": b}).net_values["y"]
        np.testing.assert_array_equal(outputs, evaluate_gate(gate_type, [a, b]))

    def test_masked_from_records_replaced_type(self, tiny_netlist):
        # Each replaced gate records the primitive it replaced; the power
        # model reads it to size the residual leakage.
        masked = apply_masking(tiny_netlist, ["g_and", "g_xor"]).netlist
        mapping = {gate.name: gate.attributes.get("masked_from")
                   for gate in masked.gates if gate.gate_type.is_masked}
        assert mapping == {"g_and": "AND", "g_xor": "XOR"}


class TestMaskFraction:
    def test_zero_and_full_fraction(self, random_netlist):
        zero = mask_fraction(random_netlist, 0.0)
        full = mask_fraction(random_netlist, 1.0)
        assert zero.n_masked == 0
        assert full.n_masked == len(maskable_gates(random_netlist))

    def test_half_fraction_uses_ranking_order(self, random_netlist):
        ranked = list(maskable_gates(random_netlist))
        half = mask_fraction(random_netlist, 0.5, ranked_gates=ranked)
        expected = set(ranked[:int(round(len(ranked) * 0.5))])
        assert set(half.masked_gates) == expected

    def test_invalid_fraction_rejected(self, random_netlist):
        with pytest.raises(ValueError):
            mask_fraction(random_netlist, 1.5)
