"""Tests for the vectorised logic simulator and levelisation."""

import numpy as np
import pytest

from repro.netlist import GateType, Netlist
from repro.simulation import (
    LevelizationError,
    LogicSimulator,
    SimulationError,
    functional_equivalent,
    gate_levels,
    level_groups,
    simulate,
    topological_gate_order,
)


class TestLevelization:
    def test_topological_order_respects_dependencies(self, tiny_netlist):
        order = topological_gate_order(tiny_netlist)
        assert order.index("g_and") < order.index("g_xor")
        assert order.index("g_xor") < order.index("g_nand")
        assert order.index("g_nand") < order.index("g_not")

    def test_levels(self, tiny_netlist):
        levels = gate_levels(tiny_netlist)
        assert levels["g_and"] == 1
        assert levels["g_or"] == 1
        assert levels["g_xor"] == 2
        assert levels["g_nand"] == 3
        assert levels["g_not"] == 4

    def test_level_groups_sorted(self, tiny_netlist):
        groups = level_groups(tiny_netlist)
        assert [level for level, _ in groups] == sorted(level for level, _ in groups)
        assert groups[0][1] == ["g_and", "g_or"]

    def test_combinational_loop_raises(self):
        netlist = Netlist("loop")
        netlist.add_primary_input("a")
        netlist.add_primary_output("y")
        netlist.add_gate("g1", GateType.AND, ["a", "n2"], "n1")
        netlist.add_gate("g2", GateType.OR, ["n1", "a"], "n2")
        netlist.add_primary_output("n1")
        with pytest.raises(LevelizationError):
            topological_gate_order(netlist)


class TestSimulation:
    def test_known_function(self, tiny_netlist, rng):
        n = 128
        stimulus = {net: rng.integers(0, 2, n).astype(bool)
                    for net in tiny_netlist.primary_inputs}
        result = simulate(tiny_netlist, stimulus)
        a, b, c, d = (stimulus[x] for x in ("a", "b", "c", "d"))
        n1 = a & b
        n2 = c | d
        n3 = n1 ^ n2
        expected_y = ~(~(n1 & n3))  # NOT(NAND(n1, n3)) == AND
        np.testing.assert_array_equal(result.net_values["n3"], n3)
        np.testing.assert_array_equal(result.net_values["y"], n1 & n3)
        assert result.n_vectors == n

    def test_missing_input_raises(self, tiny_netlist):
        with pytest.raises(SimulationError, match="missing stimulus"):
            simulate(tiny_netlist, {"a": np.zeros(4, bool)})

    def test_inconsistent_lengths_raise(self, tiny_netlist):
        stimulus = {net: np.zeros(4, bool) for net in tiny_netlist.primary_inputs}
        stimulus["a"] = np.zeros(5, bool)
        with pytest.raises(SimulationError, match="inconsistent"):
            simulate(tiny_netlist, stimulus)

    def test_sequential_state_defaults_to_zero(self, sequential_netlist):
        stimulus = {"a": np.array([True]), "b": np.array([False])}
        result = simulate(sequential_netlist, stimulus)
        # q defaults to 0, so y = q & a = 0; next state captures a^b = 1.
        assert not result.net_values["y"][0]
        assert result.next_state["q"][0]

    def test_run_cycles_propagates_state(self, sequential_netlist):
        simulator = LogicSimulator(sequential_netlist)
        cycles = [
            {"a": np.array([True]), "b": np.array([False])},
            {"a": np.array([True]), "b": np.array([True])},
        ]
        results = simulator.run_cycles(cycles)
        # Cycle 1: q=0 -> y=0; cycle 2: q=1 (captured a^b from cycle 1) -> y=q&a=1.
        assert not results[0].net_values["y"][0]
        assert results[1].net_values["y"][0]

    def test_gate_output_accessor(self, tiny_netlist, rng):
        stimulus = {net: rng.integers(0, 2, 8).astype(bool)
                    for net in tiny_netlist.primary_inputs}
        result = simulate(tiny_netlist, stimulus)
        np.testing.assert_array_equal(result.gate_output(tiny_netlist, "g_and"),
                                      result.net_values["n1"])

    def test_empty_stimulus_raises(self, tiny_netlist):
        with pytest.raises(SimulationError, match="no input stimulus"):
            simulate(tiny_netlist, {})

    def test_scalar_stimulus_gets_clear_error(self, tiny_netlist):
        stimulus = {net: True for net in tiny_netlist.primary_inputs}
        with pytest.raises(SimulationError, match="scalar stimulus"):
            simulate(tiny_netlist, stimulus)

    def test_two_dimensional_stimulus_gets_clear_error(self, tiny_netlist):
        # A 2-D array used to reach the packed sweep and die on a bare
        # numpy broadcast ValueError.
        stimulus = {net: np.zeros(4, dtype=bool)
                    for net in tiny_netlist.primary_inputs}
        net = tiny_netlist.primary_inputs[0]
        stimulus[net] = np.zeros((4, 2), dtype=bool)
        with pytest.raises(SimulationError,
                           match=rf"stimulus for input '{net}' has shape"):
            simulate(tiny_netlist, stimulus)

    def test_list_stimulus_accepted(self, tiny_netlist):
        stimulus = {net: [True, False, True]
                    for net in tiny_netlist.primary_inputs}
        result = simulate(tiny_netlist, stimulus)
        assert result.n_vectors == 3
        np.testing.assert_array_equal(
            result.net_values["n1"], np.array([True, False, True]))

    def test_mutating_returned_state_does_not_corrupt_cycles(
            self, sequential_netlist):
        # Regression: the simulator used to alias one shared zero buffer
        # across undriven nets, DFF defaults and the exported next_state; a
        # caller mutating the returned state corrupted unrelated nets.
        simulator = LogicSimulator(sequential_netlist)
        cycles = [
            {"a": np.array([True, True]), "b": np.array([False, True])},
            {"a": np.array([True, True]), "b": np.array([True, False])},
        ]
        reference = [r.net_values["y"].copy()
                     for r in simulator.run_cycles(cycles)]

        first = simulator.evaluate(cycles[0])
        # Mutate the exported state in place: this must not touch any array
        # the simulator hands out for later evaluations.
        first.next_state["q"][:] = ~first.next_state["q"]
        rerun = [r.net_values["y"].copy() for r in simulator.run_cycles(cycles)]
        for expected, actual in zip(reference, rerun):
            np.testing.assert_array_equal(expected, actual)

    def test_default_state_buffer_is_read_only(self, sequential_netlist):
        result = simulate(sequential_netlist,
                          {"a": np.array([True]), "b": np.array([False])})
        with pytest.raises(ValueError):
            result.net_values["q"][:] = True

    def test_state_shape_mismatch_rejected(self, sequential_netlist):
        stimulus = {"a": np.zeros(5, bool), "b": np.zeros(5, bool)}
        with pytest.raises(SimulationError, match="state for register"):
            simulate(sequential_netlist, stimulus,
                     state={"q": np.array([True])})


class TestFunctionalEquivalence:
    def test_copy_is_equivalent(self, random_netlist):
        assert functional_equivalent(random_netlist, random_netlist.copy(),
                                     n_vectors=128)

    def test_modified_design_is_not_equivalent(self, tiny_netlist):
        altered = tiny_netlist.copy("altered")
        gate = altered.gate("g_and").copy()
        gate.gate_type = GateType.OR
        altered.replace_gate("g_and", gate)
        assert not functional_equivalent(tiny_netlist, altered, n_vectors=256)
