"""Tests for the gate graph of netlists and its networkx oracles."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracles.graph as oracle
from repro.features.structural import StructuralFeatureExtractor
from repro.masking.transform import apply_masking, maskable_gates
from repro.netlist import (
    EVALUATION_SUITE,
    TRAINING_SUITE,
    GateType,
    Netlist,
    fanout_histogram,
    gate_graph,
    load_benchmark,
    logic_depth,
    neighborhood,
    validate_netlist,
)
from repro.power.overhead import analyze_design, critical_path_delay
from repro.simulation import (
    LevelizationError,
    gate_levels,
    topological_gate_order,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _three_gate_loop() -> Netlist:
    netlist = Netlist("loop")
    netlist.add_primary_input("a")
    netlist.add_primary_output("y")
    netlist.add_gate("g1", GateType.AND, ["a", "n2"], "n1")
    netlist.add_gate("g2", GateType.OR, ["n1", "a"], "n2")
    netlist.add_gate("g3", GateType.NOT, ["n1"], "y")
    return netlist


def _self_loop() -> Netlist:
    netlist = Netlist("self_loop")
    netlist.add_primary_input("a")
    netlist.add_primary_output("y")
    netlist.add_gate("g", GateType.AND, ["a", "y"], "y")
    return netlist


class TestGateGraph:
    def test_nodes_and_edges(self, tiny_netlist):
        graph = gate_graph(tiny_netlist)
        assert graph.names == tiny_netlist.gate_names
        index = graph.index
        assert index["g_xor"] in graph.fanout[index["g_and"]]
        assert index["g_nand"] in graph.fanout[index["g_xor"]]
        assert index["g_and"] not in graph.fanout[index["g_not"]]

    def test_adjacency_is_distinct_and_ordered(self):
        netlist = Netlist("dup")
        for net in ("a", "b"):
            netlist.add_primary_input(net)
        netlist.add_gate("late", GateType.NOT, ["a"], "n1")
        netlist.add_gate("early", GateType.NOT, ["b"], "n2")
        netlist.add_gate("z_sink", GateType.AND, ["n2", "n1", "n2"], "y")
        netlist.add_gate("a_sink", GateType.OR, ["n1", "n1"], "w")
        netlist.add_primary_output("y")
        netlist.add_primary_output("w")
        graph = gate_graph(netlist)
        names = graph.names
        # Fan-in: distinct drivers in input order (duplicates dropped).
        assert [names[u] for u in graph.fanin[2]] == ["early", "late"]
        # Fan-out: distinct sinks in gate order, not by name.
        assert [names[v] for v in graph.fanout[0]] == ["z_sink", "a_sink"]
        # The netlist's own queries keep duplicates and name order.
        assert [g.name for g in netlist.fanin_gates("z_sink")] == [
            "early", "late", "early"]
        assert [g.name for g in netlist.fanout_gates("late")] == [
            "a_sink", "z_sink"]

    def test_is_dag_for_combinational_design(self, tiny_netlist):
        graph = gate_graph(tiny_netlist)
        assert graph.loop == ()
        assert sorted(graph.topological_order()) == list(range(len(graph.names)))

    def test_sequential_elements_removed(self, sequential_netlist):
        graph = gate_graph(sequential_netlist)
        assert graph.index["ff"] not in graph.order
        assert [graph.names[v] for v in graph.topological_order()] == [
            "g_xor", "g_and"]
        # The flip-flop keeps its edges for neighbourhoods.
        assert neighborhood(graph, "ff", 2) == ["g_and", "g_xor"]

    def test_sequential_feedback_is_loop_free(self):
        netlist = Netlist("seq_loop")
        netlist.add_primary_input("a")
        netlist.add_primary_output("y")
        netlist.add_gate("g1", GateType.XOR, ["a", "q"], "d")
        netlist.add_gate("ff", GateType.DFF, ["d"], "q")
        netlist.add_gate("g2", GateType.BUF, ["q"], "y")
        assert gate_graph(netlist).loop == ()


class TestLoops:
    def test_loop_names_every_gate_on_the_cycle(self):
        graph = gate_graph(_three_gate_loop())
        assert graph.loop == ("g1", "g2")
        with pytest.raises(LevelizationError, match="g1 -> g2"):
            graph.topological_order()
        errors = validate_netlist(_three_gate_loop()).errors
        assert "combinational loop detected: g1 -> g2" in errors

    def test_self_loop_names_its_gate(self):
        graph = gate_graph(_self_loop())
        assert graph.loop == ("g",)
        with pytest.raises(LevelizationError, match=r"loop: g$"):
            graph.topological_order()
        assert ("combinational loop detected: g"
                in validate_netlist(_self_loop()).errors)

    @pytest.mark.parametrize("build", [_three_gate_loop, _self_loop])
    @pytest.mark.parametrize("query", [
        analyze_design, critical_path_delay, logic_depth, gate_levels,
        topological_gate_order, StructuralFeatureExtractor,
    ])
    def test_every_loop_query_raises_the_typed_error(self, build, query):
        with pytest.raises(LevelizationError):
            query(build())


class TestNeighborhood:
    def test_returns_requested_count(self, tiny_netlist):
        near = neighborhood(gate_graph(tiny_netlist), "g_xor", 3)
        assert len(near) == 3
        assert "g_xor" not in near

    def test_small_graph_returns_fewer(self, tiny_netlist):
        near = neighborhood(gate_graph(tiny_netlist), "g_xor", 50)
        assert set(near) == {"g_and", "g_or", "g_nand", "g_not"}

    def test_immediate_neighbours_come_first(self, tiny_netlist):
        near = neighborhood(gate_graph(tiny_netlist), "g_and", 2)
        assert set(near) <= {"g_xor", "g_nand"}

    def test_sinks_come_before_drivers(self, tiny_netlist):
        near = neighborhood(gate_graph(tiny_netlist), "g_xor", 4)
        assert near == ["g_nand", "g_and", "g_or", "g_not"]

    def test_unknown_gate_raises(self, tiny_netlist):
        with pytest.raises(KeyError):
            neighborhood(gate_graph(tiny_netlist), "missing", 2)


class TestMetrics:
    def test_logic_depth(self, tiny_netlist):
        # a/b -> g_and -> g_xor -> g_nand -> g_not is the longest chain.
        assert logic_depth(tiny_netlist) == 4

    def test_logic_depth_random(self, random_netlist):
        assert logic_depth(random_netlist) >= 2

    def test_logic_depth_of_registers_only(self):
        netlist = Netlist("regs")
        netlist.add_primary_input("a")
        netlist.add_primary_output("q")
        netlist.add_gate("ff", GateType.DFF, ["a"], "q")
        assert logic_depth(netlist) == 0
        assert critical_path_delay(netlist) == 0.0

    def test_fanout_histogram_totals(self, tiny_netlist):
        histogram = fanout_histogram(tiny_netlist)
        assert sum(histogram.values()) == len(tiny_netlist)
        assert histogram.get(2, 0) >= 1  # g_and drives two sinks


def _paper_designs():
    for seed in (1, 3):
        for name in TRAINING_SUITE + EVALUATION_SUITE:
            yield pytest.param(name, seed, id=f"{name}-seed{seed}")


@pytest.mark.parametrize("name,seed", list(_paper_designs()))
def test_topology_queries_match_networkx_oracle(name, seed):
    """Every paper design, and a copy with every other maskable gate
    masked, answers each topology query exactly as networkx does."""
    design = load_benchmark(name, seed=seed)
    masked = apply_masking(design, maskable_gates(design)[::2]).netlist
    for netlist in (design, masked):
        graph = gate_graph(netlist)
        reference = oracle.netlist_to_graph(netlist)
        for gate in netlist.gate_names:
            assert (neighborhood(graph, gate, 7)
                    == oracle.neighborhood(reference, gate, 7))
        assert (list(gate_levels(netlist).items())
                == list(oracle.gate_levels(netlist).items()))
        assert (topological_gate_order(netlist)
                == oracle.topological_gate_order(netlist))
        assert (np.float64(critical_path_delay(netlist)).tobytes()
                == np.float64(oracle.critical_path_delay(netlist)).tobytes())
        assert logic_depth(netlist) == oracle.logic_depth(netlist)
        names, features = StructuralFeatureExtractor(netlist).extract_all()
        ref_names, ref_features = oracle.NetworkxFeatureExtractor(
            netlist).extract_all()
        assert names == ref_names
        assert features.tobytes() == ref_features.tobytes()


def test_library_runs_without_networkx():
    """Every ``repro`` module imports, and a design validates, compiles,
    extracts features and is analysed, with networkx unimportable."""
    script = textwrap.dedent("""
        import importlib, pkgutil, sys
        sys.modules["networkx"] = None
        import repro
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        from repro.features.structural import StructuralFeatureExtractor
        from repro.netlist import load_benchmark, validate_netlist
        from repro.power.overhead import analyze_design
        from repro.simulation import CompiledNetlist
        netlist = load_benchmark("des3", scale=0.25, seed=1)
        assert validate_netlist(netlist).is_valid
        CompiledNetlist(netlist)
        names, features = StructuralFeatureExtractor(netlist).extract_all()
        assert features.shape[0] == len(names) > 0
        assert analyze_design(netlist).delay > 0
    """)
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
