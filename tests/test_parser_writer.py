"""Tests for BENCH parsing and writing."""

import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    GateType,
    NetlistError,
    ParseError,
    load_benchmark,
    parse_bench,
    parse_bench_file,
    validate_netlist,
    write_bench,
    write_bench_file,
)
from repro.power.overhead import analyze_design
from repro.simulation import (
    CompilationError,
    LevelizationError,
    LogicSimulator,
    SimulationError,
)

SAMPLE = """
# name: sample
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = INV(c)
y = XOR(n1, n2)
"""


class TestParser:
    def test_parse_basic(self):
        netlist = parse_bench(SAMPLE)
        assert netlist.name == "sample"
        assert netlist.primary_inputs == ("a", "b", "c")
        assert netlist.primary_outputs == ("y",)
        assert len(netlist) == 3
        assert netlist.driver_of("y").gate_type is GateType.XOR

    def test_alias_inv_maps_to_not(self):
        netlist = parse_bench(SAMPLE)
        assert netlist.driver_of("n2").gate_type is GateType.NOT

    def test_unknown_gate_type_raises_with_line_number(self):
        text = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_bench(text)

    def test_malformed_statement_raises(self):
        with pytest.raises(ParseError, match="unrecognised"):
            parse_bench("INPUT(a)\nthis is not bench\n")

    def test_gate_without_inputs_raises(self):
        with pytest.raises(ParseError, match="no inputs"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND()\n")

    def test_duplicate_driver_raises_parse_error(self):
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n"
        with pytest.raises(ParseError):
            parse_bench(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# hello\n\nINPUT(a)\n# another\nOUTPUT(a)\n"
        netlist = parse_bench(text)
        assert netlist.primary_inputs == ("a",)
        assert len(netlist) == 0


class TestWriter:
    def test_roundtrip_preserves_structure(self, tiny_netlist):
        text = write_bench(tiny_netlist)
        parsed = parse_bench(text)
        assert parsed.name == tiny_netlist.name
        assert parsed.primary_inputs == tiny_netlist.primary_inputs
        assert set(parsed.primary_outputs) == set(tiny_netlist.primary_outputs)
        assert len(parsed) == len(tiny_netlist)
        # Per-net driver types must match.
        for gate in tiny_netlist.gates:
            assert parsed.driver_of(gate.output).gate_type is gate.gate_type

    def test_roundtrip_benchmark(self):
        netlist = load_benchmark("c432", scale=0.3)
        parsed = parse_bench(write_bench(netlist))
        assert len(parsed) == len(netlist)
        assert set(parsed.nets) == set(netlist.nets)

    def test_file_roundtrip(self, tiny_netlist, tmp_path):
        path = write_bench_file(tiny_netlist, tmp_path / "tiny.bench")
        parsed = parse_bench_file(path)
        assert parsed.name == "tiny"
        assert len(parsed) == len(tiny_netlist)


# ----------------------------------------------------------------------
# Boundary fuzzing: mutated BENCH text fails only with typed errors
# ----------------------------------------------------------------------
#: A valid design touching every arity class: 1-input (NOT, BUFF, DFF),
#: 2-input, 3-input MUX, a masked composite and a register feedback path.
FUZZ_BASE = """\
# name: fuzz
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
n1 = NAND(a, b)
n2 = NOT(c)
n3 = MUX(n1, n2, d)
n4 = XOR(n3, q)
n5 = MASKED_AND(n1, n4)
q = DFF(n5)
n6 = BUFF(n4)
y = OR(n6, n5, a)
z = AND(n2, q)
"""

#: The only exceptions the BENCH → validate → simulate boundary may raise.
TYPED_ERRORS = (ParseError, NetlistError, LevelizationError,
                CompilationError, SimulationError, ValueError)

_NAMES = st.sampled_from(["a", "b", "c", "d", "q", "y", "z", "n1", "n3",
                          "n5", "fresh"])


def _mutate_bench(lines, data):
    """Apply one drawn structural mutation to a list of BENCH lines."""
    action = data.draw(st.sampled_from(
        ["drop", "duplicate", "swap", "rename", "unknown_gate", "arity",
         "cycle", "wide_fanin", "garbage"]), label="action")
    if not lines:
        return [data.draw(st.text(max_size=40), label="line")]
    index = data.draw(st.integers(0, len(lines) - 1), label="index")
    other = data.draw(st.integers(0, len(lines) - 1), label="other")
    lines = list(lines)
    gate = re.match(r"^(\S+) = (\w+)\((.*)\)$", lines[index])
    if action == "drop":
        del lines[index]
    elif action == "duplicate":
        lines.insert(other, lines[index])
    elif action == "swap":
        lines[index], lines[other] = lines[other], lines[index]
    elif action == "rename":
        old, new = data.draw(_NAMES, label="old"), data.draw(_NAMES,
                                                             label="new")
        every = data.draw(st.booleans(), label="every")
        lines[index] = re.sub(rf"\b{old}\b", new, lines[index],
                              count=0 if every else 1)
    elif action == "garbage":
        lines[index] = data.draw(st.text(max_size=40), label="line")
    elif gate is not None:
        output, kind, args = gate.groups()
        inputs = [arg.strip() for arg in args.split(",") if arg.strip()]
        if action == "unknown_gate":
            kind = data.draw(st.sampled_from(
                ["FROB", "INPUT", "OUTPUT", "MASKED_OR", "MUX2", "FF",
                 "XNOR"]), label="kind")
        elif action == "arity":
            inputs = data.draw(st.lists(_NAMES, max_size=5), label="inputs")
        elif action == "cycle":
            inputs = inputs + [output]
        else:  # wide_fanin
            width = data.draw(st.integers(6, 64), label="width")
            inputs = ["a", "b", "c", "d"] * (width // 4)
        lines[index] = f"{output} = {kind}({', '.join(inputs)})"
    return lines


class TestBenchBoundaryFuzz:
    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(data=st.data())
    def test_mutated_bench_fails_only_with_typed_errors(self, data):
        lines = FUZZ_BASE.splitlines()
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            lines = _mutate_bench(lines, data)
        text = "\n".join(lines)
        try:
            netlist = parse_bench(text)
            validate_netlist(netlist)
            analyze_design(netlist)
            simulator = LogicSimulator(netlist)
            rng = np.random.default_rng(0)
            result = simulator.evaluate(
                {net: rng.random(16) < 0.5 for net in netlist.primary_inputs})
            result.output_values(netlist)
        except TYPED_ERRORS:
            return

    def test_base_design_simulates(self):
        netlist = parse_bench(FUZZ_BASE)
        assert validate_netlist(netlist).is_valid
        simulator = LogicSimulator(netlist)
        result = simulator.evaluate({net: np.array([True, False])
                                     for net in netlist.primary_inputs})
        assert set(result.output_values(netlist)) == {"y", "z"}
