"""Gate-level netlist substrate: data model, I/O, graphs, and benchmarks."""

from .cell_library import (
    CellLibrary,
    CellSpec,
    DEFAULT_LIBRARY,
    GateType,
    MASKED_REPLACEMENT,
)
from .netlist import Gate, Netlist, NetlistError
from .parser import ParseError, parse_bench, parse_bench_file
from .writer import write_bench, write_bench_file
from .graph import fanout_histogram, gate_graph, logic_depth, neighborhood
from .validate import ValidationReport, validate_netlist
from .generators import (
    GATE_MIX_PROFILES,
    RandomLogicSpec,
    generate_array_multiplier,
    generate_mux_tree,
    generate_parity_tree,
    generate_random_logic,
    generate_ripple_adder,
    generate_sbox_logic,
    merge_netlists,
)
from .benchmarks import (
    EVALUATION_SUITE,
    TRAINING_SUITE,
    BenchmarkSpec,
    benchmark_spec,
    list_benchmarks,
    load_benchmark,
)

__all__ = [
    "CellLibrary",
    "CellSpec",
    "DEFAULT_LIBRARY",
    "GateType",
    "MASKED_REPLACEMENT",
    "Gate",
    "Netlist",
    "NetlistError",
    "ParseError",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
    "fanout_histogram",
    "gate_graph",
    "logic_depth",
    "neighborhood",
    "ValidationReport",
    "validate_netlist",
    "GATE_MIX_PROFILES",
    "RandomLogicSpec",
    "generate_array_multiplier",
    "generate_mux_tree",
    "generate_parity_tree",
    "generate_random_logic",
    "generate_ripple_adder",
    "generate_sbox_logic",
    "merge_netlists",
    "EVALUATION_SUITE",
    "TRAINING_SUITE",
    "BenchmarkSpec",
    "benchmark_spec",
    "list_benchmarks",
    "load_benchmark",
]
