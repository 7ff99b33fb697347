"""Shared fixtures for the test-suite.

All fixtures use deliberately small designs and trace counts so the full
suite runs in a couple of minutes; the benchmark harness (``benchmarks/``)
is where paper-scale settings live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ModelConfig, PolarisConfig, train_polaris
from repro.netlist import (
    GateType,
    Netlist,
    RandomLogicSpec,
    generate_random_logic,
    load_benchmark,
)
from repro.power import PowerModelConfig
from repro.tvla import TvlaConfig
from repro.workloads import WorkloadConfig, training_designs


#: TVLA settings small enough for unit tests but still statistically usable
#: (240 traces keeps leakage-reduction margins stable across noise-stream
#: derivations while the whole suite stays fast).
TEST_TVLA = TvlaConfig(n_traces=240, n_fixed_classes=2, seed=5,
                       power=PowerModelConfig())


@pytest.fixture
def tiny_netlist() -> Netlist:
    """A hand-built 5-gate combinational netlist with known structure."""
    netlist = Netlist("tiny")
    for net in ("a", "b", "c", "d"):
        netlist.add_primary_input(net)
    netlist.add_gate("g_and", GateType.AND, ["a", "b"], "n1")
    netlist.add_gate("g_or", GateType.OR, ["c", "d"], "n2")
    netlist.add_gate("g_xor", GateType.XOR, ["n1", "n2"], "n3")
    netlist.add_gate("g_nand", GateType.NAND, ["n1", "n3"], "n4")
    netlist.add_gate("g_not", GateType.NOT, ["n4"], "y")
    netlist.add_primary_output("y")
    netlist.add_primary_output("n3")
    return netlist


@pytest.fixture
def sequential_netlist() -> Netlist:
    """A small sequential netlist with one flip-flop in a feedback-free path."""
    netlist = Netlist("tiny_seq")
    for net in ("a", "b"):
        netlist.add_primary_input(net)
    netlist.add_gate("g_xor", GateType.XOR, ["a", "b"], "n1")
    netlist.add_gate("ff", GateType.DFF, ["n1"], "q")
    netlist.add_gate("g_and", GateType.AND, ["q", "a"], "y")
    netlist.add_primary_output("y")
    return netlist


@pytest.fixture
def random_netlist() -> Netlist:
    """A seeded 60-gate random netlist (fresh copy per test)."""
    spec = RandomLogicSpec(n_gates=60, n_inputs=10, n_outputs=5, seed=17)
    return generate_random_logic(spec, "random60")


@pytest.fixture(scope="session")
def small_benchmark() -> Netlist:
    """A small instance of the des3 evaluation benchmark."""
    return load_benchmark("des3", scale=0.25, seed=99)


@pytest.fixture(scope="session")
def tvla_config() -> TvlaConfig:
    """Shared small TVLA configuration."""
    return TEST_TVLA


@pytest.fixture(scope="session")
def polaris_config() -> PolarisConfig:
    """A scaled-down POLARIS configuration usable in unit tests."""
    return PolarisConfig(
        msize=15,
        locality=4,
        iterations=2,
        theta_r=0.7,
        tvla=TEST_TVLA,
        model=ModelConfig(model_type="adaboost", learning_rate=0.2,
                          n_estimators=25, max_depth=2),
        seed=3,
    )


@pytest.fixture(scope="session")
def trained_polaris(polaris_config):
    """A POLARIS instance trained once per test session on tiny designs."""
    designs = training_designs(WorkloadConfig(scale=0.3, seed=4,
                                              designs=("c432", "c499")))
    return train_polaris(designs, polaris_config)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(1234)
