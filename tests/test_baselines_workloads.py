"""Tests for the VALIANT baseline and the workload suites."""

import pytest

from repro.baselines import ValiantConfig, ValiantResult, valiant_protect
from repro.netlist import GateType, validate_netlist
from repro.simulation import functional_equivalent
from repro.tvla import assess_leakage
from repro.workloads import WorkloadConfig, evaluation_designs, training_designs


class TestValiant:
    def test_protects_leaky_gates_and_reduces_leakage(self, small_benchmark,
                                                      tvla_config):
        before = assess_leakage(small_benchmark, tvla_config)
        result = valiant_protect(small_benchmark,
                                 ValiantConfig(tvla=tvla_config, max_iterations=3))
        assert isinstance(result, ValiantResult)
        assert result.n_masked > 0
        assert result.tvla_runs >= 1
        assert result.runtime_seconds > 0
        after = assess_leakage(result.masked_netlist, tvla_config)
        assert after.mean_leakage < before.mean_leakage

    def test_masked_gates_tagged_as_valiant(self, small_benchmark, tvla_config):
        result = valiant_protect(small_benchmark,
                                 ValiantConfig(tvla=tvla_config, max_iterations=2))
        masked = [result.masked_netlist.gate(name) for name in result.masked_gates]
        assert masked
        assert all(g.attributes.get("protection_style") == "valiant" for g in masked)
        assert all(g.gate_type.is_masked for g in masked)

    def test_functionality_preserved(self, small_benchmark, tvla_config):
        result = valiant_protect(small_benchmark,
                                 ValiantConfig(tvla=tvla_config, max_iterations=2))
        assert validate_netlist(result.masked_netlist).is_valid
        assert functional_equivalent(small_benchmark, result.masked_netlist,
                                     n_vectors=128)

    def test_iteration_budget_respected(self, small_benchmark, tvla_config):
        result = valiant_protect(small_benchmark,
                                 ValiantConfig(tvla=tvla_config, max_iterations=1))
        assert result.iterations == 1
        assert result.tvla_runs == 1

    def test_runtime_dominated_by_tvla_iterations(self, small_benchmark,
                                                  tvla_config):
        quick = valiant_protect(small_benchmark,
                                ValiantConfig(tvla=tvla_config, max_iterations=1))
        thorough = valiant_protect(small_benchmark,
                                   ValiantConfig(tvla=tvla_config, max_iterations=4))
        assert thorough.tvla_runs > quick.tvla_runs


class TestWorkloads:
    def test_training_suite_contents(self):
        designs = training_designs(WorkloadConfig(scale=0.25))
        assert len(designs) == 6
        assert {d.name for d in designs} == {"c432", "c499", "c880", "c1355",
                                             "c1908", "c6288"}

    def test_evaluation_suite_contents(self):
        designs = evaluation_designs(WorkloadConfig(scale=0.2,
                                                    designs=("des3", "voter")))
        assert [d.name for d in designs] == ["des3", "voter"]
