"""Cross-backend equivalence: the fused compiled kernel vs the gate loop.

The compiled backend (``repro.simulation.compiled``) must be **bit-identical**
to the per-gate reference loop on every net of every design — that is the
contract that lets every fusable netlist run on the compiled kernel
without perturbing any published t-value.  The loop oracle is
``oracles.simulation.LoopSimulator``, and ``LoopTraceGenerator`` runs the
trace engine on it for the TVLA comparisons.  This module pins it down
over

* a hand-built netlist covering every combinational cell-library gate type
  (including wide fan-ins, MUX, masked composites and the
  ``inverted_output`` attribute),
* sequential multi-cycle runs,
* every paper benchmark netlist (plus a fully masked variant),
* hypothesis-generated random netlists (the property test of ISSUE 3), and
* end-to-end TVLA campaigns (t-values to ~1e-12, in fact exactly equal).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.masking import apply_masking, maskable_gates
from repro.netlist import (
    GateType,
    Netlist,
    RandomLogicSpec,
    generate_random_logic,
    list_benchmarks,
    load_benchmark,
)
from repro.campaign import tvla_config_from_dict, tvla_config_to_dict
from repro.power import CounterDraws, PowerTraceGenerator
from repro.simulation import (
    CompilationError,
    CompiledNetlist,
    LogicSimulator,
    fixed_vs_random_campaigns,
)
from repro.campaign import run_campaign
from repro.tvla import TvlaConfig, assess_leakage

from oracles.simulation import LoopSimulator, LoopTraceGenerator

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_backends_agree(netlist, n_vectors=256, seed=0, cycles=1):
    """Evaluate ``netlist`` on the compiled simulator and the loop oracle
    and require bit-equality."""
    fast = LogicSimulator(netlist)
    slow = LoopSimulator(netlist)
    rng = np.random.default_rng(seed)
    stimulus = [
        {net: rng.integers(0, 2, n_vectors).astype(bool)
         for net in netlist.primary_inputs}
        for _ in range(cycles)
    ]
    fast_results = fast.run_cycles(stimulus)
    slow_results = slow.run_cycles(stimulus)
    for fast_result, slow_result in zip(fast_results, slow_results):
        assert set(fast_result.net_values) == set(slow_result.net_values)
        for net in slow_result.net_values:
            np.testing.assert_array_equal(
                fast_result.net_values[net], slow_result.net_values[net],
                err_msg=f"net {net!r} diverges")
        assert set(fast_result.next_state) == set(slow_result.next_state)
        for net in slow_result.next_state:
            np.testing.assert_array_equal(
                fast_result.next_state[net], slow_result.next_state[net],
                err_msg=f"register {net!r} diverges")
    return fast


def all_gate_types_netlist() -> Netlist:
    """A netlist instantiating every combinational cell-library gate type.

    Includes wide fan-ins (3/4-input AND, 3-input XOR), a MUX, a DFF, and
    all four masked composites — one with the transform's
    ``inverted_output`` attribute set.
    """
    netlist = Netlist("all_types")
    for net in ("a", "b", "c", "d", "r0", "r1"):
        netlist.add_primary_input(net)
    netlist.add_gate("g_buf", GateType.BUF, ["a"], "w_buf")
    netlist.add_gate("g_not", GateType.NOT, ["b"], "w_not")
    netlist.add_gate("g_and2", GateType.AND, ["a", "b"], "w_and2")
    netlist.add_gate("g_and3", GateType.AND, ["a", "b", "c"], "w_and3")
    netlist.add_gate("g_and4", GateType.AND, ["a", "b", "c", "d"], "w_and4")
    netlist.add_gate("g_nand", GateType.NAND, ["c", "d"], "w_nand")
    netlist.add_gate("g_or", GateType.OR, ["w_buf", "w_not"], "w_or")
    netlist.add_gate("g_nor", GateType.NOR, ["w_and2", "d"], "w_nor")
    netlist.add_gate("g_xor", GateType.XOR, ["w_and3", "w_nand"], "w_xor")
    netlist.add_gate("g_xor3", GateType.XOR, ["a", "c", "w_or"], "w_xor3")
    netlist.add_gate("g_xnor", GateType.XNOR, ["w_xor", "w_nor"], "w_xnor")
    netlist.add_gate("g_mux", GateType.MUX, ["w_xor3", "w_xnor", "a"], "w_mux")
    # Masked composites: two data inputs plus randomness nets; the DOM
    # variant reads the register output, and one composite carries the
    # transform's folded output inversion.
    netlist.add_gate("g_mand", GateType.MASKED_AND, ["w_mux", "b", "r0"],
                     "w_mand")
    netlist.add_gate("g_mor", GateType.MASKED_OR, ["w_mand", "c", "r1"],
                     "w_mor")
    netlist.add_gate("g_mxor", GateType.MASKED_XOR, ["w_mor", "d"], "w_mxor")
    netlist.add_gate("g_ff", GateType.DFF, ["w_mxor"], "q")
    netlist.add_gate("g_mdom", GateType.MASKED_AND_DOM, ["q", "a", "r0"],
                     "w_mdom")
    netlist.add_gate("g_mnand", GateType.MASKED_AND, ["w_mdom", "b", "r1"],
                     "y", attributes={"inverted_output": True,
                                      "masked_from": "NAND"})
    netlist.add_primary_output("y")
    return netlist


class TestGateTypeCoverage:
    def test_every_gate_type_bit_identical(self):
        fast = assert_backends_agree(all_gate_types_netlist(), cycles=3,
                                     n_vectors=512)
        # Every combinational gate of the design went through the fused
        # kernels (no silent fallback, no gate left unplanned).
        assert fast.plan is not None
        assert fast.plan.n_gates == sum(
            1 for g in all_gate_types_netlist().gates
            if g.gate_type.is_combinational)

    def test_undriven_nets_default_to_zero(self):
        netlist = Netlist("undriven")
        netlist.add_primary_input("a")
        netlist.add_gate("g1", GateType.AND, ["a", "floating"], "y")
        netlist.add_primary_output("y")
        assert_backends_agree(netlist, n_vectors=64)
        result = LogicSimulator(netlist).evaluate(
            {"a": np.ones(8, dtype=bool)})
        np.testing.assert_array_equal(result.net_values["floating"],
                                      np.zeros(8, dtype=bool))
        np.testing.assert_array_equal(result.net_values["y"],
                                      np.zeros(8, dtype=bool))


class TestBenchmarkNetlists:
    @pytest.mark.parametrize("name",
                             [spec.name for spec in list_benchmarks()])
    def test_benchmark_bit_identical(self, name):
        netlist = load_benchmark(name, scale=0.15, seed=11)
        assert_backends_agree(netlist, n_vectors=256, seed=3, cycles=2)

    def test_masked_benchmark_bit_identical(self):
        netlist = load_benchmark("md5", scale=0.2, seed=11)
        masked = apply_masking(netlist, maskable_gates(netlist)).netlist
        assert_backends_agree(masked, n_vectors=256, seed=4)


class TestHypothesisProperty:
    @SETTINGS
    @given(
        n_gates=st.integers(min_value=1, max_value=120),
        n_inputs=st.integers(min_value=2, max_value=24),
        profile=st.sampled_from(["crypto", "control", "arithmetic",
                                 "random"]),
        locality=st.floats(min_value=0.05, max_value=0.95),
        register_fraction=st.sampled_from([0.0, 0.0, 0.15, 0.4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_netlists_bit_identical(self, n_gates, n_inputs, profile,
                                           locality, register_fraction,
                                           seed):
        spec = RandomLogicSpec(n_gates=n_gates, n_inputs=n_inputs,
                               n_outputs=min(4, n_gates), profile=profile,
                               locality=locality,
                               register_fraction=register_fraction,
                               seed=seed)
        netlist = generate_random_logic(spec)
        assert_backends_agree(netlist, n_vectors=73, seed=seed,
                              cycles=2 if register_fraction else 1)


def _loop_generator(netlist, config: TvlaConfig) -> LoopTraceGenerator:
    """The loop-simulator generator ``assess_leakage`` is compared with."""
    return LoopTraceGenerator(netlist, config=config.power)


class TestTvlaEquivalence:
    def test_t_values_agree_across_backends(self, tiny_netlist):
        netlist = load_benchmark("arbiter", scale=0.15, seed=11)
        masked = apply_masking(netlist, maskable_gates(netlist)).netlist
        config = TvlaConfig(n_traces=160, n_fixed_classes=2, seed=5,
                            chunk_traces=64, tvla_order=2)
        for design in (netlist, masked):
            compiled = assess_leakage(design, config)
            loop = assess_leakage(design, config,
                                  generator=_loop_generator(design, config))
            assert compiled.gate_names == loop.gate_names
            # Identical traces feed identical accumulators, so the
            # agreement is exact — well inside the ~1e-12 contract.
            np.testing.assert_allclose(compiled.t_values, loop.t_values,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(compiled.t_values, loop.t_values)
            np.testing.assert_array_equal(compiled.order_t_values[2],
                                          loop.order_t_values[2])

    def test_sharded_compiled_matches_serial_loop(self, tmp_path):
        netlist = load_benchmark("voter", scale=0.2, seed=11)
        config = TvlaConfig(n_traces=192, n_fixed_classes=1, seed=7,
                            chunk_traces=32)
        serial_loop = assess_leakage(
            netlist, config, generator=_loop_generator(netlist, config))
        sharded = run_campaign(tmp_path / "runs", netlist, config, n_shards=4)
        np.testing.assert_allclose(sharded.t_values, serial_loop.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_power_traces_bit_identical(self):
        netlist = load_benchmark("sin", scale=0.2, seed=11)
        masked = apply_masking(netlist, maskable_gates(netlist)).netlist
        fixed, rnd = fixed_vs_random_campaigns(masked, 200, seed=1)
        compiled_gen = PowerTraceGenerator(masked)
        loop_sim_gen = LoopTraceGenerator(masked)
        for group, campaign in enumerate((fixed, rnd)):
            draws = CounterDraws(3, 0, group, 0)
            fast = compiled_gen.generate(campaign, draws=draws)
            slow = loop_sim_gen.generate(campaign, draws=draws)
            assert fast.gate_names == slow.gate_names
            np.testing.assert_array_equal(fast.per_gate, slow.per_gate)


class TestPlanStructure:
    def test_segments_are_topologically_consistent(self):
        plan = CompiledNetlist(load_benchmark("md5", scale=0.2, seed=11))
        produced_before = 1 + len(plan.netlist.primary_inputs) + sum(
            1 for _ in plan.netlist.sequential_gates())
        for segment in plan.segments:
            # Contiguous output block, directly after previous segments.
            assert segment.out_start == produced_before
            assert segment.n_gates == segment.operand_rows.shape[1]
            # Operands only read rows produced by earlier segments/sources.
            assert segment.operand_rows.max() < segment.out_start
            produced_before = segment.out_stop
        assert produced_before == plan.n_signals
        stats = plan.describe()
        assert stats["n_gates"] == plan.n_gates
        assert stats["n_segments"] < stats["n_gates"]

    def test_state_matrix_matches_net_values(self):
        netlist = load_benchmark("des3", scale=0.15, seed=11)
        simulator = LogicSimulator(netlist)
        rng = np.random.default_rng(0)
        stimulus = {net: rng.integers(0, 2, 65).astype(bool)
                    for net in netlist.primary_inputs}
        result = simulator.evaluate(stimulus)
        assert result.state_matrix is not None
        nets = list(result.net_values)
        rows = simulator.signal_rows(nets)
        gathered = result.state_matrix[rows]
        for i, net in enumerate(nets):
            np.testing.assert_array_equal(gathered[i],
                                          result.net_values[net])

    def test_compiled_net_values_are_read_only(self, tiny_netlist):
        simulator = LogicSimulator(tiny_netlist)
        stimulus = {net: np.ones(8, dtype=bool)
                    for net in tiny_netlist.primary_inputs}
        result = simulator.evaluate(stimulus)
        with pytest.raises(ValueError):
            result.net_values["n1"][:] = False
        with pytest.raises(ValueError):
            result.state_matrix[:] = False


class TestFallback:
    def test_malformed_mux_raises_at_construction(self):
        netlist = Netlist("bad_mux")
        for net in ("a", "b"):
            netlist.add_primary_input(net)
        netlist.add_gate("g_mux", GateType.MUX, ["a", "b"], "y")
        netlist.add_primary_output("y")
        with pytest.raises(CompilationError, match="g_mux"):
            CompiledNetlist(netlist)
        # No silent fallback: the compiled simulator (and the trace
        # generator built on it) fails before any stimulus is evaluated.
        with pytest.raises(CompilationError, match="g_mux"):
            LogicSimulator(netlist)
        with pytest.raises(CompilationError, match="g_mux"):
            PowerTraceGenerator(netlist)
        # The loop oracle keeps the reference engine's lazy error.
        simulator = LoopSimulator(netlist)
        with pytest.raises(ValueError, match="MUX requires exactly 3"):
            simulator.evaluate({net: np.zeros(4, dtype=bool)
                                for net in netlist.primary_inputs})

    def test_unknown_sim_backend_rejected_in_config(self):
        """``TvlaConfig`` has no engine selector, and a stored config
        naming any simulation backend but compiled is refused."""
        with pytest.raises(TypeError, match="sim_backend"):
            TvlaConfig(sim_backend="loop")
        for value in ("loop", "turbo"):
            data = dict(tvla_config_to_dict(TvlaConfig()), sim_backend=value)
            with pytest.raises(ValueError, match="sim_backend"):
                tvla_config_from_dict(data)
