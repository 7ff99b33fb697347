"""Tests for the power model, trace generation and overhead analysis."""

import numpy as np
import pytest

from repro.masking import apply_masking, maskable_gates
from repro.netlist import GateType, Netlist
from repro.power import (
    CounterDraws,
    CounterStream,
    DesignMetrics,
    GatePowerModel,
    PowerModelConfig,
    PowerTraceGenerator,
    PowerTraces,
    analyze_design,
    critical_path_delay,
    overhead_report,
)
from repro.simulation import SimulationError, fixed_vs_random_campaigns

from oracles.power import generate_loop, masked_power, unmasked_power

#: Counter draws of one campaign chunk; the vectorised engine reads nothing
#: else for its masks and noise.
DRAWS = CounterDraws(1, 0, 0, 0)


class TestGatePowerModel:
    def test_unmasked_power_scales_with_toggles(self, tiny_netlist):
        model = GatePowerModel(config=PowerModelConfig(noise_sigma=0.0))
        gate = tiny_netlist.gate("g_and")
        quiet = unmasked_power(model, gate, np.zeros(10, dtype=bool))
        busy = unmasked_power(model, gate, np.ones(10, dtype=bool))
        assert (busy > quiet).all()
        assert quiet.min() > 0  # static floor

    def test_load_increases_power(self, tiny_netlist):
        model = GatePowerModel(config=PowerModelConfig(noise_sigma=0.0))
        gate = tiny_netlist.gate("g_and")
        toggles = np.ones(5, dtype=bool)
        low = unmasked_power(model, gate, toggles, fanout=1)
        high = unmasked_power(model, gate, toggles, fanout=4)
        assert (high > low).all()

    def test_masked_power_positive_and_noisy_free(self, rng):
        model = GatePowerModel(config=PowerModelConfig(noise_sigma=0.0))
        from repro.netlist.netlist import Gate
        masked_gate = Gate("m", GateType.MASKED_AND, ["a", "b"], "y",
                           {"masked_from": "AND"})
        a_prev = rng.integers(0, 2, 200).astype(bool)
        b_prev = rng.integers(0, 2, 200).astype(bool)
        a_cur = rng.integers(0, 2, 200).astype(bool)
        b_cur = rng.integers(0, 2, 200).astype(bool)
        power = masked_power(model, masked_gate, (a_prev, b_prev),
                             (a_cur, b_cur), rng=np.random.default_rng(2))
        assert power.shape == (200,)
        assert (power >= 0).all()
        assert power.std() > 0  # fresh masks randomise the consumption

    def test_valiant_style_retains_more_data_dependence(self, rng):
        config = PowerModelConfig(noise_sigma=0.0)
        model = GatePowerModel(config=config)
        mask_rng = np.random.default_rng(3)
        from repro.netlist.netlist import Gate
        n = 4000
        a_prev = rng.integers(0, 2, n).astype(bool)
        b_prev = rng.integers(0, 2, n).astype(bool)
        a_cur = rng.integers(0, 2, n).astype(bool)
        b_cur = rng.integers(0, 2, n).astype(bool)
        toggles = (np.logical_xor(a_prev, a_cur).astype(float)
                   + np.logical_xor(b_prev, b_cur).astype(float)) / 2.0
        trichina = Gate("m", GateType.MASKED_AND, ["a", "b"], "y",
                        {"masked_from": "AND", "protection_style": "trichina"})
        valiant = Gate("m", GateType.MASKED_AND, ["a", "b"], "y",
                       {"masked_from": "AND", "protection_style": "valiant"})
        p_tri = masked_power(model, trichina, (a_prev, b_prev),
                             (a_cur, b_cur), rng=mask_rng)
        p_val = masked_power(model, valiant, (a_prev, b_prev),
                             (a_cur, b_cur), rng=mask_rng)
        corr_tri = np.corrcoef(p_tri, toggles)[0, 1]
        corr_val = np.corrcoef(p_val, toggles)[0, 1]
        assert corr_val > corr_tri  # VALIANT cells leak more of the input activity

    def test_input_glitch_factor_monotone(self):
        model = GatePowerModel(config=PowerModelConfig())
        assert model.input_glitch_factor(1.0) > model.input_glitch_factor(0.0)

    def test_noise_addition(self):
        # The popcount noise law: count * scale + offset over the exact
        # Binomial(16, 1/2) distribution has mean 0 and the configured
        # sigma; a zero sigma adds nothing.
        from math import comb
        model = GatePowerModel(config=PowerModelConfig(noise_sigma=0.5))
        scale, offset = model.fast_noise_params()
        counts = np.arange(17)
        pmf = np.array([comb(16, k) for k in counts]) / 2.0 ** 16
        noise = counts * scale + offset
        assert float(pmf @ noise) == pytest.approx(0.0, abs=1e-12)
        assert float(np.sqrt(pmf @ noise ** 2)) == pytest.approx(
            model.noise_sigma_abs(), rel=1e-12)
        quiet = GatePowerModel(config=PowerModelConfig(noise_sigma=0.0))
        assert quiet.noise_sigma_abs() == 0.0
        assert quiet.fast_noise_params() == (0.0, 0.0)


class TestPowerTraces:
    def test_trace_matrix_shape(self, tiny_netlist):
        generator = PowerTraceGenerator(tiny_netlist)
        fixed, rand = fixed_vs_random_campaigns(tiny_netlist, 50, seed=1)
        traces = generator.generate(fixed, draws=DRAWS)
        assert isinstance(traces, PowerTraces)
        assert traces.per_gate.shape == (50, len(tiny_netlist))
        np.testing.assert_allclose(traces.total, traces.per_gate.sum(axis=1))

    def test_gate_column_lookup(self, tiny_netlist):
        generator = PowerTraceGenerator(tiny_netlist)
        fixed, _ = fixed_vs_random_campaigns(tiny_netlist, 20, seed=1)
        traces = generator.generate(fixed, draws=DRAWS)
        column = traces.gate_column("g_and")
        assert column.shape == (20,)
        with pytest.raises(KeyError):
            traces.gate_column("nonexistent")

    def test_masked_gates_get_power_columns(self, tiny_netlist):
        masked = apply_masking(tiny_netlist, maskable_gates(tiny_netlist)).netlist
        generator = PowerTraceGenerator(masked)
        fixed, _ = fixed_vs_random_campaigns(masked, 30, seed=1)
        traces = generator.generate(fixed, draws=DRAWS)
        assert traces.per_gate.shape[1] == len(masked)
        assert (traces.per_gate >= 0).sum() > 0


class TestVectorisedEngine:
    def test_matches_loop_exactly_without_noise(self, random_netlist):
        # With noise disabled and no masked cells both implementations are
        # deterministic; the vectorised engine must reproduce the per-gate
        # loop to float32 rounding.
        config = PowerModelConfig(noise_sigma=0.0)
        generator = PowerTraceGenerator(random_netlist, config=config)
        fixed, rand = fixed_vs_random_campaigns(random_netlist, 400, seed=2)
        rng = np.random.default_rng(2)
        for campaign in (fixed, rand):
            vectorised = generator.generate(campaign, draws=DRAWS)
            loop = generate_loop(generator, campaign, rng)
            assert vectorised.gate_names == loop.gate_names
            np.testing.assert_allclose(
                vectorised.per_gate.astype(float), loop.per_gate,
                rtol=1e-6, atol=1e-6)

    def test_matches_loop_distribution_for_masked(self, tiny_netlist, rng):
        # Masked composites draw randomness differently in the two
        # implementations (lookup-table mask index vs per-gate mask bits),
        # so compare their first two moments instead of raw samples.
        masked = apply_masking(tiny_netlist, maskable_gates(tiny_netlist)).netlist
        config = PowerModelConfig(noise_sigma=0.0)
        generator = PowerTraceGenerator(masked, config=config)
        _, rand = fixed_vs_random_campaigns(masked, 5000, seed=3)
        vectorised = generator.generate(rand, draws=DRAWS)
        loop = generate_loop(generator, rand, np.random.default_rng(3))
        for name in loop.gate_names:
            column_vec = vectorised.gate_column(name).astype(float)
            column_loop = loop.gate_column(name)
            assert column_vec.mean() == pytest.approx(column_loop.mean(),
                                                      abs=0.15)
            assert column_vec.std() == pytest.approx(column_loop.std(),
                                                     rel=0.15)

    def test_fast_noise_matches_sigma(self, tiny_netlist):
        generator = PowerTraceGenerator(tiny_netlist)
        fixed, _ = fixed_vs_random_campaigns(tiny_netlist, 4000, seed=4)
        traces = generator.generate(fixed, draws=DRAWS)
        sigma = generator._model.noise_sigma_abs()
        spreads = traces.per_gate.std(axis=0)
        assert spreads == pytest.approx(np.full(len(tiny_netlist), sigma),
                                        rel=0.2)

    def test_loop_path_honours_explicit_fast_noise(self, tiny_netlist):
        # The loop oracle draws the same popcount noise law as the
        # vectorised engine, from its sequential stream.
        generator = PowerTraceGenerator(tiny_netlist)
        fixed, _ = fixed_vs_random_campaigns(tiny_netlist, 4000, seed=6)
        traces = generate_loop(generator, fixed, np.random.default_rng(6))
        sigma = generator._model.noise_sigma_abs()
        # The popcount sampler yields a 17-point lattice per column (the
        # fixed campaign keeps the noiseless power constant), with the
        # configured sigma.
        assert traces.per_gate.std(axis=0) == pytest.approx(
            np.full(len(tiny_netlist), sigma), rel=0.2)
        column = traces.gate_column(traces.gate_names[0])
        assert len(np.unique(np.round(column, 9))) <= 17

    def test_stream_chunks_cover_campaign(self, tiny_netlist):
        generator = PowerTraceGenerator(tiny_netlist)
        fixed, _ = fixed_vs_random_campaigns(tiny_netlist, 250, seed=1)
        stream = CounterStream(1, 0, 0)
        chunks = list(generator.generate_stream(fixed, 64, stream))
        assert [chunk.n_traces for chunk in chunks] == [64, 64, 64, 58]
        assert all(chunk.gate_names == generator.gate_names
                   for chunk in chunks)
        # Chunk i reads the draws of global chunk first_chunk + i.
        tail = next(generator.generate_stream(fixed.slice(192, 250), 64,
                                              stream, first_chunk=3))
        assert np.array_equal(tail.per_gate, chunks[3].per_gate)
        with pytest.raises(ValueError):
            next(generator.generate_stream(fixed, 0, stream))

    def test_mask_reuse_mode_leaks_through_shares(self, tiny_netlist):
        # mask_refresh=False models faulty masking: the shares track the
        # data, so the masked design's share toggles become data-dependent.
        masked = apply_masking(tiny_netlist, maskable_gates(tiny_netlist)).netlist
        faulty = PowerTraceGenerator(
            masked, config=PowerModelConfig(noise_sigma=0.0,
                                            mask_refresh=False))
        fixed, rand = fixed_vs_random_campaigns(masked, 2000, seed=5)
        fixed_traces = faulty.generate(fixed, draws=DRAWS)
        rand_traces = faulty.generate(rand, draws=CounterDraws(1, 0, 1, 0))
        # A faulty-masked gate's fixed-input power collapses to (nearly)
        # constant per trace while the random group keeps its spread.
        assert (fixed_traces.per_gate.std(axis=0)
                < rand_traces.per_gate.std(axis=0)).mean() > 0.5

    def test_malformed_masked_gate_raises(self):
        netlist = Netlist("broken")
        netlist.add_primary_input("a")
        netlist.add_primary_output("y")
        netlist.add_gate("m", GateType.MASKED_AND, ["a"], "y",
                         {"masked_from": "AND"})
        with pytest.raises(SimulationError, match="masked gate 'm'"):
            PowerTraceGenerator(netlist)


class TestOverheadAnalysis:
    def test_analyze_design_counts_and_positivity(self, tiny_netlist):
        metrics = analyze_design(tiny_netlist)
        assert metrics.gate_count == len(tiny_netlist)
        assert metrics.area > 0 and metrics.power > 0 and metrics.delay > 0

    def test_masking_increases_all_metrics(self, random_netlist):
        masked = apply_masking(random_netlist, maskable_gates(random_netlist)).netlist
        original = analyze_design(random_netlist)
        protected = analyze_design(masked)
        assert protected.area > original.area
        assert protected.power > original.power
        assert protected.delay >= original.delay

    def test_overhead_scale_attribute_respected(self, tiny_netlist):
        plain = apply_masking(tiny_netlist, ["g_and"]).netlist
        scaled = apply_masking(tiny_netlist, ["g_and"], overhead_scale=2.0).netlist
        assert analyze_design(scaled).area > analyze_design(plain).area

    def test_critical_path_delay_matches_depth_ordering(self, tiny_netlist):
        shallow = Netlist("shallow")
        shallow.add_primary_input("a")
        shallow.add_primary_input("b")
        shallow.add_primary_output("y")
        shallow.add_gate("g", GateType.AND, ["a", "b"], "y")
        assert critical_path_delay(tiny_netlist) > critical_path_delay(shallow)

    def test_overhead_report_fields(self, tiny_netlist):
        masked = apply_masking(tiny_netlist, ["g_and"]).netlist
        report = overhead_report(analyze_design(tiny_netlist), analyze_design(masked))
        assert report["area_ratio"] >= 1.0
        assert report["area_increase_pct"] == pytest.approx(
            (report["area_ratio"] - 1.0) * 100.0)

    def test_ratios_to(self):
        base = DesignMetrics(area=10, power=2, delay=1, gate_count=5)
        other = DesignMetrics(area=20, power=4, delay=3, gate_count=5)
        ratios = other.ratios_to(base)
        assert ratios == {"area": 2.0, "power": 2.0, "delay": 3.0}
