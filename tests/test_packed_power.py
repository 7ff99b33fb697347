"""The packed end-to-end hot path is bit-identical to its oracles.

Two independent contracts make the packed trace engine and the fused
moment update safe defaults:

* **Packed == unpacked traces.**  The packed toggle extraction (XOR over
  packed state bytes + single unpack of the watched rows; masked data
  codes assembled from packed share rows), which runs whenever the
  simulator has a compiled plan, must produce the same bytes as the
  oracle seam ``PowerTraceGenerator(..., sim_backend="loop")`` (loop
  simulation + bool-matrix extraction) — for every netlist, every noise
  mode and every batch size, including batches that do not fill the last
  packed byte.  Identical traces then make t-values *exactly* equal, not
  merely close.
* **Blocked == naive moments.**  ``OnePassMoments.update_batch`` (a
  gate-blocked fold: per block of columns, one in-place power chain over
  L2-sized work buffers) must match ``update_batch_naive`` (the
  allocation-per-order reference) bitwise through order-3 TVLA (central
  sums to order 6), for the real trace layouts (float32 transpose views)
  as well as plain and strided arrays, at every width around the block
  size.

Plus the packed substrate itself: popcount on packed rows with padding
masking, the lazy packed ``SimulationResult``, and the process-wide
masked-toggle-table cache.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.masking import apply_masking, maskable_gates
from repro.netlist import RandomLogicSpec, generate_random_logic, load_benchmark
from repro.power import (
    CounterDraws,
    GatePowerModel,
    PowerModelConfig,
    PowerTraceGenerator,
    popcount_rows,
)
from repro.simulation import (
    LogicSimulator,
    fixed_vs_random_campaigns,
    toggle_counts,
)
from repro.campaign import tvla_config_from_dict, tvla_config_to_dict
from repro.tvla import OnePassMoments, TvlaConfig, assess_leakage, \
    assess_leakage_sharded
from repro.tvla.moments import _FOLD_BLOCK_COLUMNS

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Batch sizes that exercise full bytes, partial last bytes and the
#: degenerate 2-trace case.
ODD_BATCHES = st.sampled_from([2, 7, 8, 9, 64, 73, 100, 129])


def _generators(netlist, noise: str, mask_refresh: bool = True):
    """Packed and unpacked generators with popcount noise (``"fast"``) or
    none (``"none"``)."""
    sigma = 0.0 if noise == "none" else PowerModelConfig().noise_sigma
    config = PowerModelConfig(noise_sigma=sigma, mask_refresh=mask_refresh)
    packed = PowerTraceGenerator(netlist, config=config, seed=1)
    unpacked = PowerTraceGenerator(netlist, config=config, seed=1,
                                   sim_backend="loop")
    return packed, unpacked


def _is_packed(generator: PowerTraceGenerator) -> bool:
    """Whether ``generator`` extracts toggles from packed state bytes
    (exactly when its simulator holds a compiled plan)."""
    return generator._simulator.plan is not None


def _loop_generator(netlist, config: TvlaConfig) -> PowerTraceGenerator:
    """The oracle generator ``assess_leakage`` would build for ``config``,
    on the loop simulator and bool-matrix extraction."""
    return PowerTraceGenerator(netlist, config=config.power,
                               seed=config.seed, sim_backend="loop")


class TestPackedTraceEquality:
    @SETTINGS
    @given(
        n_gates=st.integers(min_value=1, max_value=90),
        n_inputs=st.integers(min_value=2, max_value=16),
        profile=st.sampled_from(["crypto", "control", "arithmetic",
                                 "random"]),
        mask=st.booleans(),
        noise=st.sampled_from(["fast", "none"]),
        n_traces=ODD_BATCHES,
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_random_netlists_bit_identical(self, n_gates, n_inputs, profile,
                                           mask, noise, n_traces, seed):
        spec = RandomLogicSpec(n_gates=n_gates, n_inputs=n_inputs,
                               n_outputs=min(4, n_gates), profile=profile,
                               seed=seed)
        netlist = generate_random_logic(spec)
        if mask:
            targets = maskable_gates(netlist)
            if targets:
                netlist = apply_masking(netlist, targets).netlist
        packed, unpacked = _generators(netlist, noise)
        assert _is_packed(packed)
        assert not _is_packed(unpacked)
        campaigns = fixed_vs_random_campaigns(netlist, n_traces, seed=seed)
        for group, campaign in enumerate(campaigns):
            draws = CounterDraws(3, 0, group, 0)
            fast = packed.generate(campaign, draws=draws)
            slow = unpacked.generate(campaign, draws=draws)
            assert fast.gate_names == slow.gate_names
            np.testing.assert_array_equal(fast.per_gate, slow.per_gate)
            np.testing.assert_array_equal(fast.total, slow.total)

    def test_faulty_mask_reuse_mode_bit_identical(self):
        """mask_refresh=False (3 mask bits, negative-test mode) too."""
        netlist = load_benchmark("arbiter", scale=0.15, seed=11)
        masked = apply_masking(netlist, maskable_gates(netlist)).netlist
        packed, unpacked = _generators(masked, "fast", mask_refresh=False)
        fixed, rnd = fixed_vs_random_campaigns(masked, 93, seed=2)
        for group, campaign in enumerate((fixed, rnd)):
            draws = CounterDraws(5, 0, group, 0)
            fast = packed.generate(campaign, draws=draws)
            slow = unpacked.generate(campaign, draws=draws)
            np.testing.assert_array_equal(fast.per_gate, slow.per_gate)

    @pytest.mark.parametrize("tvla_order", [1, 2, 3])
    def test_t_values_exactly_equal(self, tvla_order):
        """End-to-end assessments: the default (packed) and the loop-seam
        (unpacked) verdicts match bitwise, for odd chunk sizes (partial
        last bytes per chunk) and every evaluated TVLA order."""
        netlist = load_benchmark("voter", scale=0.2, seed=11)
        masked = apply_masking(netlist, maskable_gates(netlist)).netlist
        config = TvlaConfig(n_traces=165, n_fixed_classes=2, seed=5,
                            chunk_traces=52,
                            tvla_order=tvla_order)
        for design in (netlist, masked):
            fast = assess_leakage(design, config)
            slow = assess_leakage(design, config,
                                  generator=_loop_generator(design, config))
            assert fast.gate_names == slow.gate_names
            np.testing.assert_array_equal(fast.t_values, slow.t_values)
            for order in fast.order_t_values:
                np.testing.assert_array_equal(fast.order_t_values[order],
                                              slow.order_t_values[order])

    def test_sharded_packed_matches_serial_unpacked(self):
        netlist = load_benchmark("sin", scale=0.2, seed=11)
        config = TvlaConfig(n_traces=192, n_fixed_classes=1, seed=7,
                            chunk_traces=32)
        serial = assess_leakage(netlist, config,
                                generator=_loop_generator(netlist, config))
        sharded = assess_leakage_sharded(netlist, config, n_shards=4)
        np.testing.assert_allclose(sharded.t_values, serial.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_loop_sim_backend_degrades_to_unpacked(self, tiny_netlist):
        """The loop simulator has no packed matrix, so the loop seam runs
        the bool-matrix extraction, bit-identical to the packed default."""
        generator = PowerTraceGenerator(tiny_netlist, sim_backend="loop")
        assert not _is_packed(generator)
        fixed, _ = fixed_vs_random_campaigns(tiny_netlist, 50, seed=1)
        reference = PowerTraceGenerator(tiny_netlist)
        assert _is_packed(reference)
        draws = CounterDraws(1, 0, 0, 0)
        np.testing.assert_array_equal(
            generator.generate(fixed, draws=draws).per_gate,
            reference.generate(fixed, draws=draws).per_gate)

    def test_invalid_power_backend_rejected(self, tiny_netlist):
        """The netlist picks the extraction: no option selects it, and a
        stored config naming any extraction but packed is refused."""
        with pytest.raises(TypeError, match="power_backend"):
            PowerTraceGenerator(tiny_netlist, power_backend="unpacked")
        with pytest.raises(TypeError, match="power_backend"):
            TvlaConfig(power_backend="unpacked")
        for value in ("unpacked", "simd"):
            data = dict(tvla_config_to_dict(TvlaConfig()),
                        power_backend=value)
            with pytest.raises(ValueError, match="power_backend"):
                tvla_config_from_dict(data)


class TestFusedMoments:
    @SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=400),
        width=st.integers(min_value=1, max_value=40),
        max_order=st.sampled_from([2, 3, 4, 6]),
        transposed=st.booleans(),
        float32=st.booleans(),
        n_batches=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_fused_equals_naive_bitwise(self, n, width, max_order,
                                        transposed, float32, n_batches,
                                        seed):
        rng = np.random.default_rng(seed)
        fused = OnePassMoments(max_order=max_order, shape=(width,))
        naive = OnePassMoments(max_order=max_order, shape=(width,))
        for _ in range(n_batches):
            if transposed:
                samples = (rng.random((width, n)) * 12 - 6).T
            else:
                samples = rng.random((n, width)) * 12 - 6
            if float32:
                samples = samples.astype(np.float32)
                if transposed:
                    # Keep the transpose (F-contiguous) layout, like the
                    # real gate-major trace matrix's per_gate view.
                    samples = np.asfortranarray(samples)
            fused.update_batch(samples)
            naive.update_batch_naive(samples)
        assert fused.count == naive.count
        np.testing.assert_array_equal(fused.mean, naive.mean)
        for order in range(2, max_order + 1):
            np.testing.assert_array_equal(fused.central_moment(order),
                                          naive.central_moment(order))

    @SETTINGS
    @given(
        width=st.sampled_from([1, _FOLD_BLOCK_COLUMNS - 1, _FOLD_BLOCK_COLUMNS,
                               _FOLD_BLOCK_COLUMNS + 1,
                               3 * _FOLD_BLOCK_COLUMNS + 5]),
        n=st.sampled_from([1, 2, 33, 130]),
        max_order=st.sampled_from([2, 4, 6]),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.sampled_from(["C", "F", "strided"]),
        populated=st.booleans(),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    # A one-column tail block of a C-order batch would be summed pairwise
    # while the naive column sum adds row by row: always cover it.
    @example(width=_FOLD_BLOCK_COLUMNS + 1, n=130, max_order=2,
             dtype=np.float64, layout="C", populated=False, seed=0)
    @example(width=_FOLD_BLOCK_COLUMNS + 1, n=33, max_order=6,
             dtype=np.float32, layout="C", populated=True, seed=1)
    def test_blocked_fold_equals_naive_bitwise(self, width, n, max_order,
                                               dtype, layout, populated,
                                               seed):
        rng = np.random.default_rng(seed)
        # "F" is gate-major storage read through its transpose, like
        # per_gate; "strided" is neither C- nor F-contiguous.
        base_shape = {"C": (n, width), "F": (width, n),
                      "strided": (2 * n, 3 * width)}[layout]
        base = (rng.random(base_shape) * 12 - 6).astype(dtype)
        samples = {"C": base, "F": base.T,
                   "strided": base[::2, ::3]}[layout]
        blocked = OnePassMoments(max_order=max_order, shape=(width,))
        naive = OnePassMoments(max_order=max_order, shape=(width,))
        if populated:
            history = rng.random((17, width)) * 4 - 2
            blocked.update_batch_naive(history)
            naive.update_batch_naive(history)
        blocked.update_batch(samples)
        naive.update_batch_naive(samples)
        assert blocked.count == naive.count
        assert blocked._mean.tobytes() == naive._mean.tobytes()
        for got, want in zip(blocked._sums, naive._sums):
            assert got.tobytes() == want.tobytes()

    def test_fused_accumulators_merge_identically(self, rng):
        """Order-3 TVLA (central sums to 6): fused partials merge to the
        exact bytes naive partials merge to."""
        parts_fused, parts_naive = [], []
        for start in range(3):
            fused = OnePassMoments(max_order=6, shape=(9,))
            naive = OnePassMoments(max_order=6, shape=(9,))
            batch = (rng.random((101, 9)) * 4 - 2).astype(np.float32)
            fused.update_batch(batch)
            naive.update_batch_naive(batch)
            parts_fused.append(fused)
            parts_naive.append(naive)
        merged_fused = parts_fused[0].merge(parts_fused[1]).merge(
            parts_fused[2])
        merged_naive = parts_naive[0].merge(parts_naive[1]).merge(
            parts_naive[2])
        np.testing.assert_array_equal(merged_fused.mean, merged_naive.mean)
        for order in range(2, 7):
            np.testing.assert_array_equal(
                merged_fused.central_moment(order),
                merged_naive.central_moment(order))

    def test_scratch_never_aliases_caller_data(self, rng):
        acc = OnePassMoments(max_order=2, shape=(5,))
        samples = rng.random((64, 5))  # float64: must not be mutated
        before = samples.copy()
        acc.update_batch(samples)
        np.testing.assert_array_equal(samples, before)

    def test_update_single_sample_still_matches(self, rng):
        batch_acc = OnePassMoments(max_order=4, shape=(3,))
        single_acc = OnePassMoments(max_order=4, shape=(3,))
        samples = rng.random((40, 3))
        batch_acc.update_batch(samples)
        for row in samples:
            single_acc.update(row)
        np.testing.assert_allclose(single_acc.mean, batch_acc.mean,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(single_acc.central_moment(4),
                                   batch_acc.central_moment(4),
                                   rtol=1e-9, atol=1e-12)


class TestPackedSubstrate:
    @SETTINGS
    @given(
        rows=st.integers(min_value=1, max_value=12),
        n_vectors=st.integers(min_value=1, max_value=130),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_popcount_rows_matches_unpacked_sum(self, rows, n_vectors, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, n_vectors)).astype(bool)
        packed = np.packbits(bits, axis=1)
        # Poison the padding bits: popcount_rows must mask them out.
        remainder = n_vectors % 8
        if remainder:
            poison = packed.copy()
            poison[:, -1] |= np.uint8((1 << (8 - remainder)) - 1)
            packed = poison
        counts = popcount_rows(packed, n_vectors)
        np.testing.assert_array_equal(counts, bits.sum(axis=1))

    def test_popcount_rows_rejects_short_rows(self):
        with pytest.raises(ValueError, match="out of range"):
            popcount_rows(np.zeros((2, 1), dtype=np.uint8), 9)

    def test_toggle_counts_packed_fast_path(self, rng):
        """popcount(prev ^ cur) on packed bytes == the bool-path counts."""
        netlist = load_benchmark("des3", scale=0.2, seed=11)
        compiled = LogicSimulator(netlist, backend="compiled")
        loop = LogicSimulator(netlist, backend="loop")
        stimulus_a = {net: rng.integers(0, 2, 77).astype(bool)
                      for net in netlist.primary_inputs}
        stimulus_b = {net: rng.integers(0, 2, 77).astype(bool)
                      for net in netlist.primary_inputs}
        fast = toggle_counts(netlist, compiled.evaluate(stimulus_a),
                             compiled.evaluate(stimulus_b))
        slow = toggle_counts(netlist, loop.evaluate(stimulus_a),
                             loop.evaluate(stimulus_b))
        assert fast == slow

    def test_simulation_result_is_lazy_and_consistent(self, tiny_netlist):
        simulator = LogicSimulator(tiny_netlist, backend="compiled")
        stimulus = {net: np.array([True, False, True])
                    for net in tiny_netlist.primary_inputs}
        result = simulator.evaluate(stimulus)
        assert result.packed_matrix is not None
        assert result.packed_matrix.shape[1] == 1  # ceil(3 / 8)
        # Unpacked views materialise on demand and agree with the packed
        # bits row for row.
        matrix = result.state_matrix
        assert matrix.shape == (result.packed_matrix.shape[0], 3)
        # Compare the 3 valid bits per row; the padding bits of the last
        # packed byte are unspecified by contract.
        np.testing.assert_array_equal(
            np.unpackbits(result.packed_matrix, axis=1, count=3).view(bool),
            matrix)
        assert not matrix.flags.writeable
        np.testing.assert_array_equal(result.net_values["y"],
                                      matrix[simulator.plan.signal_index["y"]])

    def test_masked_toggle_table_cached_and_read_only(self):
        from repro.netlist import GateType

        model_a = GatePowerModel(seed=1)
        model_b = GatePowerModel(seed=99)
        table_a = model_a.masked_toggle_table(GateType.MASKED_AND)
        table_b = model_b.masked_toggle_table(GateType.MASKED_AND)
        assert table_a is table_b  # rebuilt generators share the table
        assert not table_a.flags.writeable
        with pytest.raises(ValueError):
            table_a[0, 0] = 99
        # reuse_masks is a distinct cache entry with its own shape.
        reuse = model_a.masked_toggle_table(GateType.MASKED_AND,
                                            reuse_masks=True)
        assert reuse.shape == (16, 8)
        assert table_a.shape == (16, 64)

    def test_masked_toggle_table_concurrent_fill_single_instance(self):
        import threading

        from repro.netlist import GateType
        from repro.power import model as model_module

        key = (GatePowerModel, GateType.MASKED_XOR, False)
        model_module._TOGGLE_TABLE_CACHE.pop(key, None)
        barrier = threading.Barrier(8)
        tables = []

        def fill():
            barrier.wait()
            tables.append(
                GatePowerModel(seed=7).masked_toggle_table(GateType.MASKED_XOR))

        threads = [threading.Thread(target=fill) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tables) == 8
        assert all(table is tables[0] for table in tables)
        assert not tables[0].flags.writeable

    def test_masked_toggle_table_detects_corrupted_cache(self):
        from repro.netlist import GateType

        model = GatePowerModel(seed=3)
        table = model.masked_toggle_table(GateType.MASKED_AND)
        table.setflags(write=True)
        try:
            with pytest.raises(RuntimeError, match="became writable"):
                model.masked_toggle_table(GateType.MASKED_AND)
        finally:
            table.setflags(write=False)
