"""The packed end-to-end hot path is bit-identical to its oracles.

Two independent contracts make the packed trace engine and the fused
moment update safe defaults:

* **Packed == unpacked traces.**  The packed toggle extraction (XOR over
  packed state bytes + single unpack of the watched rows; masked data
  codes assembled from packed share rows) must produce the same bytes as
  the oracle ``oracles.simulation.LoopTraceGenerator`` (loop simulation +
  bool-matrix extraction) — for every netlist, every noise
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

* **Fused chunk fold == fold of generated chunks.**  The TVLA chunk fold
  (``_fold_chunk``) fills each 64-gate block of a chunk in reused buffers
  and folds it at once, so the chunk matrix never exists.  Its
  accumulator must be bitwise ``update_batch`` on ``generate``'s matrix
  for every block edge (0, 1, 63, 64, 65 and 130 gates), plain and masked
  designs, constant and per-trace chunks, partial chunks, orders 1-3 and
  with and without noise; and close to ``generate_loop`` where that
  oracle is exact (unmasked, noiseless).

* **One sweep per chunk.**  ``generate`` simulates the previous and
  current rows of a chunk in one ``evaluate`` call, and a chunk whose
  rows are all equal (the fixed group of a fixed-precharge campaign)
  simulates row 0 only.  That constant path must give the bytes of the
  same chunk with the row check switched off, on the engine and on the
  loop oracle.

Plus the packed substrate itself: popcount on packed rows with padding
masking, the in-place byte-fold popcount of the noise words, the lazy
packed ``SimulationResult``, and the process-wide masked-toggle-table
cache.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.masking import apply_masking, maskable_gates
from repro.netlist import RandomLogicSpec, generate_random_logic, load_benchmark
from repro.power import (
    CounterDraws,
    CounterStream,
    GatePowerModel,
    PowerModelConfig,
    PowerTraceGenerator,
    popcount_rows,
)
from repro.simulation import (
    LogicSimulator,
    fixed_vs_random_campaigns,
    toggle_counts,
    toggle_matrix,
)
from repro.campaign import (
    run_campaign,
    tvla_config_from_dict,
    tvla_config_to_dict,
)
from repro.power import traces as traces_module
from repro.netlist import Netlist
from repro.power.bitops import (
    FOLD_BLOCK_COLUMNS,
    popcount16,
    popcount16_inplace,
)
from repro.power.ctrsample import NOISE_LANE, philox_raw
from repro.simulation.simulator import LogicSimulator
from repro.tvla import OnePassMoments, TvlaConfig, assess_leakage
from repro.tvla import assessment as tvla_assessment
from repro.tvla.assessment import _fold_chunk, merge_shard_partials

from oracles.power import generate_loop
from oracles.simulation import LoopSimulator, LoopTraceGenerator

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
    return (PowerTraceGenerator(netlist, config=config),
            LoopTraceGenerator(netlist, config=config))


def _loop_generator(netlist, config: TvlaConfig) -> LoopTraceGenerator:
    """The oracle of the generator ``assess_leakage`` would build for
    ``config``: loop simulation and bool-matrix extraction."""
    return LoopTraceGenerator(netlist, config=config.power)


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

    def test_sharded_packed_matches_serial_unpacked(self, tmp_path):
        netlist = load_benchmark("sin", scale=0.2, seed=11)
        config = TvlaConfig(n_traces=192, n_fixed_classes=1, seed=7,
                            chunk_traces=32)
        serial = assess_leakage(netlist, config,
                                generator=_loop_generator(netlist, config))
        sharded = run_campaign(tmp_path / "runs", netlist, config, n_shards=4)
        np.testing.assert_allclose(sharded.t_values, serial.t_values,
                                   rtol=1e-12, atol=1e-12)

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


#: Chunk sizes of the constant-path pins: a single trace, a partial byte,
#: and the paper-scale chunks (10,000 traces = 4 x 2048 + 1808).
CONSTANT_CHUNKS = (1, 5, 1000, 1808, 2048)


@pytest.fixture(scope="module")
def paper_generators():
    """Generators for md5 and log2, plain and fully masked, the engine
    and its loop oracle, with each design's fixed-precharge fixed group."""
    built = {}
    for name in ("md5", "log2"):
        plain = load_benchmark(name)
        masked = apply_masking(plain, maskable_gates(plain)).netlist
        for tag, design in (("plain", plain), ("masked", masked)):
            fixed, _ = fixed_vs_random_campaigns(design, max(CONSTANT_CHUNKS),
                                                 seed=4)
            for backend, cls in (("compiled", PowerTraceGenerator),
                                 ("loop", LoopTraceGenerator)):
                built[name, tag, backend] = (cls(design), fixed)
    return built


def _evaluated_batches(generator, run):
    """Return ``run()`` and the batch size of every ``evaluate`` call
    ``generator``'s simulator made meanwhile."""
    batches = []
    simulator_class = type(generator._simulator)
    original = simulator_class.evaluate

    def spy(simulator, *args, **kwargs):
        result = original(simulator, *args, **kwargs)
        if simulator is generator._simulator:
            batches.append(result.n_vectors)
        return result

    with mock.patch.object(simulator_class, "evaluate", autospec=True,
                           side_effect=spy):
        outcome = run()
    return outcome, batches


def _sweep_width(n_traces):
    """Vectors of one non-constant sweep: previous rows padded to whole
    bytes, then the current rows."""
    return -(-n_traces // 8) * 8 + n_traces


class TestOneSweepPerChunk:
    @pytest.mark.parametrize("backend", ["compiled", "loop"])
    @pytest.mark.parametrize("tag", ["plain", "masked"])
    @pytest.mark.parametrize("name", ["md5", "log2"])
    def test_constant_chunks_bitwise_equal_full_simulation(
            self, paper_generators, name, tag, backend):
        generator, fixed = paper_generators[name, tag, backend]
        for index, n_traces in enumerate(CONSTANT_CHUNKS):
            chunk = fixed.slice(0, n_traces)
            draws = CounterDraws(11, 1, 0, index)
            constant, batches = _evaluated_batches(
                generator, lambda: generator.generate(chunk, draws=draws))
            assert batches == [9]
            with mock.patch.object(traces_module, "_constant_rows",
                                   return_value=False):
                full, batches = _evaluated_batches(
                    generator, lambda: generator.generate(chunk, draws=draws))
            assert batches == [_sweep_width(n_traces)]
            assert constant.gate_names == full.gate_names
            assert constant.per_gate.tobytes() == full.per_gate.tobytes(), (
                name, tag, backend, n_traces)

    def test_random_precharge_never_takes_constant_path(self, tiny_netlist):
        generator = PowerTraceGenerator(tiny_netlist)
        campaigns = fixed_vs_random_campaigns(tiny_netlist, 100, seed=3,
                                              fixed_precharge=False)
        for group, campaign in enumerate(campaigns):
            stream = CounterStream(2, 0, group)
            _, batches = _evaluated_batches(generator, lambda: list(
                generator.generate_stream(campaign, 32, stream)))
            assert batches == [_sweep_width(n) for n in (32, 32, 32, 4)]

    def test_one_evaluate_per_chunk(self, tiny_netlist):
        generator = PowerTraceGenerator(tiny_netlist)
        fixed, rnd = fixed_vs_random_campaigns(tiny_netlist, 100, seed=3)
        widths = {"fixed": [9] * 4,
                  "random": [_sweep_width(n) for n in (32, 32, 32, 4)]}
        for group, campaign in enumerate((fixed, rnd)):
            stream = CounterStream(2, 0, group)
            _, batches = _evaluated_batches(generator, lambda: list(
                generator.generate_stream(campaign, 32, stream)))
            assert batches == widths[campaign.label]


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
        width=st.sampled_from([1, FOLD_BLOCK_COLUMNS - 1, FOLD_BLOCK_COLUMNS,
                               FOLD_BLOCK_COLUMNS + 1,
                               3 * FOLD_BLOCK_COLUMNS + 5]),
        # 2048 rows take the narrowest blocks, so the widths above fall
        # on block edges; shorter batches take wider blocks.
        n=st.sampled_from([1, 2, 33, 130, 2048]),
        max_order=st.sampled_from([2, 4, 6]),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.sampled_from(["C", "F", "strided"]),
        populated=st.booleans(),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    # A one-column tail block of a C-order batch would be summed pairwise
    # while the naive column sum adds row by row: always cover it.
    @example(width=FOLD_BLOCK_COLUMNS + 1, n=2048, max_order=2,
             dtype=np.float64, layout="C", populated=False, seed=0)
    @example(width=FOLD_BLOCK_COLUMNS + 1, n=2048, max_order=6,
             dtype=np.float32, layout="C", populated=True, seed=1)
    # 33 rows take 3971-column blocks: this batch's one-column tail joins
    # the block before it.
    @example(width=3972, n=33, max_order=6,
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


#: Power-column counts around the fold's gate blocks: none, one, a
#: 64-gate block (a 2048-trace chunk's) less one, one block, a block plus
#: the trailing single column (joined to the block before it), two blocks
#: plus two columns, and a 131-gate block (a 1000-trace chunk's) plus its
#: trailing single column.
FUSED_GATE_COUNTS = (0, 1, 63, 64, 65, 130, 132)


def _design(n_gates: int, masked: bool) -> Netlist:
    """A design with ``n_gates`` power columns, optionally fully masked
    (masking keeps the column count)."""
    if n_gates == 0:
        design = Netlist("ports_only")
        for net in ("a", "b"):
            design.add_primary_input(net)
        design.add_primary_output("a")
        return design
    design = generate_random_logic(RandomLogicSpec(
        n_gates=n_gates, n_inputs=8, n_outputs=4, seed=n_gates))
    if masked:
        design = apply_masking(design, maskable_gates(design)).netlist
    return design


def _moment_bytes(accumulator: OnePassMoments) -> tuple:
    return (accumulator.count, accumulator.mean.tobytes(),
            tuple(accumulator.central_moment(order).tobytes()
                  for order in range(2, accumulator.max_order + 1)))


class TestFusedChunkFold:
    """``_fold_chunk`` fills and folds each gate block of a chunk without
    assembling the chunk: bitwise ``update_batch`` on ``generate``'s
    matrix, and close to the per-gate ``generate_loop`` oracle where that
    oracle is exact."""

    @pytest.mark.parametrize("tvla_order", [1, 2, 3])
    @pytest.mark.parametrize("noise_sigma", [0.0, None])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n_gates", FUSED_GATE_COUNTS)
    # A full chunk and a partial one, whose blocks are wider.
    @pytest.mark.parametrize("n_traces,chunk_traces",
                             [(2348, 2048), (1300, 1000)])
    def test_fused_fold_is_update_batch_of_generate(
            self, n_traces, chunk_traces, n_gates, masked, noise_sigma,
            tvla_order):
        power = (PowerModelConfig() if noise_sigma is None
                 else PowerModelConfig(noise_sigma=noise_sigma))
        config = TvlaConfig(n_traces=n_traces, chunk_traces=chunk_traces,
                            seed=5, tvla_order=tvla_order, power=power)
        design = _design(n_gates, masked)
        generator = PowerTraceGenerator(design, config=power)
        assert generator.n_gates == n_gates
        assert bool(generator._masked_subgroups) == (masked and n_gates > 0)
        # Fixed group: constant chunks; random group: per-trace sweeps.
        campaigns = fixed_vs_random_campaigns(design, config.n_traces, seed=3)
        for group_index, campaign in enumerate(campaigns):
            stream = CounterStream(config.seed, 0, group_index)
            for chunk_index in range(config.n_chunks()):
                fused = _fold_chunk(generator, campaign, config, stream,
                                    chunk_index)
                start = chunk_index * config.chunk_traces
                chunk = campaign.slice(start, min(config.n_traces,
                                                  start + config.chunk_traces))
                traces = generator.generate(chunk,
                                            draws=stream.draws(chunk_index))
                reference = OnePassMoments(config.moment_order(), (n_gates,))
                reference.update_batch(traces.per_gate)
                assert _moment_bytes(fused) == _moment_bytes(reference), (
                    campaign.label, chunk_index)
                if masked or noise_sigma is None:
                    continue
                # Unmasked and noiseless, the loop oracle draws nothing and
                # matches the engine to float32 rounding.
                loop = generate_loop(generator, chunk,
                                     np.random.default_rng(0))
                oracle = OnePassMoments(config.moment_order(), (n_gates,))
                oracle.update_batch(loop.per_gate)
                np.testing.assert_allclose(fused.mean, oracle.mean,
                                           rtol=1e-6, atol=1e-6)
                for order in range(2, config.moment_order() + 1):
                    np.testing.assert_allclose(
                        fused.central_moment(order),
                        oracle.central_moment(order), rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("tvla_order", [1, 3])
    @pytest.mark.parametrize("masked", [False, True])
    def test_assessment_is_the_fold_of_generate(self, masked, tvla_order):
        # Under ``taskset -c 0`` assess_leakage folds inline, otherwise on a
        # pool; either way its t-values are those of update_batch on every
        # generated chunk, merged by the one merge.
        design = _design(130, masked)
        config = TvlaConfig(n_traces=2348, chunk_traces=2048, seed=9,
                            n_fixed_classes=2, tvla_order=tvla_order)
        generator = PowerTraceGenerator(design, config=config.power)
        assessment = assess_leakage(design, config, generator=generator)
        partials = []
        for class_index, pair in enumerate(
                tvla_assessment.campaign_schedule(design, config)):
            groups = []
            for group_index, campaign in enumerate(pair):
                stream = CounterStream(config.seed, class_index, group_index)
                chunks = []
                for traces in generator.generate_stream(
                        campaign, config.chunk_traces, stream):
                    accumulator = OnePassMoments(config.moment_order(),
                                                 (generator.n_gates,))
                    accumulator.update_batch(traces.per_gate)
                    chunks.append(accumulator)
                groups.append(chunks)
            partials.append(tuple(groups))
        reference = merge_shard_partials([partials], config, design.name,
                                         generator.gate_names, 0.0, 1)
        assert assessment.t_values.tobytes() == reference.t_values.tobytes()
        assert (assessment.degrees_of_freedom.tobytes()
                == reference.degrees_of_freedom.tobytes())
        for order, values in reference.order_t_values.items():
            assert assessment.order_t_values[order].tobytes() \
                == values.tobytes()


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

    @SETTINGS
    @given(words=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                          max_size=70000 // 8))
    @example(words=[2 ** 64 - 1] * (2 ** 14 + 3))
    def test_popcount16_inplace_matches_popcount16(self, words):
        buffer = np.array(words, dtype=np.uint64)
        expected = popcount16(buffer.view(np.uint16))
        counts = popcount16_inplace(buffer.copy())
        assert counts.shape == expected.shape
        np.testing.assert_array_equal(counts, expected)

    @SETTINGS
    @given(shape=st.one_of(
        st.just(()),
        st.tuples(st.integers(min_value=0, max_value=41)),
        st.tuples(st.integers(min_value=1, max_value=9),
                  st.integers(min_value=1, max_value=37))),
        chunk=st.integers(min_value=0, max_value=2 ** 20))
    @example(shape=(), chunk=0)
    @example(shape=(7,), chunk=0)  # partial last word
    def test_noise_counts_match_uint16_popcount(self, shape, chunk):
        count = int(np.prod(shape)) if shape else 1
        words = philox_raw(3, 1, 0, chunk, NOISE_LANE, -(-count // 4))
        expected = popcount16(words.view(np.uint16)[:count].reshape(shape))
        counts = CounterDraws(3, 1, 0, chunk).noise_counts(shape)
        assert counts.shape == tuple(shape)
        np.testing.assert_array_equal(counts, expected)

    def test_popcount_rows_rejects_short_rows(self):
        with pytest.raises(ValueError, match="out of range"):
            popcount_rows(np.zeros((2, 1), dtype=np.uint8), 9)

    def test_toggle_counts_packed_fast_path(self, rng):
        """popcount(prev ^ cur) on packed bytes == the bool-path counts."""
        netlist = load_benchmark("des3", scale=0.2, seed=11)
        compiled = LogicSimulator(netlist)
        loop = LoopSimulator(netlist)
        stimulus_a = {net: rng.integers(0, 2, 77).astype(bool)
                      for net in netlist.primary_inputs}
        stimulus_b = {net: rng.integers(0, 2, 77).astype(bool)
                      for net in netlist.primary_inputs}
        fast = toggle_counts(netlist, compiled.evaluate(stimulus_a),
                             compiled.evaluate(stimulus_b))
        slow = {name: int(toggles.sum()) for name, toggles in toggle_matrix(
            netlist, loop.evaluate(stimulus_a),
            loop.evaluate(stimulus_b)).items()}
        assert fast == slow

    def test_simulation_result_is_lazy_and_consistent(self, tiny_netlist):
        simulator = LogicSimulator(tiny_netlist)
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

        model_a = GatePowerModel()
        model_b = GatePowerModel(config=PowerModelConfig(noise_sigma=0.5))
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
                GatePowerModel().masked_toggle_table(GateType.MASKED_XOR))

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

        model = GatePowerModel()
        table = model.masked_toggle_table(GateType.MASKED_AND)
        table.setflags(write=True)
        try:
            with pytest.raises(RuntimeError, match="became writable"):
                model.masked_toggle_table(GateType.MASKED_AND)
        finally:
            table.setflags(write=False)
