"""Property layer pinning the counter-based stateless sampler (PR 8).

``repro.power.ctrsample`` replaces stateful mask/noise streams with a
Philox counter cipher over ``(seed, class, group, chunk, lane)``
coordinates.  The stateless-sampling contract lives here:

* **Philox oracle** — the native generator's raw words equal the
  pure-numpy reference network bitwise: ``philox_raw`` vs
  ``philox_blocks_reference`` (the ``ctr-philox`` oracle pair).
* **Coordinate determinism** — every draw is a pure function of its
  coordinates: fresh objects, repeated calls and permuted call orders all
  emit identical bits (hypothesis-driven).
* **Stream independence** — distinct coordinates and lanes never share a
  stream.
* **Layout invariance** — counter-sampler t-values are **bitwise** equal
  (``np.array_equal``, not ~1e-12) across 1/2/4/8 shards of the campaign
  runner's shard path, and across hypothesis-sampled chunk partitions.
* **Frozen draws** — ``generate(draws=...)`` and the ``generate_loop``
  oracle keep byte-frozen golden digests.
* **Statistical sanity** — chi-square smoke tests of the emitted bytes
  and popcounts (``slow``-marked, excluded from tier-1 CI).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.masking import apply_masking, maskable_gates
from repro.netlist import load_benchmark
from repro.power import PowerModelConfig, PowerTraceGenerator
from repro.power.bitops import words_for_units
from repro.power.ctrsample import (
    GAUSS_LANE,
    MASK_LANE_BASE,
    NOISE_LANE,
    CounterDraws,
    CounterStream,
    counter_block,
    counter_key,
    philox_raw,
)
from repro.simulation import fixed_vs_random_campaigns
from repro.tvla import TvlaConfig, assess_leakage
from repro.tvla.assessment import campaign_schedule, fold_trace_range
from repro.tvla.sharding import merge_shard_partials
from runner_shards import runner_shard_path

from oracles.assessment import accumulate_campaign_slice
from oracles.ctrsample import philox_blocks_reference
from oracles.power import generate_loop
from oracles.simulation import LoopTraceGenerator

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SEEDS = st.integers(min_value=0, max_value=2 ** 64 - 1)
INDEX32 = st.integers(min_value=0, max_value=2 ** 32 - 1)
INDEX64 = st.integers(min_value=0, max_value=2 ** 64 - 1)
#: Batch sizes straddling the packbits word boundary (deliberately odd).
ODD_BATCHES = st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65, 100, 129])


# ----------------------------------------------------------------------
# Philox native vs pure-numpy reference (the ctr-philox oracle pair)
# ----------------------------------------------------------------------
class TestPhiloxOracle:
    @SETTINGS
    @given(seed=SEEDS, class_index=INDEX32, group_index=INDEX32,
           chunk_index=INDEX64, lane=INDEX64,
           n_words=st.integers(min_value=1, max_value=64))
    def test_native_matches_reference(self, seed, class_index, group_index,
                                      chunk_index, lane, n_words):
        native = philox_raw(seed, class_index, group_index, chunk_index,
                            lane, n_words)
        reference = philox_blocks_reference(
            counter_key(seed),
            counter_block(class_index, group_index, chunk_index, lane),
            -(-n_words // 4))[:n_words]
        assert np.array_equal(native, reference)

    @SETTINGS
    @given(seed=SEEDS)
    def test_key_domain_separation_is_injective(self, seed):
        key = counter_key(seed)
        assert key.dtype == np.uint64 and key.shape == (2,)
        # Folding back the domain constants recovers the low 128 seed bits.
        folded = int(seed) & ((1 << 128) - 1)
        assert int(key[0]) ^ 0x3C6EF372FE94F82B == folded & (2 ** 64 - 1)
        assert int(key[1]) ^ 0xA54FF53A5F1D36F1 == folded >> 64

    def test_counter_block_layout(self):
        block = counter_block(3, 1, 70, 5)
        assert block.tolist() == [0, 5, 70, (3 << 32) | 1]

    @pytest.mark.parametrize("kwargs", [
        dict(class_index=-1, group_index=0, chunk_index=0, lane=0),
        dict(class_index=2 ** 32, group_index=0, chunk_index=0, lane=0),
        dict(class_index=0, group_index=2 ** 32, chunk_index=0, lane=0),
        dict(class_index=0, group_index=0, chunk_index=2 ** 64, lane=0),
        dict(class_index=0, group_index=0, chunk_index=0, lane=-2),
    ])
    def test_counter_block_validates_coordinates(self, kwargs):
        with pytest.raises(ValueError):
            counter_block(**kwargs)

    def test_reference_rejects_zero_blocks(self):
        with pytest.raises(ValueError, match="n_blocks"):
            philox_blocks_reference(counter_key(0), counter_block(0, 0, 0, 0),
                                    0)

    def test_reference_carry_chain(self):
        # A counter whose word 0 is near 2**64 must carry into word 1 when
        # the native generator pre-increments.
        counter = np.array([2 ** 64 - 2, 9, 0, 0], dtype=np.uint64)
        key = counter_key(123)
        native = np.random.Philox(counter=counter, key=key).random_raw(16)
        assert np.array_equal(
            philox_blocks_reference(key, counter, 4), native)


# ----------------------------------------------------------------------
# Coordinate determinism and stream independence
# ----------------------------------------------------------------------
class TestCoordinateDeterminism:
    @SETTINGS
    @given(seed=SEEDS, class_index=INDEX32, group_index=INDEX32,
           chunk_index=INDEX64, n_traces=ODD_BATCHES)
    def test_fresh_objects_emit_identical_bits(self, seed, class_index,
                                               group_index, chunk_index,
                                               n_traces):
        first = CounterDraws(seed, class_index, group_index, chunk_index)
        second = CounterStream(seed, class_index, group_index) \
            .draws(chunk_index)
        assert np.array_equal(first.mask_bytes(0, 3, n_traces),
                              second.mask_bytes(0, 3, n_traces))
        assert np.array_equal(first.noise_counts((4, n_traces)),
                              second.noise_counts((4, n_traces)))
        assert np.array_equal(first.gauss((2, n_traces)),
                              second.gauss((2, n_traces)))

    @SETTINGS
    @given(seed=SEEDS, chunk_index=INDEX64)
    def test_call_order_is_irrelevant(self, seed, chunk_index):
        # Statelessness: interleaving draws from other lanes must not
        # advance anything — every call is a pure coordinate lookup.
        draws = CounterDraws(seed, 1, 0, chunk_index)
        mask_first = draws.mask_bytes(0, 2, 40)
        draws.noise_counts((100,))
        draws.gauss((10,))
        draws.mask_bytes(3, 5, 17)
        assert np.array_equal(draws.mask_bytes(0, 2, 40), mask_first)

    @SETTINGS
    @given(seed=SEEDS, n_traces=ODD_BATCHES)
    def test_prefix_stability(self, seed, n_traces):
        # Drawing a longer batch extends — never rewrites — the shorter
        # draw: chunked consumers see the same leading bytes.
        draws = CounterDraws(seed, 0, 1, 2)
        short = draws.mask_bytes(0, 1, n_traces)
        long = draws.mask_bytes(0, 1, n_traces + 64)
        assert np.array_equal(long[:, :n_traces], short)


class TestStreamIndependence:
    @SETTINGS
    @given(seed=SEEDS, class_index=st.integers(0, 2 ** 32 - 2),
           group_index=st.integers(0, 2 ** 32 - 2),
           chunk_index=st.integers(0, 2 ** 64 - 2))
    def test_every_coordinate_axis_separates_streams(self, seed, class_index,
                                                     group_index,
                                                     chunk_index):
        base = philox_raw(seed, class_index, group_index, chunk_index,
                          NOISE_LANE, 8)
        neighbours = [
            philox_raw(seed ^ 1, class_index, group_index, chunk_index,
                       NOISE_LANE, 8),
            philox_raw(seed, class_index + 1, group_index, chunk_index,
                       NOISE_LANE, 8),
            philox_raw(seed, class_index, group_index + 1, chunk_index,
                       NOISE_LANE, 8),
            philox_raw(seed, class_index, group_index, chunk_index + 1,
                       NOISE_LANE, 8),
            philox_raw(seed, class_index, group_index, chunk_index,
                       GAUSS_LANE, 8),
        ]
        for other in neighbours:
            assert not np.array_equal(base, other)

    def test_subgroup_lanes_do_not_collide(self):
        draws = CounterDraws(7, 0, 0, 0)
        lanes = [draws.mask_bytes(k, 2, 64) for k in range(4)]
        for i in range(len(lanes)):
            for j in range(i + 1, len(lanes)):
                assert not np.array_equal(lanes[i], lanes[j])
        # Mask lanes sit above the reserved noise/gauss lanes.
        assert MASK_LANE_BASE > max(NOISE_LANE, GAUSS_LANE)

    def test_class_group_packing_does_not_alias(self):
        # (class=1, group=0) packs to 1<<32; (class=0, group=2**32-1)
        # packs to 2**32-1 — adjacent encodings must stay distinct.
        left = philox_raw(5, 1, 0, 0, NOISE_LANE, 4)
        right = philox_raw(5, 0, 2 ** 32 - 1, 0, NOISE_LANE, 4)
        assert not np.array_equal(left, right)


# ----------------------------------------------------------------------
# Word-draw over-allocation helper (satellite: one definition)
# ----------------------------------------------------------------------
class TestWordsForUnits:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                   31, 32, 33, 100, 129, 2048])
    def test_matches_the_historic_expressions(self, n):
        # The two expressions this helper replaced, verbatim.
        assert words_for_units(n, np.uint8) == (n + 7) // 8
        assert words_for_units(n, np.uint16) == (n + 3) // 4
        assert words_for_units(n, np.uint32) == (n + 1) // 2
        assert words_for_units(n, np.uint64) == n

    @SETTINGS
    @given(n=st.integers(min_value=0, max_value=10 ** 9),
           dtype=st.sampled_from([np.uint8, np.uint16, np.uint32,
                                  np.uint64]))
    def test_exact_covering_word_count(self, n, dtype):
        words = words_for_units(n, dtype)
        need = n * np.dtype(dtype).itemsize
        assert words * 8 >= need          # enough bytes...
        assert (words - 1) * 8 < need or words == 0   # ...but no spare word

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="n_units"):
            words_for_units(-1, np.uint8)
        with pytest.raises(ValueError, match="tile"):
            words_for_units(4, np.complex128)  # itemsize 16 > one word


# ----------------------------------------------------------------------
# Counter sampler through the trace engine (packed == unpacked, bitwise)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def masked_arbiter():
    netlist = load_benchmark("arbiter", scale=0.15, seed=11)
    return apply_masking(netlist, maskable_gates(netlist)).netlist


class TestCounterTraceEngine:
    @pytest.mark.parametrize("noise", ["fast", "none"])
    def test_packed_equals_unpacked_bitwise(self, masked_arbiter, noise):
        config = (PowerModelConfig(noise_sigma=0.0) if noise == "none"
                  else PowerModelConfig())
        campaign = fixed_vs_random_campaigns(masked_arbiter, 93, seed=2)[1]
        draws = CounterDraws(17, 0, 1, 0)
        per_backend = []
        # The engine extracts packed; its loop oracle, unpacked.
        for cls in (PowerTraceGenerator, LoopTraceGenerator):
            generator = cls(masked_arbiter, config=config)
            per_backend.append(generator.generate(campaign, draws=draws)
                               .per_gate)
        assert np.array_equal(per_backend[0], per_backend[1])


# ----------------------------------------------------------------------
# Layout invariance: counter t-values are bitwise layout-independent
# ----------------------------------------------------------------------
#: 600 traces in 128-trace chunks -> 5 chunks (matches the sharding suite).
COUNTER_TVLA = dict(n_traces=600, n_fixed_classes=2, seed=9,
                    chunk_traces=128)


@pytest.fixture(scope="module")
def counter_config() -> TvlaConfig:
    return TvlaConfig(**COUNTER_TVLA)


@pytest.fixture(scope="module")
def counter_reference(small_benchmark, counter_config):
    return assess_leakage(small_benchmark, counter_config)


class TestLayoutInvariance:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8], ids="serial-{}".format)
    def test_sharded_is_bitwise_equal(self, small_benchmark, counter_config,
                                      counter_reference, n_shards):
        # The contract: *exact* equality, not ~1e-12 closeness, through
        # the runner's shard path (checkpoint bytes included).
        sharded = runner_shard_path(small_benchmark, counter_config,
                                    n_shards)
        assert np.array_equal(sharded.t_values, counter_reference.t_values)
        assert np.array_equal(sharded.mean_abs_t,
                              counter_reference.mean_abs_t)
        assert np.array_equal(sharded.degrees_of_freedom,
                              counter_reference.degrees_of_freedom)


class TestChunkPartitionProperty:
    """Hypothesis-driven layout invariance at the accumulator level.

    Per-chunk accumulators are computed once; hypothesis then slices them
    into arbitrary contiguous shard partitions and checks the campaign
    merge reproduces the serial chained accumulation **bitwise**
    (``np.array_equal`` on every Welch statistic, not ~1e-12)."""

    @pytest.fixture(scope="class")
    def chunk_partials(self, masked_arbiter):
        config = TvlaConfig(n_traces=384, n_fixed_classes=2, seed=21,
                            chunk_traces=64)
        generator = PowerTraceGenerator(masked_arbiter, config=config.power)
        schedule = campaign_schedule(masked_arbiter, config)
        per_class = fold_trace_range(generator, schedule, config, 0,
                                     config.n_traces)
        serial = [accumulate_campaign_slice(generator, pair, config,
                                            class_index)
                  for class_index, pair in enumerate(schedule)]
        return config, per_class, serial

    @SETTINGS
    @given(boundaries=st.lists(st.integers(min_value=1, max_value=5),
                               unique=True, max_size=4))
    def test_any_partition_merges_to_the_serial_fold(self, chunk_partials,
                                                     boundaries):
        config, per_class, serial = chunk_partials
        cuts = [0] + sorted(boundaries) + [6]   # 6 chunks
        gate_names = tuple(f"g{i}" for i in range(serial[0][0].shape[0]))

        def merge(shard_results):
            return merge_shard_partials(shard_results, config, "arbiter",
                                        gate_names, 0.0, len(shard_results))

        # One class at a time, so every class's statistics are compared
        # (the aggregate keeps only the worst class per gate).
        for (chunks0, chunks1), (acc0, acc1) in zip(per_class, serial):
            merged = merge([[(chunks0[start:stop], chunks1[start:stop])]
                            for start, stop in zip(cuts, cuts[1:])])
            expected = merge([[([acc0], [acc1])]])
            assert merged.order_t_values.keys() \
                == expected.order_t_values.keys()
            for order in range(1, config.tvla_order + 1):
                assert np.array_equal(merged.t_values_for_order(order),
                                      expected.t_values_for_order(order))
            assert np.array_equal(merged.degrees_of_freedom,
                                  expected.degrees_of_freedom)


# ----------------------------------------------------------------------
# Frozen draws (golden byte-level regression)
# ----------------------------------------------------------------------
class TestSequenceGoldenDraws:
    """Traces are pinned byte-for-byte: the vectorised engine's counter
    draws (``generate(draws=...)``, the path every assessment takes) and
    the ``generate_loop`` oracle's sequential ``numpy.random.Generator``
    draws.  Any drift in the draw order, word over-allocation, table
    layout or noise synthesis breaks these hashes."""

    GOLDEN = {
        "fast/fixed":
            "338ccacd7f11214fd0f33f50f1e92349ee7d1444a865fdc5e3084a00943575bf",
        "fast/random":
            "9ac1cc90bb261f45cd5272be08dd9e1ab0ec0042a42dc71860852bda138475dc",
        "none/fixed":
            "02bda3792f2e6b5b82760616543aba13ea59a57c1ee8e60296bf1364e83b5a4c",
        "none/random":
            "4adca40dede628c9c67269ee00416fc3226509f8dfacaa7bbc8f073bd4712e4e",
        "loop/fast":
            "28055175a82ce6447664b666eb6f88c3983338ee4d13d96e63c75e918a3a77ba",
    }

    @staticmethod
    def _digest(traces) -> str:
        return hashlib.sha256(
            np.ascontiguousarray(traces.per_gate).tobytes()).hexdigest()

    @pytest.mark.parametrize("noise", ["fast", "none"])
    def test_vectorised_draws_frozen(self, masked_arbiter, noise):
        config = (PowerModelConfig(noise_sigma=0.0) if noise == "none"
                  else PowerModelConfig())
        generator = PowerTraceGenerator(masked_arbiter, config=config)
        fixed, random = fixed_vs_random_campaigns(masked_arbiter, 93, seed=2)
        for group, (label, campaign) in enumerate((("fixed", fixed),
                                                   ("random", random))):
            traces = generator.generate(
                campaign, draws=CounterDraws(42, 0, group, 0))
            assert self._digest(traces) == self.GOLDEN[f"{noise}/{label}"]

    def test_loop_draws_frozen(self, masked_arbiter):
        generator = PowerTraceGenerator(masked_arbiter,
                                        config=PowerModelConfig())
        campaign = fixed_vs_random_campaigns(masked_arbiter, 17, seed=3)[0]
        traces = generate_loop(generator, campaign,
                               rng=np.random.default_rng(9))
        assert self._digest(traces) == self.GOLDEN["loop/fast"]


# ----------------------------------------------------------------------
# Statistical smoke tests (slow: opt in with -m slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestStatisticalSmoke:
    def test_mask_byte_uniformity_chi_square(self):
        # 2**18 bytes over 256 bins; chi-square df=255.  The bound sits at
        # ~6 sigma above the mean — deterministic draws, so no flake risk.
        draws = CounterDraws(2024, 0, 0, 0)
        observed = np.bincount(
            draws.mask_bytes(0, 1, 1 << 18).reshape(-1), minlength=256)
        expected = (1 << 18) / 256
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < 255 + 6 * np.sqrt(2 * 255)

    def test_noise_popcount_matches_binomial(self):
        # noise_counts draws Binomial(16, 1/2) popcounts; chi-square over
        # the 17 support points, df=16.
        from math import comb
        n = 1 << 17
        observed = np.bincount(
            CounterDraws(7, 1, 0, 3).noise_counts((n,)), minlength=17)
        expected = np.array([comb(16, k) for k in range(17)],
                            dtype=np.float64) / 2 ** 16 * n
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < 16 + 6 * np.sqrt(2 * 16)

    def test_bit_balance_per_plane(self):
        # Every mask bit-plane is individually balanced: |p - 0.5| small.
        raw = CounterDraws(99, 2, 1, 5).mask_bytes(0, 1, 1 << 16).reshape(-1)
        ones = np.array([((raw >> bit) & 1).mean() for bit in range(8)])
        assert np.all(np.abs(ones - 0.5) < 0.01)

    def test_gauss_moments(self):
        sample = CounterDraws(5, 0, 0, 0).gauss((1 << 16,),
                                                dtype=np.float64)
        assert abs(float(sample.mean())) < 0.02
        assert abs(float(sample.var()) - 1.0) < 0.02
