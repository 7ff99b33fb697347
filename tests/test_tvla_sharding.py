"""Regression tests for sharded parallel TVLA campaigns.

The contract pinned down here is what makes sharding trustworthy:

* sharded assessments (any shard count; in process with ``executor=None``
  or shipped to a caller's thread or process pool) are bitwise equal to the
  unsharded streaming path, for every configured TVLA order;
* fixed seeds give bit-identical reruns, independent of the executor;
* shard ranges are chunk-aligned, disjoint and cover the campaign;
* ``assess_many`` returns exactly what per-design sharded assessments
  return;
* the serial counter driver, which runs one task per ``(class, group,
  chunk)`` on every CPU, is bitwise equal to the running fold and to every
  shard layout whatever its worker count, creates no pool on one CPU and
  propagates a failing chunk without leaving pool threads behind.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.masking import apply_masking, maskable_gates
from repro.power import CounterStream
from repro.tvla import assessment as tvla_assessment
from repro.tvla import (
    TvlaConfig,
    assess_leakage,
    assess_leakage_sharded,
    assess_many,
    campaign_schedule,
    shard_trace_ranges,
)
from repro.tvla.assessment import (
    accumulate_campaign_chunks,
    accumulate_campaign_slice,
    aggregate_class_results,
    resolve_generator,
    results_from_accumulators,
)

#: Small-but-chunked campaign: 600 traces in 128-trace chunks -> 5 chunks.
SHARD_TVLA = dict(n_traces=600, n_fixed_classes=2, seed=9, chunk_traces=128)


@pytest.fixture(scope="module")
def sharded_config() -> TvlaConfig:
    return TvlaConfig(**SHARD_TVLA)


class TestShardRanges:
    @pytest.mark.parametrize("n_traces,n_shards,chunk", [
        (600, 4, 128), (600, 8, 128), (100, 3, 100), (2048, 2, 512),
        (1, 1, 1), (999, 7, 64),
    ])
    def test_cover_disjoint_chunk_aligned(self, n_traces, n_shards, chunk):
        ranges = shard_trace_ranges(n_traces, n_shards, chunk)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_traces
        for (start, stop), (next_start, _) in zip(ranges, ranges[1:]):
            assert stop == next_start
        for start, stop in ranges:
            assert stop > start
            assert start % chunk == 0

    def test_shards_capped_at_chunk_count(self):
        # 5 chunks cannot feed 8 shards; surplus shards are dropped rather
        # than returned empty.
        assert len(shard_trace_ranges(600, 8, 128)) == 5

    def test_even_distribution(self):
        ranges = shard_trace_ranges(2048, 4, 256)
        assert [stop - start for start, stop in ranges] == [512] * 4

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            shard_trace_ranges(0, 1, 1)
        with pytest.raises(ValueError):
            shard_trace_ranges(10, 0, 1)
        with pytest.raises(ValueError):
            shard_trace_ranges(10, 1, 0)


def _chunk_noise(seed, class_index, group_index, chunk_index):
    draws = CounterStream(seed, class_index, group_index).draws(chunk_index)
    return draws.noise_counts((16,)).tolist()


class TestSeedStreams:
    def test_streams_are_layout_independent(self):
        # The draws of chunk k are a pure function of (seed, class, group,
        # k): reading the chunks in any order, from any stream object,
        # gives the same bits.
        forward = [_chunk_noise(7, 1, 0, k) for k in range(10)]
        backward = [_chunk_noise(7, 1, 0, k) for k in reversed(range(10))]
        assert forward == backward[::-1]

    def test_streams_differ_across_axes(self):
        base = _chunk_noise(7, 0, 0, 0)
        assert _chunk_noise(8, 0, 0, 0) != base
        assert _chunk_noise(7, 1, 0, 0) != base
        assert _chunk_noise(7, 0, 1, 0) != base
        assert _chunk_noise(7, 0, 0, 1) != base


def _assessment_bits(assessment):
    """Every reported statistic of an assessment, as raw bytes."""
    return (assessment.t_values.tobytes(), assessment.mean_abs_t.tobytes(),
            assessment.degrees_of_freedom.tobytes(),
            {order: values.tobytes()
             for order, values in assessment.order_t_values.items()})


class TestShardedRegression:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_matches_unsharded_streaming(self, small_benchmark, sharded_config,
                                         executors, n_shards, executor):
        # The headline regression: sharded == unsharded bitwise, in
        # process, through a caller's thread pool and through the pickle
        # seam, at every shard count.
        reference = assess_leakage(small_benchmark, sharded_config)
        sharded = assess_leakage_sharded(small_benchmark, sharded_config,
                                         n_shards=n_shards,
                                         executor=executors[executor])
        assert _assessment_bits(sharded) == _assessment_bits(reference)
        assert sharded.gate_names == reference.gate_names
        assert sharded.n_shards == min(n_shards, 5)

    def test_serial_executor_matches(self, small_benchmark, sharded_config):
        reference = assess_leakage(small_benchmark, sharded_config)
        sharded = assess_leakage_sharded(small_benchmark, sharded_config,
                                         n_shards=3)
        assert _assessment_bits(sharded) == _assessment_bits(reference)
        assert sharded.n_shards == 3

    def test_fixed_seed_reruns_bit_identical(self, small_benchmark,
                                             sharded_config, process_pool):
        runs = [
            assess_leakage_sharded(small_benchmark, sharded_config,
                                   n_shards=4, executor=executor)
            for executor in (None, None, process_pool, process_pool)
        ]
        for other in runs[1:]:
            assert _assessment_bits(other) == _assessment_bits(runs[0])

    def test_shard_count_does_not_change_results(self, small_benchmark,
                                                 sharded_config):
        # Documented contract: for a given seed the verdict is independent
        # of the shard layout (chunk_traces fixed).
        by_shards = {
            n: assess_leakage_sharded(small_benchmark, sharded_config,
                                      n_shards=n)
            for n in (1, 2, 5)
        }
        for n in (2, 5):
            assert np.array_equal(by_shards[n].t_values,
                                  by_shards[1].t_values)

    def test_higher_orders_through_shards(self, small_benchmark,
                                          process_pool):
        config = TvlaConfig(tvla_order=3, **SHARD_TVLA)
        expected = _assessment_bits(assess_leakage(small_benchmark, config))
        for executor in (None, process_pool):
            for n_shards in (1, 2, 4, 8):
                sharded = assess_leakage_sharded(small_benchmark, config,
                                                 n_shards=n_shards,
                                                 executor=executor)
                assert _assessment_bits(sharded) == expected
                assert set(sharded.order_t_values) == {2, 3}

    def test_numpy_integer_order_accepted(self, tiny_netlist):
        config = TvlaConfig(n_traces=100, n_fixed_classes=1, seed=1,
                            tvla_order=int(np.int64(2)))
        assert config.moment_order() == 4
        from repro.tvla import moment_order_for_tvla
        assert moment_order_for_tvla(np.int64(3)) == 6

    def test_executor_instance_is_pluggable(self, small_benchmark,
                                            sharded_config, monkeypatch):
        # Any caller executor, even a thread pool, takes the shipped path:
        # one _shard_moments_rebuilt task per shard.
        from repro.tvla import sharding

        rebuilt = sharding._shard_moments_rebuilt
        calls = []

        def spy(*args):
            calls.append(args[-1])
            return rebuilt(*args)

        monkeypatch.setattr(sharding, "_shard_moments_rebuilt", spy)
        reference = assess_leakage(small_benchmark, sharded_config)
        with ThreadPoolExecutor(max_workers=2) as pool:
            sharded = assess_leakage_sharded(small_benchmark, sharded_config,
                                             n_shards=2, executor=pool)
            assert not pool._shutdown  # the caller owns its lifecycle
        assert _assessment_bits(sharded) == _assessment_bits(reference)
        assert sorted(calls) == [0, 3]  # first chunk of each 3/2 shard

    def test_generator_with_executor_rejected(self, small_benchmark,
                                              sharded_config):
        # Shipped shards rebuild their own generator; a caller's would be
        # silently ignored, so the combination fails before any work.
        generator = resolve_generator(small_benchmark, sharded_config, None)
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ValueError, match="generator="):
                assess_leakage_sharded(small_benchmark, sharded_config,
                                       executor=pool, generator=generator)

    def test_in_process_path_honours_generator(self, small_benchmark,
                                               tiny_netlist, sharded_config):
        foreign = resolve_generator(tiny_netlist, sharded_config, None)
        with pytest.raises(ValueError, match="generator was built"):
            assess_leakage_sharded(small_benchmark, sharded_config,
                                   generator=foreign)

    def test_invalid_shard_count_rejected(self, small_benchmark,
                                          sharded_config):
        # executor=None validates the layout it records, like the
        # shipped path.
        with pytest.raises(ValueError, match="n_shards"):
            assess_leakage_sharded(small_benchmark, sharded_config,
                                   n_shards=0)

    def test_schedule_reuse(self, small_benchmark, sharded_config):
        schedule = campaign_schedule(small_benchmark, sharded_config)
        direct = assess_leakage_sharded(small_benchmark, sharded_config,
                                        n_shards=2)
        reused = assess_leakage_sharded(small_benchmark, sharded_config,
                                        n_shards=2, campaigns=schedule)
        assert np.array_equal(direct.t_values, reused.t_values)

    def test_invalid_schedule_rejected(self, tiny_netlist, small_benchmark,
                                       sharded_config):
        foreign = campaign_schedule(small_benchmark, sharded_config)
        with pytest.raises(ValueError, match="primary inputs"):
            assess_leakage_sharded(tiny_netlist, sharded_config,
                                   campaigns=foreign)


class TestAssessMany:
    def test_matches_per_design_sharded(self, small_benchmark, sharded_config,
                                        process_pool):
        masked = apply_masking(small_benchmark,
                               maskable_gates(small_benchmark)).netlist
        results = assess_many([small_benchmark, masked], sharded_config,
                              n_shards=2, executor=process_pool)
        assert list(results) == [small_benchmark.name, masked.name]
        for netlist in (small_benchmark, masked):
            single = assess_leakage_sharded(netlist, sharded_config,
                                            n_shards=2)
            assert _assessment_bits(results[netlist.name]) == \
                _assessment_bits(single)

    def test_masked_design_improves(self, small_benchmark, sharded_config):
        masked = apply_masking(small_benchmark,
                               maskable_gates(small_benchmark)).netlist
        results = assess_many([small_benchmark, masked], sharded_config,
                              n_shards=2)
        assert results[masked.name].mean_leakage < \
            results[small_benchmark.name].mean_leakage

    def test_duplicate_names_rejected(self, small_benchmark, sharded_config):
        with pytest.raises(ValueError, match="duplicate"):
            assess_many([small_benchmark, small_benchmark], sharded_config)


def _running_fold(netlist, config):
    """``accumulate_campaign_slice``'s one running accumulator per group,
    aggregated exactly as the drivers aggregate."""
    generator = resolve_generator(netlist, config, None)
    class_results = []
    for class_index, pair in enumerate(campaign_schedule(netlist, config)):
        acc0, acc1 = accumulate_campaign_slice(generator, pair, config,
                                               class_index)
        class_results.append(results_from_accumulators(acc0, acc1, config))
    return aggregate_class_results(class_results, netlist.name,
                                   generator.gate_names, config, 0.0)


class TestParallelChunkDriver:
    #: (n_traces, chunk_traces): a short final chunk (600 = 4 x 128 + 88)
    #: and a single-chunk campaign.
    LAYOUTS = [(600, 128), (100, 128)]

    @pytest.mark.parametrize("n_traces,chunk_traces", LAYOUTS)
    @pytest.mark.parametrize("tvla_order", [1, 2, 3])
    def test_any_worker_count_bitwise_equals_fold_and_shards(
            self, small_benchmark, process_pool, monkeypatch, tvla_order,
            n_traces, chunk_traces):
        config = TvlaConfig(n_traces=n_traces, chunk_traces=chunk_traces,
                            n_fixed_classes=2, seed=9,
                            tvla_order=tvla_order)
        references = [_running_fold(small_benchmark, config)] + [
            assess_leakage_sharded(small_benchmark, config, n_shards=n_shards,
                                   executor=process_pool)
            for n_shards in (1, 2, 4)]
        expected = _assessment_bits(references[0])
        assert all(_assessment_bits(reference) == expected
                   for reference in references[1:])
        # More workers than cores, switching threads as often as possible:
        # a race on the shared generator would break bitwise equality.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(tvla_assessment, "_cpu_count",
                                    lambda workers=workers: workers)
                driven = assess_leakage(small_benchmark, config)
                assert _assessment_bits(driven) == expected, workers
                assert set(driven.order_t_values) == \
                    set(range(2, tvla_order + 1))
        finally:
            sys.setswitchinterval(interval)

    def test_pool_sized_by_cpu_count(self, small_benchmark, sharded_config,
                                     monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(tvla_assessment, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 3)
        assess_leakage(small_benchmark, sharded_config)
        assert sizes == [3]

    def test_one_cpu_creates_no_pool(self, small_benchmark, sharded_config,
                                     monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created on one CPU")

        monkeypatch.setattr(tvla_assessment, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 1)
        assess_leakage(small_benchmark, sharded_config)

    def test_failing_chunk_propagates_without_leaking_threads(
            self, small_benchmark, sharded_config, monkeypatch):
        fold_chunk = tvla_assessment._fold_chunk

        def failing(generator, campaign, config, stream, chunk_index):
            if stream.class_index == 1 and chunk_index == 2:
                raise RuntimeError("chunk failed")
            return fold_chunk(generator, campaign, config, stream, chunk_index)

        monkeypatch.setattr(tvla_assessment, "_fold_chunk", failing)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 2)
        outcome = []

        def run():
            try:
                assess_leakage(small_benchmark, sharded_config)
            except RuntimeError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the failing campaign hung"
        assert [str(exc) for exc in outcome] == ["chunk failed"]
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("tvla-chunk")]


class TestChunkAccumulatorFootprint:
    def test_per_chunk_accumulators_hold_no_scratch(self, small_benchmark):
        """Order-3 per-chunk accumulators keep only their mean and central
        sums alive until the merge, not chunk-sized work buffers."""
        config = TvlaConfig(n_traces=600, chunk_traces=128, n_fixed_classes=1,
                            seed=9, tvla_order=3)
        generator = resolve_generator(small_benchmark, config, None)
        pair = campaign_schedule(small_benchmark, config)[0]
        chunks0, chunks1 = accumulate_campaign_chunks(generator, pair, config,
                                                      0)
        limit = (config.moment_order() + 1) * generator.n_gates * 8
        for accumulator in chunks0 + chunks1:
            held = 0
            for value in vars(accumulator).values():
                arrays = value if isinstance(value, (list, tuple)) else [value]
                held += sum(array.nbytes for array in arrays
                            if isinstance(array, np.ndarray))
            assert held <= limit
