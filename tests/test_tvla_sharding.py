"""Regression tests for sharded parallel TVLA campaigns.

The contract pinned down here is what makes sharding trustworthy:

* the campaign runner's shard path — every shard folded by
  ``fold_trace_range``, round-tripped through its checkpoint bytes and
  merged by ``merge_shard_partials`` — is bitwise equal to
  ``assess_leakage`` at any shard count, for every configured TVLA order;
* fixed seeds give bit-identical reruns;
* shard ranges are chunk-aligned, disjoint and cover the campaign;
* the serial counter driver, which runs one task per ``(class, group,
  chunk)`` in one forked process per extra CPU, is bitwise equal to the
  running fold and to every shard layout whatever its worker count, forks
  nothing on one CPU, and turns a failing chunk, a killed child or an
  exception that cannot be pickled into an error in the caller without
  leaving a child process behind.
"""

import os
import signal
import threading
import traceback
import warnings

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.power import CounterStream
from repro.tvla import assessment as tvla_assessment
from repro.tvla import (
    TvlaConfig,
    assess_leakage,
    campaign_schedule,
    shard_trace_ranges,
)
from repro.tvla.assessment import (
    ChunkWorkerError,
    aggregate_class_results,
    fold_trace_range,
    resolve_generator,
    results_from_accumulators,
)
from runner_shards import runner_shard_path

from oracles.assessment import accumulate_campaign_slice

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
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8], ids="serial-{}".format)
    def test_matches_unsharded_streaming(self, small_benchmark, sharded_config,
                                         n_shards):
        # The headline regression: the shard path the campaign runner runs,
        # checkpoint bytes included, is bitwise equal to assess_leakage at
        # every shard count.
        reference = assess_leakage(small_benchmark, sharded_config)
        sharded = runner_shard_path(small_benchmark, sharded_config, n_shards)
        assert _assessment_bits(sharded) == _assessment_bits(reference)
        assert sharded.gate_names == reference.gate_names
        assert sharded.n_shards == min(n_shards, 5)

    def test_serial_executor_matches(self, small_benchmark, sharded_config):
        # A shard count that does not divide the five chunks evenly.
        reference = assess_leakage(small_benchmark, sharded_config)
        sharded = runner_shard_path(small_benchmark, sharded_config, 3)
        assert _assessment_bits(sharded) == _assessment_bits(reference)
        assert sharded.n_shards == 3

    def test_higher_orders_through_shards(self, small_benchmark):
        for tvla_order in (2, 3):
            config = TvlaConfig(tvla_order=tvla_order, **SHARD_TVLA)
            expected = _assessment_bits(assess_leakage(small_benchmark,
                                                       config))
            for n_shards in (1, 2, 4, 8):
                sharded = runner_shard_path(small_benchmark, config, n_shards)
                assert _assessment_bits(sharded) == expected
                assert set(sharded.order_t_values) == \
                    set(range(2, tvla_order + 1))

    def test_fixed_seed_reruns_bit_identical(self, small_benchmark,
                                             sharded_config):
        runs = [runner_shard_path(small_benchmark, sharded_config, 4),
                runner_shard_path(small_benchmark, sharded_config, 4),
                assess_leakage(small_benchmark, sharded_config),
                assess_leakage(small_benchmark, sharded_config)]
        for other in runs[1:]:
            assert _assessment_bits(other) == _assessment_bits(runs[0])

    def test_shard_count_does_not_change_results(self, small_benchmark,
                                                 sharded_config):
        # Documented contract: for a given seed the verdict is independent
        # of the shard layout (chunk_traces fixed).
        by_shards = {n: runner_shard_path(small_benchmark, sharded_config, n)
                     for n in (1, 2, 5)}
        for n in (2, 5):
            assert np.array_equal(by_shards[n].t_values,
                                  by_shards[1].t_values)

    def test_numpy_integer_order_accepted(self, tiny_netlist):
        config = TvlaConfig(n_traces=100, n_fixed_classes=1, seed=1,
                            tvla_order=int(np.int64(2)))
        assert config.moment_order() == 4
        from repro.tvla import moment_order_for_tvla
        assert moment_order_for_tvla(np.int64(3)) == 6

    def test_in_process_path_honours_generator(self, small_benchmark,
                                               tiny_netlist, sharded_config):
        foreign = resolve_generator(tiny_netlist, sharded_config, None)
        with pytest.raises(ValueError, match="generator was built"):
            assess_leakage(small_benchmark, sharded_config,
                           generator=foreign)

    def test_invalid_shard_count_rejected(self, small_benchmark,
                                          sharded_config):
        # A campaign validates the shard layout it records in its spec.
        with pytest.raises(ValueError, match="n_shards"):
            CampaignSpec.from_netlist(small_benchmark, sharded_config,
                                      n_shards=0)

    def test_schedule_reuse(self, small_benchmark, sharded_config):
        schedule = campaign_schedule(small_benchmark, sharded_config)
        direct = assess_leakage(small_benchmark, sharded_config)
        reused = assess_leakage(small_benchmark, sharded_config,
                                campaigns=schedule)
        assert np.array_equal(direct.t_values, reused.t_values)

    def test_invalid_schedule_rejected(self, tiny_netlist, small_benchmark,
                                       sharded_config):
        foreign = campaign_schedule(small_benchmark, sharded_config)
        with pytest.raises(ValueError, match="primary inputs"):
            assess_leakage(tiny_netlist, sharded_config, campaigns=foreign)


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


def _recording_forks(monkeypatch):
    """Spy on ``os.fork``: the list it returns gathers the parent's view of
    every fork, the child's pid."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    """Every forked child has been waited for: none is left running or as
    a zombie."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _frames(error):
    """Function names on ``error``'s traceback."""
    return [frame.name for frame in traceback.extract_tb(error.__traceback__)]


def _run_with_timeout(call, timeout=60):
    """``call()``'s exception (or None) from a thread that must finish in
    ``timeout`` seconds: a lost child must not hang the caller."""
    outcome = []

    def run():
        try:
            call()
            outcome.append(None)
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=timeout)
    assert not caller.is_alive(), "the chunk driver hung"
    return outcome[0]


class TestParallelChunkDriver:
    #: (n_traces, chunk_traces): a short final chunk (600 = 4 x 128 + 88)
    #: and a single-chunk campaign.
    LAYOUTS = [(600, 128), (100, 128)]

    @pytest.mark.parametrize("n_traces,chunk_traces", LAYOUTS)
    @pytest.mark.parametrize("tvla_order", [1, 2, 3])
    def test_any_worker_count_bitwise_equals_fold_and_shards(
            self, small_benchmark, monkeypatch, tvla_order, n_traces,
            chunk_traces):
        config = TvlaConfig(n_traces=n_traces, chunk_traces=chunk_traces,
                            n_fixed_classes=2, seed=9,
                            tvla_order=tvla_order)
        references = [_running_fold(small_benchmark, config)] + [
            runner_shard_path(small_benchmark, config, n_shards)
            for n_shards in (1, 2, 4)]
        expected = _assessment_bits(references[0])
        assert all(_assessment_bits(reference) == expected
                   for reference in references[1:])
        # More workers than cores: task i folds in process i % workers and
        # the results must come back in task order.
        for workers in (1, 2, 3):
            monkeypatch.setattr(tvla_assessment, "_cpu_count",
                                lambda workers=workers: workers)
            driven = assess_leakage(small_benchmark, config)
            assert _assessment_bits(driven) == expected, workers
            assert set(driven.order_t_values) == \
                set(range(2, tvla_order + 1))

    def test_pool_sized_by_cpu_count(self, small_benchmark, sharded_config,
                                     monkeypatch):
        pids = _recording_forks(monkeypatch)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 3)
        assess_leakage(small_benchmark, sharded_config)
        assert len(pids) == 2
        _assert_reaped(pids)

    def test_one_cpu_creates_no_pool(self, small_benchmark, sharded_config,
                                     monkeypatch):
        def no_fork():
            raise AssertionError("a process was forked on one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 1)
        assess_leakage(small_benchmark, sharded_config)

    def test_no_fork_folds_inline(self, small_benchmark, sharded_config,
                                  monkeypatch):
        expected = _assessment_bits(assess_leakage(small_benchmark,
                                                   sharded_config))
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 4)
        driven = assess_leakage(small_benchmark, sharded_config)
        assert _assessment_bits(driven) == expected

    @staticmethod
    def _fail_chunk(monkeypatch, failing_chunk):
        """Make class 0, group 0, chunk ``failing_chunk`` raise.  That is
        task ``failing_chunk``: of two workers, the parent folds the even
        tasks and the child the odd ones."""
        fold_chunk = tvla_assessment._fold_chunk

        def failing(generator, campaign, config, stream, chunk_index,
                    first_chunk):
            if (stream.class_index, stream.group_index,
                    chunk_index) == (0, 0, failing_chunk):
                raise RuntimeError("chunk failed")
            return fold_chunk(generator, campaign, config, stream, chunk_index,
                              first_chunk)

        monkeypatch.setattr(tvla_assessment, "_fold_chunk", failing)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 2)

    def test_failing_chunk_propagates_without_leaking_threads(
            self, small_benchmark, sharded_config, monkeypatch):
        self._fail_chunk(monkeypatch, failing_chunk=1)
        pids = _recording_forks(monkeypatch)
        error = _run_with_timeout(
            lambda: assess_leakage(small_benchmark, sharded_config))
        assert isinstance(error, RuntimeError)
        assert str(error) == "chunk failed"
        # Unpickled in the parent, the child's error has lost its frames.
        assert "failing" not in _frames(error)
        assert len(pids) == 1
        _assert_reaped(pids)

    def test_failing_parent_share_reaps_children(
            self, small_benchmark, sharded_config, monkeypatch):
        self._fail_chunk(monkeypatch, failing_chunk=2)
        pids = _recording_forks(monkeypatch)
        error = _run_with_timeout(
            lambda: assess_leakage(small_benchmark, sharded_config))
        assert isinstance(error, RuntimeError)
        assert str(error) == "chunk failed"
        assert "failing" in _frames(error)
        assert len(pids) == 1
        _assert_reaped(pids)

    def test_killed_child_raises_typed_error(self, small_benchmark,
                                             sharded_config, monkeypatch):
        parent = os.getpid()
        fold_chunk = tvla_assessment._fold_chunk

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fold_chunk(*args)

        monkeypatch.setattr(tvla_assessment, "_fold_chunk", killed)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 2)
        pids = _recording_forks(monkeypatch)
        error = _run_with_timeout(
            lambda: assess_leakage(small_benchmark, sharded_config))
        assert isinstance(error, ChunkWorkerError)
        assert f"killed by signal {int(signal.SIGKILL)}" in str(error)
        _assert_reaped(pids)

    def test_unpicklable_chunk_error_raises_typed_error(
            self, small_benchmark, sharded_config, monkeypatch):
        class LocalError(Exception):
            """Defined in a function, so pickle cannot name it."""

        parent = os.getpid()
        fold_chunk = tvla_assessment._fold_chunk

        def failing(*args):
            if os.getpid() != parent:
                raise LocalError("cannot cross the pipe")
            return fold_chunk(*args)

        monkeypatch.setattr(tvla_assessment, "_fold_chunk", failing)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 2)
        pids = _recording_forks(monkeypatch)
        error = _run_with_timeout(
            lambda: assess_leakage(small_benchmark, sharded_config))
        assert isinstance(error, ChunkWorkerError)
        assert "cannot cross the pipe" in str(error)
        _assert_reaped(pids)

    def test_fork_silences_only_the_threads_warning(self, monkeypatch):
        def warning_fork(message):
            def fork():
                warnings.warn(message, DeprecationWarning, stacklevel=2)
                return 4242
            return fork

        monkeypatch.setattr(os, "fork", warning_fork(
            "This process (pid=42) is multi-threaded, use of fork() may "
            "lead to deadlocks in the child."))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tvla_assessment._fork() == 4242
        monkeypatch.setattr(os, "fork", warning_fork("another deprecation"))
        with pytest.warns(DeprecationWarning, match="another deprecation"):
            tvla_assessment._fork()

    def test_shard_task_folds_inline(self, small_benchmark, sharded_config,
                                     monkeypatch, tmp_path):
        """A campaign shard folds its range in its worker's own process:
        with several CPUs, ``assess_leakage`` forks but ``run_shard_task``
        does not (a chunk pool per shard measured slower and larger on the
        campaign benchmark)."""
        from repro.campaign.runner import run_shard_task, submit_campaign

        pids = _recording_forks(monkeypatch)
        monkeypatch.setattr(tvla_assessment, "_cpu_count", lambda: 4)
        assess_leakage(small_benchmark, sharded_config)
        assert len(pids) == 3
        pids.clear()
        outcome = submit_campaign(tmp_path, netlist=small_benchmark,
                                  config=sharded_config, n_shards=2)
        result = run_shard_task(str(tmp_path), outcome.spec_hash, 0)
        assert result["skipped"] is False
        assert pids == []


class TestChunkAccumulatorFootprint:
    def test_per_chunk_accumulators_hold_no_scratch(self, small_benchmark):
        """Order-3 per-chunk accumulators keep only their mean and central
        sums alive until the merge, not chunk-sized work buffers."""
        config = TvlaConfig(n_traces=600, chunk_traces=128, n_fixed_classes=1,
                            seed=9, tvla_order=3)
        generator = resolve_generator(small_benchmark, config, None)
        schedule = campaign_schedule(small_benchmark, config)
        [(chunks0, chunks1)] = fold_trace_range(generator, schedule, config,
                                                0, config.n_traces)
        limit = (config.moment_order() + 1) * generator.n_gates * 8
        for accumulator in chunks0 + chunks1:
            held = 0
            for value in vars(accumulator).values():
                arrays = value if isinstance(value, (list, tuple)) else [value]
                held += sum(array.nbytes for array in arrays
                            if isinstance(array, np.ndarray))
            assert held <= limit
