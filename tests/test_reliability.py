"""Tests for the fault-injection framework (`repro.reliability`).

The contracts pinned here:

* a :class:`FaultPlan` is **deterministic**: whether the *k*-th
  evaluation of a site fires is a pure Philox function of
  ``(seed, site, k)`` — two plan instances replay identical faults;
* the shared :class:`RetryPolicy` backs off deterministically and keeps
  its best-effort / reraise semantics straight;
* atomic publication fsyncs the data *and* the directory entry, and a
  fault-injected torn write is detected, quarantined and requeued —
  the healed campaign is **bitwise equal** to an uninjected one;
* ``collect_result(allow_partial=True)`` degrades a poisoned campaign
  to the surviving shards (never stored) instead of raising;
* transient queue faults at claim/ack are absorbed by the worker loop
  and the outcome retry policy;
* a follow stream survives a server restart mid-campaign
  (reconnect + re-subscribe + dedupe) and a chaos plan spanning four
  fault domains — worker kill, checkpoint corruption, queue errors, a
  severed watch connection — still converges bitwise to the clean run.
"""

from __future__ import annotations

import asyncio
import json
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignError,
    CampaignPaths,
    TaskQueue,
    campaign_queue,
    campaign_status,
    collect_result,
    run_campaign,
    run_worker,
    submit_campaign,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.runner import campaign_store, verified_checkpoint
from repro.campaign.serialize import decode_array
from repro.campaign.spec import CampaignSpec
from repro.netlist.benchmarks import load_benchmark
from repro.reliability import (
    CheckpointCorruptError,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_plan,
    atomic_write_bytes,
    checkpoint_ok,
    load_checkpoint,
    publish_exclusive,
    quarantine_checkpoint,
    seal_checkpoint,
    set_fault_plan,
    unseal_checkpoint,
)
from repro.service import (
    AssessmentService,
    CampaignComplete,
    CampaignProgress,
    ServiceClient,
    ServiceError,
)
from repro.tvla import TvlaConfig

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: 240 traces in 48-trace chunks -> 5 chunks; 3 shards split 2/2/1.
RELIABILITY_TVLA = dict(n_traces=240, n_fixed_classes=2, seed=7,
                        chunk_traces=48)


@pytest.fixture(autouse=True)
def _clear_fault_plan():
    """Every test leaves the process with no fault-plan override."""
    yield
    set_fault_plan(None)


def _config() -> TvlaConfig:
    return TvlaConfig(**RELIABILITY_TVLA)


def _assert_bitwise_equal(left, right):
    assert np.array_equal(left.t_values, right.t_values)
    assert np.array_equal(left.degrees_of_freedom,
                          right.degrees_of_freedom)
    for order, values in left.order_t_values.items():
        assert np.array_equal(values, right.order_t_values[order])


# ----------------------------------------------------------------------
# FaultPlan grammar
# ----------------------------------------------------------------------
class TestFaultPlanGrammar:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "seed=42;checkpoint.write:mode=corrupt,max=1;"
            "queue.ack:mode=error,p=0.5;"
            "worker.shard:mode=delay,delay=0.25,after=2")
        assert plan.seed == 42
        assert [r.site for r in plan.rules] == [
            "checkpoint.write", "queue.ack", "worker.shard"]
        assert plan.rules[0].mode == "corrupt"
        assert plan.rules[0].max_count == 1
        assert plan.rules[1].p == 0.5
        assert plan.rules[2].delay == 0.25
        assert plan.rules[2].after == 2

    def test_round_trip_through_text(self):
        text = ("seed=9;checkpoint.write:mode=truncate,max=2;"
                "service.send:mode=drop,p=0.25,after=1")
        plan = FaultPlan.parse(text)
        again = FaultPlan.parse(plan.to_text())
        assert again.seed == plan.seed
        assert again.rules == plan.rules

    def test_empty_and_whitespace_tokens_are_ignored(self):
        plan = FaultPlan.parse(";; seed=3 ;queue.claim:mode=error; ")
        assert plan.seed == 3
        assert len(plan.rules) == 1

    def test_unknown_site_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("nope.where:mode=error")

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultPlan.parse("queue.ack:mode=explode")

    def test_missing_mode_is_rejected(self):
        with pytest.raises(ValueError, match="missing 'mode='"):
            FaultPlan.parse("queue.ack:p=0.5")

    def test_malformed_rule_is_rejected(self):
        with pytest.raises(ValueError, match="malformed fault rule"):
            FaultPlan.parse("just-a-word")
        with pytest.raises(ValueError, match="unknown option"):
            FaultPlan.parse("queue.ack:mode=error,bogus=1")

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="queue.ack", mode="error", p=1.5)
        with pytest.raises(ValueError, match="max fire count"):
            FaultRule(site="queue.ack", mode="error", max_count=-1)
        with pytest.raises(ValueError, match="delay"):
            FaultRule(site="worker.shard", mode="delay", delay=-1.0)


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------
class TestFaultPlanDeterminism:
    def test_probabilistic_rule_replays_identically(self):
        text = "seed=11;queue.ack:mode=error,p=0.5"
        plan_a, plan_b = FaultPlan.parse(text), FaultPlan.parse(text)
        seq_a = [plan_a.evaluate("queue.ack") is not None
                 for _ in range(64)]
        seq_b = [plan_b.evaluate("queue.ack") is not None
                 for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)  # p=0.5 really is partial

    def test_different_seeds_draw_different_streams(self):
        seq = {}
        for seed in (1, 2):
            plan = FaultPlan.parse(f"seed={seed};queue.ack:mode=error,p=0.5")
            seq[seed] = tuple(plan.evaluate("queue.ack") is not None
                              for _ in range(64))
        assert seq[1] != seq[2]

    def test_max_count_bounds_total_fires(self):
        plan = FaultPlan.parse("checkpoint.write:mode=corrupt,max=2")
        fired = [plan.evaluate("checkpoint.write") is not None
                 for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_after_skips_leading_evaluations(self):
        plan = FaultPlan.parse("queue.claim:mode=error,after=2")
        fired = [plan.evaluate("queue.claim") is not None
                 for _ in range(4)]
        assert fired == [False, False, True, True]

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.parse(
            "checkpoint.write:mode=truncate,max=1;"
            "checkpoint.write:mode=corrupt")
        assert plan.evaluate("checkpoint.write").mode == "truncate"
        assert plan.evaluate("checkpoint.write").mode == "corrupt"

    def test_sites_keep_independent_counters(self):
        plan = FaultPlan.parse(
            "queue.ack:mode=error,max=1;queue.claim:mode=error,max=1")
        for _ in range(3):
            plan.evaluate("queue.ack")
        # queue.claim's own counter is untouched: its rule still fires.
        assert plan.evaluate("queue.claim") is not None


# ----------------------------------------------------------------------
# Environment activation
# ----------------------------------------------------------------------
class TestEnvActivation:
    def test_no_env_no_plan(self, monkeypatch):
        monkeypatch.delenv("POLARIS_FAULT_PLAN", raising=False)
        assert active_plan() is None

    def test_env_plan_is_parsed_and_cached(self, monkeypatch):
        monkeypatch.setenv("POLARIS_FAULT_PLAN",
                           "seed=5;queue.ack:mode=error,max=1")
        plan = active_plan()
        assert plan.seed == 5
        # Same env -> same instance, so fire counters persist.
        assert active_plan() is plan
        assert plan.evaluate("queue.ack") is not None
        assert active_plan().evaluate("queue.ack") is None  # max spent

    def test_env_shard_delay_plan_parses_to_a_rule(self, monkeypatch):
        monkeypatch.setenv("POLARIS_FAULT_PLAN",
                           "worker.shard:mode=delay,delay=0.125")
        (rule,) = active_plan().rules
        assert rule.site == "worker.shard"
        assert rule.mode == "delay"
        assert rule.delay == pytest.approx(0.125)

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("POLARIS_FAULT_PLAN", "queue.ack:mode=error")
        override = FaultPlan.parse("queue.claim:mode=error")
        set_fault_plan(override)
        assert active_plan() is override
        set_fault_plan(None)
        assert active_plan().rules[0].site == "queue.ack"

    def test_bad_cli_fault_plan_is_a_usage_error(self, tmp_path, capsys):
        code = cli_main(["work", "--root", str(tmp_path),
                        "--fault-plan", "bogus:mode=explode"])
        assert code == 2
        assert "bad --fault-plan" in capsys.readouterr().err


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=0.8,
                             multiplier=2.0, jitter=0.25, seed=3)
        again = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=0.8,
                            multiplier=2.0, jitter=0.25, seed=3)
        for attempt in range(6):
            delay = policy.delay(attempt)
            base = min(0.1 * 2.0 ** attempt, 0.8)
            assert base <= delay <= base * 1.25
            assert delay == again.delay(attempt)

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=1.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.2)

    def test_call_retries_until_success(self):
        attempts = []
        sleeps = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.0)
        assert policy.call(flaky, retry_on=OSError,
                           sleep=sleeps.append) == "ok"
        assert len(attempts) == 3
        assert sleeps == [policy.delay(0), policy.delay(1)]

    def test_exhausted_retries_reraise_the_last_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        calls = []
        with pytest.raises(OSError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("always")),
                        retry_on=OSError, sleep=calls.append)
        assert len(calls) == 2  # no sleep after the final attempt

    def test_reraise_false_swallows_and_returns_none(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        seen = []

        def doomed():
            raise OSError("nope")

        result = policy.call(doomed, retry_on=OSError, reraise=False,
                             sleep=lambda _: None,
                             on_retry=lambda k, e: seen.append(k))
        assert result is None
        assert seen == [0, 1]  # on_retry fires for the final attempt too

    def test_unlisted_exceptions_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        calls = []

        def wrong():
            calls.append(True)
            raise TypeError("not transient")

        with pytest.raises(TypeError):
            policy.call(wrong, retry_on=OSError)
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


# ----------------------------------------------------------------------
# Atomic publication
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_publishes_and_fsyncs_file_and_directory(self, tmp_path,
                                                           monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        target = tmp_path / "deep" / "nested" / "blob.bin"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"
        # At least one file fsync (before the rename) and one directory
        # fsync (after it) — the part ad-hoc implementations forget.
        assert False in synced and True in synced
        assert synced.index(False) < synced.index(True)
        # No temp droppings left behind.
        assert [p.name for p in target.parent.iterdir()] == ["blob.bin"]

    def test_overwrite_replaces_content(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"

    def test_publish_exclusive_first_writer_wins(self, tmp_path):
        target = tmp_path / "store" / "object.json"
        assert publish_exclusive(target, b"first") is True
        assert publish_exclusive(target, b"second") is False
        assert target.read_bytes() == b"first"
        assert [p.name for p in target.parent.iterdir()] == ["object.json"]

    def test_fault_injected_truncation_is_detectable(self, tmp_path):
        # A torn write through the checkpoint.write site: the sealed file
        # loses its trailer and fails verification at read time.
        set_fault_plan(FaultPlan.parse(
            "checkpoint.write:mode=truncate,max=1"))
        payload = b"not-a-shard-payload " * 8
        target = tmp_path / "shard_0000.moments"
        atomic_write_bytes(target, seal_checkpoint(payload),
                           fault_site="checkpoint.write")
        assert len(target.read_bytes()) < len(seal_checkpoint(payload))
        assert not checkpoint_ok(target)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(target)
        # The fault budget is spent: the rewrite lands intact.
        atomic_write_bytes(target, seal_checkpoint(payload),
                           fault_site="checkpoint.write")
        assert load_checkpoint(target) == payload

    def test_fault_injected_write_error_leaves_no_file(self, tmp_path):
        set_fault_plan(FaultPlan.parse("store.write:mode=error,max=1"))
        target = tmp_path / "object.json"
        with pytest.raises(OSError, match="injected fault"):
            atomic_write_bytes(target, b"data", fault_site="store.write")
        assert not target.exists()


# ----------------------------------------------------------------------
# Checkpoint sealing / quarantine
# ----------------------------------------------------------------------
class TestCheckpointSeal:
    def test_seal_unseal_round_trip(self):
        payload = b"SHM2" + bytes(range(64))
        assert unseal_checkpoint(seal_checkpoint(payload)) == payload

    def test_tampered_byte_is_detected(self):
        sealed = bytearray(seal_checkpoint(b"SHM2" + bytes(100)))
        sealed[10] ^= 0xFF
        with pytest.raises(CheckpointCorruptError, match="digest"):
            unseal_checkpoint(bytes(sealed))

    def test_unsealed_payloads_are_rejected(self):
        # A payload that starts with the shard-moments magic but carries
        # no seal is not trusted: only sealed checkpoints load.
        with pytest.raises(CheckpointCorruptError, match="no seal trailer"):
            unseal_checkpoint(b"SHM2" + bytes(32))

    def test_foreign_bytes_are_rejected(self):
        with pytest.raises(CheckpointCorruptError, match="no seal trailer"):
            unseal_checkpoint(b"random junk that is not a checkpoint")

    def test_quarantine_renames_and_never_clobbers(self, tmp_path):
        path = tmp_path / "shard_0001.moments"
        path.write_bytes(b"bad one")
        first = quarantine_checkpoint(path)
        assert first.name == "shard_0001.moments.corrupt"
        assert first.read_bytes() == b"bad one"
        assert not path.exists()
        path.write_bytes(b"bad two")
        second = quarantine_checkpoint(path)
        assert second.name == "shard_0001.moments.corrupt1"
        assert first.read_bytes() == b"bad one"  # post-mortem preserved


# ----------------------------------------------------------------------
# Campaign-level hardening
# ----------------------------------------------------------------------
class TestCampaignHardening:
    def test_corrupt_checkpoint_quarantined_requeued_bitwise(
            self, small_benchmark, tmp_path):
        """The tentpole scenario: a seeded plan corrupts one checkpoint
        mid-campaign; collection quarantines it, requeues the shard, and
        the healed result is bitwise equal to an uninjected campaign."""
        config = _config()
        root = tmp_path / "faulted"
        set_fault_plan(FaultPlan.parse(
            "seed=42;checkpoint.write:mode=corrupt,max=1"))
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=3)
        queue = campaign_queue(root)
        run_worker(queue, drain=True)
        paths = CampaignPaths(root, outcome.spec_hash)
        shards_dir = paths.shard_path(0).parent
        # All three checkpoints exist, but one is silently corrupt.
        assert sorted(p.name for p in shards_dir.iterdir()) == [
            "shard_0000.moments", "shard_0001.moments",
            "shard_0002.moments"]
        # Collection detects it: quarantine + requeue, then wait for the
        # recompute (which never comes yet) until the timeout trips.
        with pytest.raises(TimeoutError):
            collect_result(root, outcome.spec_hash, timeout=0.6)
        corrupt = [p.name for p in shards_dir.iterdir()
                   if ".corrupt" in p.name]
        assert len(corrupt) == 1
        assert queue.counts()["pending"] == 1  # the requeued shard
        # A worker heals it (the plan's fault budget is already spent).
        run_worker(queue, drain=True)
        healed = collect_result(root, outcome.spec_hash, timeout=60)
        clean = run_campaign(tmp_path / "clean", small_benchmark, config,
                             n_shards=3, n_workers=1)
        _assert_bitwise_equal(healed, clean)

    def test_stripped_and_edited_checkpoint_is_recomputed(
            self, small_benchmark, tmp_path):
        """A checkpoint whose seal was stripped and whose payload was then
        edited (one float byte flipped) is quarantined, not merged:
        collection requeues the shard, a worker recomputes it, and the
        result is bitwise equal to an undisturbed campaign."""
        config = _config()
        root = tmp_path / "runs"
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=2)
        run_worker(campaign_queue(root), drain=True)
        shard_path = CampaignPaths(root, outcome.spec_hash).shard_path(0)
        payload = bytearray(load_checkpoint(shard_path))
        payload[-1] ^= 0x40  # exponent byte of the payload's last float64
        shard_path.write_bytes(bytes(payload))
        stop = threading.Event()
        healer = threading.Thread(
            target=run_worker,
            kwargs=dict(queue=campaign_queue(root), worker="healer",
                        stop_event=stop))
        healer.start()
        try:
            healed = collect_result(root, outcome.spec_hash, timeout=60)
        finally:
            stop.set()
            healer.join(30)
        clean = run_campaign(tmp_path / "clean", small_benchmark, config,
                             n_shards=2)
        _assert_bitwise_equal(healed, clean)
        assert np.array_equal(healed.mean_abs_t, clean.mean_abs_t)
        assert (shard_path.parent / "shard_0000.moments.corrupt").exists()

    def test_skip_path_quarantines_and_recomputes(self, small_benchmark,
                                                  tmp_path):
        # A corrupt checkpoint is also healed when the *worker* trips over
        # it on redelivery (the skip-path check).
        config = _config()
        root = tmp_path / "runs"
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=3)
        queue = campaign_queue(root)
        run_worker(queue, drain=True)
        paths = CampaignPaths(root, outcome.spec_hash)
        shard_path = paths.shard_path(1)
        good = shard_path.read_bytes()
        shard_path.write_bytes(good[:len(good) // 3])  # torn write
        # Redeliver the shard: the worker quarantines and recomputes.
        from repro.campaign.runner import run_shard_task
        import pickle
        task = pickle.dumps(
            (run_shard_task, (str(root), outcome.spec_hash, 1), {}),
            protocol=pickle.HIGHEST_PROTOCOL)
        queue.put(task, key=paths.shard_key(1), requeue_done=True)
        run_worker(queue, drain=True)
        assert shard_path.read_bytes() == good  # bitwise republish
        assert (shard_path.parent / "shard_0001.moments.corrupt").exists()

    def test_allow_partial_degrades_instead_of_raising(
            self, small_benchmark, tmp_path):
        config = _config()
        root = tmp_path / "poisoned"
        # Shard 0's three attempts all fail (single worker claims in id
        # order: the same task is retried until its budget is spent);
        # shard 1 then completes normally.
        set_fault_plan(FaultPlan.parse("worker.shard:mode=error,max=3"))
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=2)
        queue = campaign_queue(root)
        run_worker(queue, drain=True)
        status = campaign_status(root, outcome.spec_hash)
        assert status.failed_shards == (0,)
        assert status.n_shards_done == 1
        with pytest.raises(CampaignError, match="exhausted its retries"):
            collect_result(root, outcome.spec_hash, timeout=5)
        degraded = collect_result(root, outcome.spec_hash, timeout=5,
                                  allow_partial=True)
        assert degraded.failed_shards == (0,)
        assert degraded.n_traces == config.n_traces
        # Degraded results are never cached in the store.
        assert campaign_store(root).get(outcome.spec_hash) is None

    def test_allow_partial_with_no_survivors_still_raises(
            self, small_benchmark, tmp_path):
        config = _config()
        root = tmp_path / "hopeless"
        set_fault_plan(FaultPlan.parse("worker.shard:mode=error"))
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=2)
        run_worker(campaign_queue(root), drain=True)
        with pytest.raises(CampaignError):
            collect_result(root, outcome.spec_hash, timeout=5,
                           allow_partial=True)

    def test_transient_queue_faults_are_absorbed(self, small_benchmark,
                                                 tmp_path):
        # claim errors bounce off the worker loop; ack errors are retried
        # by the shared outcome policy — the campaign still completes.
        config = _config()
        root = tmp_path / "contended"
        set_fault_plan(FaultPlan.parse(
            "seed=3;queue.claim:mode=error,max=2;queue.ack:mode=error,max=2"))
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=3)
        run_worker(campaign_queue(root), drain=True, poll_interval=0.01)
        result = collect_result(root, outcome.spec_hash, timeout=60)
        clean = run_campaign(tmp_path / "clean", small_benchmark, config,
                             n_shards=3, n_workers=1)
        _assert_bitwise_equal(result, clean)

    def test_verified_checkpoint_requeues_through_given_queue(
            self, small_benchmark, tmp_path):
        config = _config()
        root = tmp_path / "runs"
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=2)
        queue = campaign_queue(root)
        run_worker(queue, drain=True)
        paths = CampaignPaths(root, outcome.spec_hash)
        paths.shard_path(0).write_bytes(b"garbage")
        assert verified_checkpoint(paths, 0, queue=queue) is None
        assert queue.counts()["pending"] == 1
        assert verified_checkpoint(paths, 1) is not None

    def test_quarantine_during_lease_still_reruns_the_shard(
            self, small_benchmark, tmp_path):
        # A reader quarantines a corrupt publish while its task is still
        # leased, so the requeue is a no-op and the ack then marks the
        # task done.  Collection spots the stale done row (no checkpoint
        # behind it), requeues the shard, and a worker heals it.
        config = _config()
        root = tmp_path / "runs"
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=2)
        queue = campaign_queue(root)
        paths = CampaignPaths(root, outcome.spec_hash)
        task = queue.claim(worker="slow-acker")
        shard = [paths.shard_key(k) for k in range(2)].index(task.key)
        paths.shard_path(shard).write_bytes(b"torn publish")
        assert verified_checkpoint(paths, shard, queue=queue) is None
        assert queue.ack(task.task_id, task.lease_token, b"")
        assert queue.outcome_by_key(paths.shard_key(shard))[0] == "done"
        with pytest.raises(TimeoutError):
            collect_result(root, outcome.spec_hash, timeout=0.3)
        assert queue.outcome_by_key(paths.shard_key(shard))[0] == "pending"
        run_worker(queue, drain=True)
        healed = collect_result(root, outcome.spec_hash, timeout=60)
        clean = run_campaign(tmp_path / "clean", small_benchmark, config,
                             n_shards=2, n_workers=1)
        _assert_bitwise_equal(healed, clean)

    def test_status_counts_only_verified_checkpoints(self, small_benchmark,
                                                     tmp_path, capsys):
        # A finished campaign with one flipped checkpoint byte is not
        # "merging": status counts the shard as missing, and stays
        # read-only (no quarantine, no requeue) — collect heals it.
        root = tmp_path / "runs"
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=_config(), n_shards=2)
        queue = campaign_queue(root)
        run_worker(queue, drain=True)
        paths = CampaignPaths(root, outcome.spec_hash)
        shard_path = paths.shard_path(1)
        data = bytearray(shard_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        shard_path.write_bytes(bytes(data))
        status = campaign_status(root, outcome.spec_hash)
        assert (status.n_shards_done, status.state) == (1, "running")
        assert shard_path.read_bytes() == bytes(data)
        assert not list(shard_path.parent.glob("*.corrupt*"))
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 2,
                                  "failed": 0}
        assert cli_main(["status", "--root", str(root), "--json"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["n_shards_done"] == 1


# ----------------------------------------------------------------------
# Service-stack reliability (restart survival + multi-domain chaos)
# ----------------------------------------------------------------------
class _ServiceHandle:
    """A restartable AssessmentService on a background event loop."""

    def __init__(self, root: Path, port: int = 0) -> None:
        self.root = root
        self.port = port
        self.server = None
        self._thread = None
        self._loop = None
        self._stop = None

    def start(self) -> "_ServiceHandle":
        started = threading.Event()
        holder = {}

        def run():
            async def main():
                server = AssessmentService(self.root, port=self.port,
                                           monitor_interval=0.1)
                await server.start()
                holder["server"] = server
                holder["stop"] = asyncio.Event()
                started.set()
                await holder["stop"].wait()
                await server.stop()
            loop = asyncio.new_event_loop()
            holder["loop"] = loop
            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert started.wait(10), "service failed to start"
        self.server = holder["server"]
        self._loop = holder["loop"]
        self._stop = holder["stop"]
        self.port = self.server.port
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(10)
            self._loop = None


def _drain_until_complete(client, timeout=120.0):
    progress = []
    for frame in client.events(timeout=timeout):
        if isinstance(frame, CampaignProgress):
            progress.append(frame)
        elif isinstance(frame, CampaignComplete):
            return progress, frame
        elif isinstance(frame, ServiceError):
            raise AssertionError(f"service error: {frame}")
    raise AssertionError("stream ended before completion")


def _service_spec() -> CampaignSpec:
    netlist = load_benchmark("des3", scale=0.25, seed=99)
    return CampaignSpec.from_netlist(netlist, _config(), n_shards=3)


class TestServiceReliability:
    def test_follow_stream_survives_server_restart(self, tmp_path):
        """Satellite (a): kill the server mid-campaign; the client
        redials, re-subscribes, dedupes the replay, and the resumed
        stream's final t-values equal ``collect_result`` bitwise."""
        shared_root = tmp_path / "svc"
        spec = _service_spec()
        tenant = "lab"
        handle = _ServiceHandle(shared_root).start()
        port = handle.port
        # Stretch each shard so the bounce happens mid-campaign.
        set_fault_plan(FaultPlan.parse(
            "worker.shard:mode=delay,delay=0.4"))
        client = ServiceClient(handle.server.host, port, retry=RetryPolicy(
            max_attempts=10, base_delay=0.05, max_delay=0.5))
        try:
            client.submit(tenant, spec.to_json(), follow=True)
            queue = TaskQueue(shared_root / "queue.sqlite")
            worker = threading.Thread(
                target=run_worker, args=(queue,),
                kwargs=dict(worker="steady", drain=True), daemon=True)
            worker.start()
            # Wait for the first progress frame, then bounce the server.
            first = client.recv(timeout=30)
            while not isinstance(first, CampaignProgress):
                first = client.recv(timeout=30)
            handle.stop()
            restarted = _ServiceHandle(shared_root, port=port).start()
            try:
                progress, complete = _drain_until_complete(client,
                                                           timeout=60)
                worker.join(30)
            finally:
                restarted.stop()
        finally:
            client.close()
        seen = [first.shards_done] + [f.shards_done for f in progress]
        assert len(seen) == len(set(seen)), \
            "reconnect replayed a progress frame the dedupe should drop"
        assert complete.spec_hash == spec.content_hash
        final = progress[-1] if progress else first
        assert final.shards_done == (0, 1, 2)
        collected = collect_result(shared_root, spec.content_hash,
                                   timeout=30, tenant=tenant)
        assert np.array_equal(decode_array(final.t_values),
                              collected.t_values)

    def test_four_domain_chaos_converges_bitwise(self, tmp_path):
        """The acceptance scenario: one seeded plan spanning four fault
        domains — a SIGKILLed worker, a corrupted checkpoint, transient
        queue errors, a severed watch connection — and the campaign still
        completes with t-values bitwise equal to an uninjected run."""
        shared_root = tmp_path / "svc"
        spec = _service_spec()
        tenant = "lab"
        handle = _ServiceHandle(shared_root).start()
        client = ServiceClient(handle.server.host, handle.port)
        try:
            client.submit(tenant, spec.to_json(), follow=True)

            # Domain 1 — worker kill: a doomed worker whose env plan
            # SIGKILLs it on its first shard; the lease expires and the
            # shard is redelivered.
            doomed = subprocess.Popen(
                [sys.executable, "-m", "repro.campaign.cli", "work",
                 "--root", str(shared_root), "--max-tasks", "1",
                 "--lease-seconds", "0.7"],
                env={**os.environ, "PYTHONPATH": SRC_DIR,
                     "POLARIS_FAULT_PLAN": "worker.shard:mode=crash,max=1"},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            doomed.wait(30)
            assert doomed.returncode == -9  # really SIGKILLed mid-shard

            # Domains 2+3 — survivor worker with corruption + queue
            # faults; domain 4 — the watch connection is severed on the
            # next receive and must resume.
            set_fault_plan(FaultPlan.parse(
                "seed=42;checkpoint.write:mode=corrupt,max=1;"
                "queue.ack:mode=error,max=2;"
                "service.recv:mode=sever,max=1"))
            queue = TaskQueue(shared_root / "queue.sqlite")
            executed = run_worker(queue, worker="survivor", drain=True,
                                  lease_seconds=2.0)
            assert executed >= 3  # all shards, incl. the reclaimed one

            # The server folds only verified checkpoints: its rescan
            # quarantines the corrupted one and requeues the shard — a
            # rescan later if the survivor acked after the quarantine —
            # and a healer drains until every checkpoint verifies (the
            # corruption budget is spent), unless the survivor already
            # picked the requeue up.
            paths = CampaignPaths(shared_root, spec.content_hash, tenant)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not all(
                    checkpoint_ok(paths.shard_path(k))
                    for k in range(spec.n_shards)):
                run_worker(queue, worker="healer", drain=True)
                time.sleep(0.05)

            progress, complete = _drain_until_complete(client, timeout=60)
        finally:
            client.close()
            handle.stop()
        assert complete.spec_hash == spec.content_hash
        seen = [frame.shards_done for frame in progress]
        assert len(seen) == len(set(seen)), \
            "reconnect replayed a progress frame the dedupe should drop"
        streamed_t = decode_array(complete.assessment["t_values"])

        # Exactly one checkpoint was corrupted and quarantined before the
        # campaign completed; every shard now holds a sound checkpoint.
        corrupt = [p.name for p in paths.shards_dir.iterdir()
                   if ".corrupt" in p.name]
        assert len(corrupt) == 1
        assert all(checkpoint_ok(paths.shard_path(k))
                   for k in range(spec.n_shards))
        assert queue.counts()["pending"] == 0
        collected = collect_result(shared_root, spec.content_hash,
                                   timeout=60, tenant=tenant)
        assert np.array_equal(streamed_t, collected.t_values)
        clean = run_campaign(tmp_path / "clean", spec.netlist(), spec.tvla,
                             n_shards=3, n_workers=1)
        _assert_bitwise_equal(collected, clean)
