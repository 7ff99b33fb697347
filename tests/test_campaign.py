"""Tests for the distributed campaign subsystem (`repro.campaign`).

The contracts pinned here are what make campaigns trustworthy:

* accumulator and assessment serialisation round-trips are **bit-identical**
  (not merely close) — the foundation of the content-addressed store;
* the queue's lease/ack/retry semantics survive dead workers, duplicate
  deliveries and poisoned tasks;
* `QueueExecutor` is a caller-owned `concurrent.futures.Executor`, so the
  sharded drivers gain cross-process workers with zero API change;
* a resumed / fault-injected campaign converges to the serial t-values
  (~1e-12), and cache hits are served bit-identically without simulating;
* the order-2 `OnePassMoments` fast path equals the general Pébay path
  bit for bit (ROADMAP follow-up).
"""

from __future__ import annotations

import contextlib
import json
import pickle
import time
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignError,
    CampaignPaths,
    CampaignSpec,
    QueueExecutor,
    ResultStore,
    TaskFailedError,
    TaskQueue,
    assessment_from_dict,
    assessment_to_dict,
    campaign_queue,
    campaign_status,
    collect_result,
    list_campaigns,
    load_spec,
    pack_shard_moments,
    run_campaign,
    run_worker,
    submit_campaign,
    unpack_shard_moments,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.store import as_result_store
from repro.tvla import (
    OnePassMoments,
    TvlaConfig,
    assess_leakage,
    assess_leakage_sharded,
    assess_many,
)

#: Campaign settings shared by the runner tests: 240 traces in 48-trace
#: chunks -> 5 chunks, so 3 shards give a 2/2/1 split.
CAMPAIGN_TVLA = dict(n_traces=240, n_fixed_classes=2, seed=7,
                     chunk_traces=48)


@pytest.fixture
def campaign_config() -> TvlaConfig:
    return TvlaConfig(**CAMPAIGN_TVLA)


@pytest.fixture
def campaign_root(tmp_path):
    return tmp_path / "runs"


def _assert_assessments_equal(left, right):
    """Bitwise equality of every array/field that defines a verdict."""
    assert left.design_name == right.design_name
    assert left.gate_names == right.gate_names
    assert np.array_equal(left.t_values, right.t_values)
    assert np.array_equal(left.degrees_of_freedom, right.degrees_of_freedom)
    assert np.array_equal(left.mean_abs_t, right.mean_abs_t)
    assert left.n_traces == right.n_traces
    assert left.n_shards == right.n_shards
    assert sorted(left.order_t_values) == sorted(right.order_t_values)
    for order, values in left.order_t_values.items():
        assert np.array_equal(values, right.order_t_values[order])


# ----------------------------------------------------------------------
# OnePassMoments wire format + order-2 specialisation
# ----------------------------------------------------------------------
class TestMomentsSerialisation:
    @pytest.mark.parametrize("max_order", [2, 4, 6])
    def test_round_trip_bit_identical(self, rng, max_order):
        acc = OnePassMoments(max_order=max_order, shape=(9,))
        for _ in range(4):
            acc.update_batch(rng.normal(size=(33, 9)))
        clone = OnePassMoments.from_bytes(acc.to_bytes())
        assert clone.count == acc.count
        assert clone.max_order == acc.max_order
        assert clone.shape == acc.shape
        assert np.array_equal(clone.mean, acc.mean)
        for order in range(2, max_order + 1):
            assert np.array_equal(clone.central_moment(order),
                                  acc.central_moment(order))

    def test_round_tripped_accumulator_merges_identically(self, rng):
        left = OnePassMoments(max_order=4, shape=(5,))
        right = OnePassMoments(max_order=4, shape=(5,))
        left.update_batch(rng.normal(size=(40, 5)))
        right.update_batch(rng.normal(size=(25, 5)))
        direct = left.merge(right)
        revived = (OnePassMoments.from_bytes(left.to_bytes())
                   .merge(OnePassMoments.from_bytes(right.to_bytes())))
        assert np.array_equal(direct.mean, revived.mean)
        for order in (2, 3, 4):
            assert np.array_equal(direct.central_moment(order),
                                  revived.central_moment(order))

    def test_empty_accumulator_round_trips(self):
        acc = OnePassMoments(max_order=2, shape=(3,))
        clone = OnePassMoments.from_bytes(acc.to_bytes())
        assert clone.count == 0
        assert np.array_equal(clone.mean, np.zeros(3))

    def test_scalar_shape_round_trips(self, rng):
        acc = OnePassMoments(max_order=2, shape=())
        acc.update_batch(rng.normal(size=17))
        clone = OnePassMoments.from_bytes(acc.to_bytes())
        assert np.array_equal(clone.mean, acc.mean)
        assert np.array_equal(clone.variance, acc.variance)

    def test_corrupt_payloads_rejected(self, rng):
        acc = OnePassMoments(max_order=2, shape=(4,))
        acc.update_batch(rng.normal(size=(10, 4)))
        blob = acc.to_bytes()
        with pytest.raises(ValueError, match="payload"):
            OnePassMoments.from_bytes(b"nope" + blob[4:])
        with pytest.raises(ValueError, match="truncated"):
            OnePassMoments.from_bytes(blob[:-8])

    def test_shard_moments_pack_round_trip(self, rng):
        partials = []
        for _ in range(3):  # 3 fixed classes, one chunk per group
            pair = []
            for _ in range(2):
                acc = OnePassMoments(max_order=4, shape=(6,))
                acc.update_batch(rng.normal(size=(20, 6)))
                pair.append([acc])
            partials.append((pair[0], pair[1]))
        revived = unpack_shard_moments(pack_shard_moments(partials))
        assert len(revived) == 3
        for ([acc0], [acc1]), ([rev0], [rev1]) in zip(partials, revived):
            assert np.array_equal(acc0.central_moment(4),
                                  rev0.central_moment(4))
            assert np.array_equal(acc1.mean, rev1.mean)

    def test_packed_shard_garbage_rejected(self):
        with pytest.raises(ValueError, match="shard-moments"):
            unpack_shard_moments(b"garbage")
        # Merged-pair (SHM1) payloads are no longer a shard format.
        with pytest.raises(ValueError, match="shard-moments"):
            unpack_shard_moments(b"SHM1" + bytes(8))

    def test_per_chunk_shard_moments_round_trip(self, rng):
        # Shards checkpoint UNMERGED per-chunk accumulator lists (the SHM2
        # wire format); the round-trip must preserve both
        # the chunk structure and every accumulator bit-for-bit.
        partials = []
        for class_index in range(2):
            groups = []
            for _ in range(2):
                chunks = []
                for _ in range(3 - class_index):  # ragged chunk counts
                    acc = OnePassMoments(max_order=4, shape=(5,))
                    acc.update_batch(rng.normal(size=(12, 5)))
                    chunks.append(acc)
                groups.append(chunks)
            partials.append((groups[0], groups[1]))
        revived = unpack_shard_moments(pack_shard_moments(partials))
        assert len(revived) == 2
        for (chunks0, chunks1), (rev0, rev1) in zip(partials, revived):
            assert len(rev0) == len(chunks0) and len(rev1) == len(chunks1)
            for acc, rev in zip(chunks0 + chunks1, rev0 + rev1):
                assert acc.to_bytes() == rev.to_bytes()

    def test_per_chunk_payload_truncation_rejected(self, rng):
        acc = OnePassMoments(max_order=2, shape=(3,))
        acc.update_batch(rng.normal(size=(8, 3)))
        payload = pack_shard_moments([([acc], [acc])])
        assert payload.startswith(b"SHM2")
        with pytest.raises(ValueError, match="truncated"):
            unpack_shard_moments(payload[:-4])


class TestOrderTwoFastPath:
    def test_bit_identical_to_general_path(self, rng):
        """ROADMAP follow-up pin: the specialised max_order == 2 combine
        (no odd-order machinery) equals the general Pébay path exactly —
        same stream of batch and single-sample updates, bitwise-equal
        state throughout, bitwise-equal merges."""
        fast = OnePassMoments(max_order=2, shape=(11,))
        general = OnePassMoments(max_order=2, shape=(11,))
        # Shadow the dispatching method so every combine of `general`
        # walks the arbitrary-order code path instead.
        general._combine_order2 = (
            lambda n_a, n_b, n, mean_b, m2_b:
            general._combine_general(n_a, n_b, n, mean_b, [m2_b]))
        for size in (1, 7, 64, 129):
            batch = rng.normal(size=(size, 11))
            fast.update_batch(batch)
            general.update_batch(batch)
        single = rng.normal(size=11)
        fast.update(single)
        general.update(single)
        assert fast.count == general.count
        assert np.array_equal(fast.mean, general.mean)
        assert np.array_equal(fast.central_moment(2),
                              general.central_moment(2))
        merged_fast = fast.merge(fast)
        merged_general = general.merge(general)
        assert np.array_equal(merged_fast.central_moment(2),
                              merged_general.central_moment(2))

    def test_higher_orders_still_track_odd_sums(self, rng):
        # Exactness guard: order-4/6 accumulators must keep their odd
        # central sums (the pairwise merge needs them), so the skip is
        # strictly limited to max_order == 2.
        acc = OnePassMoments(max_order=4, shape=(3,))
        acc.update_batch(rng.normal(size=(50, 3)))
        assert len(acc._sums) == 3  # orders 2, 3, 4
        assert np.abs(acc.central_moment(3)).max() > 0


# ----------------------------------------------------------------------
# CampaignSpec hashing
# ----------------------------------------------------------------------
#: Arbitrary JSON values: what a client can put in any field of a spec.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6)


def _json_paths(value, prefix=()):
    """Every key path into the nested objects of a JSON value."""
    if not isinstance(value, dict):
        return []
    paths = []
    for key, child in value.items():
        paths.append(prefix + (key,))
        paths.extend(_json_paths(child, prefix + (key,)))
    return paths


def _mutate_json(payload, data):
    """Drop a key, swap in an arbitrary value, add a key, or replace the
    whole document."""
    action = data.draw(st.sampled_from(["drop", "swap", "swap", "add",
                                        "replace"]), label="action")
    paths = _json_paths(payload)
    if action == "replace" or not paths:
        return data.draw(JSON_VALUES, label="document")
    path = data.draw(st.sampled_from(paths), label="path")
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    elif action == "swap":
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
    else:
        parent[data.draw(st.text(max_size=8), label="key")] = \
            data.draw(JSON_VALUES, label="value")
    return payload


class TestCampaignSpec:
    def test_hash_is_stable_and_reproducible(self, small_benchmark,
                                             campaign_config):
        first = CampaignSpec.from_netlist(small_benchmark, campaign_config, 3)
        second = CampaignSpec.from_netlist(small_benchmark, campaign_config, 3)
        assert first.content_hash == second.content_hash
        assert len(first.content_hash) == 64

    def test_hash_value_is_pinned(self, small_benchmark):
        # Stored campaign directories and result stores are addressed by
        # this digest: removing a TvlaConfig field must not move it.
        config = TvlaConfig(n_traces=240, n_fixed_classes=2, seed=7,
                            chunk_traces=48, streaming=True)
        spec = CampaignSpec.from_netlist(small_benchmark, config, 3)
        assert spec.content_hash == (
            "27bc64eadcb89deb413ae1565f956b06563aa183ec37c0ea0325216c9f29a35e")

    def test_hash_covers_every_axis(self, small_benchmark, tiny_netlist,
                                    campaign_config):
        import dataclasses
        base = CampaignSpec.from_netlist(small_benchmark, campaign_config, 2)
        variants = [
            CampaignSpec.from_netlist(tiny_netlist, campaign_config, 2),
            CampaignSpec.from_netlist(
                small_benchmark,
                dataclasses.replace(campaign_config, seed=8), 2),
            CampaignSpec.from_netlist(
                small_benchmark,
                dataclasses.replace(campaign_config, n_traces=192), 2),
            CampaignSpec.from_netlist(small_benchmark, campaign_config, 5),
        ]
        hashes = {spec.content_hash for spec in variants}
        assert base.content_hash not in hashes
        assert len(hashes) == len(variants)

    def test_shard_count_normalised_to_chunk_cap(self, small_benchmark,
                                                 campaign_config):
        # 240 traces / 48-trace chunks = 5 chunks: requesting 8 shards is
        # the same campaign as requesting 5.
        capped = CampaignSpec.from_netlist(small_benchmark, campaign_config, 8)
        exact = CampaignSpec.from_netlist(small_benchmark, campaign_config, 5)
        assert capped.n_shards == 5
        assert capped.content_hash == exact.content_hash

    def test_streaming_resolved_into_hash(self, small_benchmark):
        # Every assessment streams, a one-chunk serial config included:
        # the hashed payload keeps the retired constants stored format-3
        # hashes were computed with.
        small = TvlaConfig(n_traces=100, n_fixed_classes=1, chunk_traces=2048)
        spec = CampaignSpec.from_netlist(small_benchmark, small, 1)
        tvla = json.loads(spec.canonical_payload())["tvla"]
        assert tvla["streaming"] is True
        assert tvla["power"]["noise_mode"] == "auto"
        assert CampaignSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("path, value", [
        (("tvla", "streaming"), False),
        (("tvla", "power", "noise_mode"), "gaussian"),
        (("tvla", "power", "noise_mode"), "fast"),
    ])
    def test_retired_value_rejected(self, small_benchmark, campaign_config,
                                    path, value):
        data = json.loads(CampaignSpec.from_netlist(
            small_benchmark, campaign_config, 3).to_json())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match="is not supported"):
            CampaignSpec.from_json(json.dumps(data))

    @staticmethod
    def _without(data, *path):
        target = data
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return data

    @pytest.mark.parametrize("mutate, match", [
        (lambda data: [], "must be a JSON object"),
        (lambda data: TestCampaignSpec._without(data, "design_name"),
         "design_name"),
        (lambda data: {**data, "tvla": {**data["tvla"], "bogus": 1}},
         "bogus"),
        (lambda data: TestCampaignSpec._without(data, "tvla", "power"),
         "power"),
        (lambda data: {**data, "tvla": None}, "tvla must be an object"),
        (lambda data: {**data, "n_shards": "3"}, "n_shards"),
        (lambda data: {**data, "n_shards": 0}, "n_shards"),
        (lambda data: {**data, "content_hash": 7}, "content_hash"),
        (lambda data: {**data, "tvla": {**data["tvla"], "n_traces": 1}},
         "n_traces"),
        (lambda data: {**data, "tvla": {**data["tvla"], "seed": True}},
         "seed"),
    ], ids=["list", "no-design-name", "unknown-tvla-key", "no-power",
            "null-tvla", "string-shards", "zero-shards", "int-hash",
            "one-trace", "bool-seed"])
    def test_malformed_spec_raises_value_error(self, small_benchmark,
                                               campaign_config, mutate,
                                               match):
        data = json.loads(CampaignSpec.from_netlist(
            small_benchmark, campaign_config, 3).to_json())
        with pytest.raises(ValueError, match=match):
            CampaignSpec.from_json(json.dumps(mutate(data)))

    def test_wrong_typed_field_raises_value_error(self, small_benchmark,
                                                  campaign_config):
        # Every stored config field is type-checked before the dataclass
        # sees it, so a comparison in __post_init__ cannot raise TypeError.
        base = json.loads(CampaignSpec.from_netlist(
            small_benchmark, campaign_config, 3).to_json())
        del base["content_hash"]
        tvla_keys = [key for key in base["tvla"] if key != "power"]
        for section, keys in (("tvla", tvla_keys),
                              ("power", list(base["tvla"]["power"]))):
            for key in keys:
                for value in ("x", None, [1], True, 1.5):
                    data = json.loads(json.dumps(base))
                    target = (data["tvla"] if section == "tvla"
                              else data["tvla"]["power"])
                    if type(target[key]) is type(value) or (
                            isinstance(target[key], float)
                            and type(value) is float):
                        continue
                    target[key] = value
                    with pytest.raises(ValueError):
                        CampaignSpec.from_json(json.dumps(data))

    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(data=st.data())
    def test_fuzzed_spec_loads_or_raises_value_error(self, small_benchmark,
                                                     data):
        # Whatever a client sends, loading returns a spec or raises
        # ValueError (the service's bad-spec answer) — never another
        # exception, and never a hang past the per-example deadline.
        payload = json.loads(CampaignSpec.from_netlist(
            small_benchmark, TvlaConfig(**CAMPAIGN_TVLA), 3).to_json())
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            payload = _mutate_json(payload, data)
        try:
            spec = CampaignSpec.from_json(json.dumps(payload))
        except ValueError:
            return
        assert isinstance(spec, CampaignSpec)

    def test_json_round_trip(self, small_benchmark, campaign_config):
        spec = CampaignSpec.from_netlist(small_benchmark, campaign_config, 3)
        revived = CampaignSpec.from_json(spec.to_json())
        assert revived == spec
        assert revived.content_hash == spec.content_hash

    def test_tampered_spec_rejected(self, small_benchmark, campaign_config):
        spec = CampaignSpec.from_netlist(small_benchmark, campaign_config, 3)
        data = json.loads(spec.to_json())
        data["n_shards"] = 4  # stored hash no longer matches
        with pytest.raises(ValueError, match="hash mismatch"):
            CampaignSpec.from_json(json.dumps(data))

    def test_netlist_round_trip_is_assessable(self, small_benchmark,
                                              campaign_config):
        spec = CampaignSpec.from_netlist(small_benchmark, campaign_config, 2)
        rebuilt = spec.netlist()
        assert rebuilt.name == small_benchmark.name
        assert tuple(rebuilt.primary_inputs) == \
            tuple(small_benchmark.primary_inputs)
        assert len(rebuilt) == len(small_benchmark)


# ----------------------------------------------------------------------
# Task queue semantics
# ----------------------------------------------------------------------
class TestTaskQueue:
    def test_put_claim_ack(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        put = queue.put(b"payload")
        assert put.action == "inserted"
        task = queue.claim(worker="w1")
        assert task.task_id == put.task_id
        assert task.payload == b"payload"
        assert not task.redelivered
        assert queue.ack(task.task_id, task.lease_token, b"result")
        assert queue.outcome(put.task_id) == ("done", b"result", None)
        assert queue.claim() is None

    def test_keyed_put_is_idempotent(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        first = queue.put(b"a", key="k")
        second = queue.put(b"b", key="k")
        assert first.task_id == second.task_id
        assert (first.action, second.action) == ("inserted", "existing")
        assert queue.counts()["pending"] == 1

    def test_keyed_put_requeues_failed_tasks(self, tmp_path):
        # Resubmission must be able to recover a shard that exhausted its
        # retries on a transient cause: a keyed put of a failed task
        # resets it to pending with a fresh attempt budget.
        queue = TaskQueue(tmp_path / "q.sqlite", default_max_attempts=1)
        put = queue.put(b"work", key="k")
        task = queue.claim()
        assert queue.fail(task.task_id, task.lease_token, "boom") == "failed"
        requeued = queue.put(b"work", key="k")
        assert requeued.task_id == put.task_id
        assert requeued.action == "requeued"
        retry = queue.claim()
        assert retry is not None and retry.attempts == 1
        assert queue.ack(retry.task_id, retry.lease_token, b"ok")
        assert queue.outcome(put.task_id)[0] == "done"

    def test_expired_lease_is_redelivered(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(b"work")
        dead = queue.claim(worker="dead", lease_seconds=0.01)
        time.sleep(0.05)
        alive = queue.claim(worker="alive")
        assert alive is not None
        assert alive.task_id == dead.task_id
        assert alive.redelivered
        assert alive.attempts == 2

    def test_ack_after_redelivery_first_wins(self, tmp_path):
        # Duplicate delivery: the slow worker's stale token must be a
        # no-op once the task was redelivered and completed elsewhere.
        queue = TaskQueue(tmp_path / "q.sqlite")
        task_id = queue.put(b"work").task_id
        slow = queue.claim(worker="slow", lease_seconds=0.01)
        time.sleep(0.05)
        fast = queue.claim(worker="fast")
        assert queue.ack(fast.task_id, fast.lease_token, b"fast-result")
        assert not queue.ack(slow.task_id, slow.lease_token, b"slow-result")
        assert queue.outcome(task_id) == ("done", b"fast-result", None)

    def test_fail_retries_until_budget_exhausted(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite", default_max_attempts=2)
        task_id = queue.put(b"poison").task_id
        first = queue.claim()
        assert queue.fail(first.task_id, first.lease_token, "boom 1") == \
            "retried"
        second = queue.claim()
        assert second.attempts == 2
        assert queue.fail(second.task_id, second.lease_token, "boom 2") == \
            "failed"
        status, _, error = queue.outcome(task_id)
        assert status == "failed"
        assert "boom 2" in error
        assert queue.claim() is None

    def test_expired_final_attempt_is_retired(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite", default_max_attempts=1)
        task_id = queue.put(b"work").task_id
        queue.claim(lease_seconds=0.01)
        time.sleep(0.05)
        assert queue.claim() is None  # not handed out again...
        assert queue.outcome(task_id)[0] == "failed"  # ...but retired

    def test_stale_fail_is_ignored(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(b"work")
        slow = queue.claim(lease_seconds=0.01)
        time.sleep(0.05)
        fast = queue.claim()
        assert queue.fail(slow.task_id, slow.lease_token, "late") == "stale"
        assert queue.ack(fast.task_id, fast.lease_token, b"ok")

    def test_invalid_configuration_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TaskQueue(tmp_path / "q.sqlite", default_lease_seconds=0)
        with pytest.raises(ValueError):
            TaskQueue(tmp_path / "q.sqlite", default_max_attempts=0)
        queue = TaskQueue(tmp_path / "q.sqlite")
        with pytest.raises(ValueError):
            queue.put(b"x", max_attempts=0)
        with pytest.raises(KeyError):
            queue.outcome(12345)

    def test_keyed_put_requeues_done_tasks_only_on_request(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        first = queue.put(b"payload", key="k")
        task = queue.claim()
        assert queue.ack(task.task_id, task.lease_token, b"result")
        # Default: a done task is live — the put is a no-op.
        assert queue.put(b"payload", key="k").action == "existing"
        assert queue.outcome(first.task_id)[0] == "done"
        # requeue_done: the caller says the durable side-effect is gone
        # (gc evicted the checkpoint), so the stale completion is reset.
        outcome = queue.put(b"payload2", key="k", requeue_done=True)
        assert outcome.action == "requeued"
        status, result, error = queue.outcome(first.task_id)
        assert status == "pending" and result is None and error is None
        redelivered = queue.claim()
        assert redelivered.payload == b"payload2"
        assert redelivered.attempts == 1  # fresh budget

    def test_run_worker_drain(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        for value in range(3):
            queue.put(pickle.dumps((_double, (value,), {})))
        executed = run_worker(queue, drain=True)
        assert executed == 3
        assert queue.outstanding() == 0

    # -- lease renewal (the worker heartbeat) --------------------------
    def test_renew_extends_a_live_lease(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(b"work")
        task = queue.claim(worker="w1", lease_seconds=0.2)
        before = queue.lease_info(task.task_id)
        assert before["renewals"] == 0
        assert queue.renew(task.task_id, task.lease_token,
                           lease_seconds=30.0)
        after = queue.lease_info(task.task_id)
        assert after["renewals"] == 1
        assert after["lease_expires"] > before["lease_expires"]
        assert after["heartbeat_at"] >= before["heartbeat_at"]
        # The renewed lease holds: no redelivery after the original span.
        time.sleep(0.25)
        assert queue.claim() is None
        assert queue.ack(task.task_id, task.lease_token, b"ok")

    def test_stale_renew_fails_like_stale_ack(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(b"work")
        slow = queue.claim(worker="slow", lease_seconds=0.01)
        time.sleep(0.05)
        fast = queue.claim(worker="fast")
        # The redelivered claim rotated the token: the frozen worker's
        # renew must not resurrect its lease out from under `fast`.
        assert not queue.renew(slow.task_id, slow.lease_token)
        assert queue.renew(fast.task_id, fast.lease_token)
        assert queue.ack(fast.task_id, fast.lease_token, b"fast")
        # ...and renewing a finished task is stale too.
        assert not queue.renew(fast.task_id, fast.lease_token)

    def test_reclaim_resets_heartbeat_bookkeeping(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(b"work")
        dead = queue.claim(worker="dead", lease_seconds=0.01)
        assert queue.renew(dead.task_id, dead.lease_token,
                           lease_seconds=0.01)
        time.sleep(0.05)
        alive = queue.claim(worker="alive")
        info = queue.lease_info(alive.task_id)
        assert info["renewals"] == 0  # fresh lease, fresh counters
        assert info["worker"] == "alive"
        assert queue.lease_info(99999) is None

    def test_run_worker_renews_through_long_tasks(self, tmp_path):
        # The PR 4 follow-up contract fix: the lease no longer needs to
        # outlast a task.  A 0.15s lease survives a 0.5s task because
        # run_worker heartbeats at half-lease intervals by default.
        queue = TaskQueue(tmp_path / "q.sqlite",
                          default_lease_seconds=0.15)
        task_id = queue.put(pickle.dumps((_nap, (0.5,), {}))).task_id
        executed = run_worker(queue, worker="renewer", drain=True)
        assert executed == 1
        info = queue.lease_info(task_id)
        assert info["status"] == "done"
        assert info["attempts"] == 1  # never redelivered
        assert info["renewals"] >= 1

    def test_run_worker_without_renewal_loses_long_tasks(self, tmp_path):
        # The inverse documents why renewal is the default: without it a
        # short lease expires mid-task, a competitor reclaims the task,
        # and the legacy worker's late ack is fenced out as stale.
        import threading
        queue = TaskQueue(tmp_path / "q.sqlite",
                          default_lease_seconds=0.15)
        task_id = queue.put(pickle.dumps((_nap, (0.5,), {}))).task_id
        legacy = threading.Thread(
            target=run_worker,
            kwargs=dict(queue=queue, worker="legacy", max_tasks=1,
                        renew_leases=False))
        legacy.start()
        time.sleep(0.3)  # legacy is mid-task, its lease already expired
        redelivered = queue.claim(worker="second")
        assert redelivered is not None
        assert redelivered.task_id == task_id
        assert redelivered.attempts == 2
        assert queue.ack(redelivered.task_id, redelivered.lease_token,
                         b"second-result")
        legacy.join(10)
        # The legacy worker's ack (0.2s later) changed nothing.
        assert queue.outcome(task_id) == ("done", b"second-result", None)
        assert queue.lease_info(task_id)["worker"] == "second"

    # -- claim-scan index ----------------------------------------------
    def test_claim_query_uses_lease_index(self, tmp_path):
        # The claim scan must stay O(log n) as queues grow: both OR
        # branches (pending, expired-lease) have to ride the composite
        # (status, lease_expires) index rather than scanning the table.
        queue = TaskQueue(tmp_path / "q.sqlite")
        for value in range(8):
            queue.put(pickle.dumps((_double, (value,), {})))
        with queue._connect() as conn:
            plan = "\n".join(row[3] for row in conn.execute(
                "EXPLAIN QUERY PLAN "
                "SELECT id, key, payload, attempts, max_attempts "
                "FROM tasks WHERE status = 'pending' "
                "OR (status = 'leased' AND lease_expires < ?) "
                "ORDER BY id LIMIT 1", (time.time(),)))
        assert "tasks_lease" in plan
        assert "SCAN tasks" not in plan.replace("SCAN tasks USING", "")

    def test_old_databases_gain_heartbeat_columns(self, tmp_path):
        # Queues created before the heartbeat columns existed must open
        # cleanly: __init__ backfills via ALTER TABLE.
        import sqlite3 as sqlite3_module
        path = tmp_path / "old.sqlite"
        with contextlib.closing(sqlite3_module.connect(path)) as conn:
            conn.executescript("""
                CREATE TABLE tasks (
                    id            INTEGER PRIMARY KEY AUTOINCREMENT,
                    key           TEXT UNIQUE,
                    payload       BLOB NOT NULL,
                    status        TEXT NOT NULL DEFAULT 'pending',
                    attempts      INTEGER NOT NULL DEFAULT 0,
                    max_attempts  INTEGER NOT NULL DEFAULT 3,
                    lease_token   TEXT,
                    lease_expires REAL,
                    worker        TEXT,
                    result        BLOB,
                    error         TEXT,
                    enqueued_at   REAL NOT NULL,
                    done_at       REAL
                );
                INSERT INTO tasks (payload, enqueued_at)
                VALUES (x'00', 1.0);
            """)
            conn.commit()
        queue = TaskQueue(path)
        task = queue.claim(worker="migrated")
        assert task is not None
        assert queue.renew(task.task_id, task.lease_token)
        assert queue.lease_info(task.task_id)["renewals"] == 1


def _double(value):
    """Module-level task body (queue payloads must be picklable)."""
    return 2 * value


def _nap(seconds):
    """Module-level task body that outlasts short leases."""
    time.sleep(seconds)
    return seconds


def _explode():
    """Module-level task body that always fails."""
    raise RuntimeError("intentional failure")


# ----------------------------------------------------------------------
# QueueExecutor through the unchanged sharding API
# ----------------------------------------------------------------------
class TestQueueExecutor:
    def test_futures_resolve(self, tmp_path):
        with QueueExecutor(tmp_path / "q.sqlite", n_workers=1) as pool:
            futures = [pool.submit(_double, value) for value in range(5)]
            assert [f.result(timeout=30) for f in futures] == \
                [0, 2, 4, 6, 8]

    def test_failures_propagate_as_exceptions(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite", default_max_attempts=1)
        with QueueExecutor(queue, n_workers=1) as pool:
            future = pool.submit(_explode)
            with pytest.raises(TaskFailedError, match="intentional failure"):
                future.result(timeout=30)

    def test_submit_after_shutdown_rejected(self, tmp_path):
        pool = QueueExecutor(tmp_path / "q.sqlite", n_workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.submit(_double, 1)

    def test_sharded_assessment_via_queue(self, small_benchmark, tmp_path):
        # The tentpole seam: zero API change — a queue-backed executor
        # drops into assess_leakage_sharded, bitwise equal to serial at
        # every shard count and order.
        config = TvlaConfig(tvla_order=3, **CAMPAIGN_TVLA)
        reference = assess_leakage(small_benchmark, config)
        with QueueExecutor(tmp_path / "q.sqlite", n_workers=2) as pool:
            for n_shards in (1, 2, 4, 8):
                sharded = assess_leakage_sharded(small_benchmark, config,
                                                 n_shards=n_shards,
                                                 executor=pool)
                assert sharded.n_shards == min(n_shards, 5)
                _assert_assessments_equal(replace(sharded, n_shards=1),
                                          reference)

    def test_assess_many_via_queue(self, small_benchmark, tiny_netlist,
                                   campaign_config, tmp_path):
        with QueueExecutor(tmp_path / "q.sqlite", n_workers=2) as pool:
            results = assess_many([small_benchmark, tiny_netlist],
                                  campaign_config, n_shards=2, executor=pool)
        for netlist in (small_benchmark, tiny_netlist):
            serial = assess_leakage_sharded(netlist, campaign_config,
                                            n_shards=2)
            assert np.array_equal(results[netlist.name].t_values,
                                  serial.t_values)


class TestExecutorLifecycle:
    def test_caller_supplied_pool_left_running(self, small_benchmark,
                                               campaign_config, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor
        from repro.tvla import sharding

        def poisoned(*args, **kwargs):
            raise RuntimeError("shard worker exploded")

        monkeypatch.setattr(sharding, "_shard_moments_rebuilt", poisoned)
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(RuntimeError, match="exploded"):
                assess_leakage_sharded(small_benchmark, campaign_config,
                                       n_shards=2, executor=pool)
            assert not pool._shutdown  # caller owns its lifecycle
            assert pool.submit(int, "7").result(timeout=30) == 7

    def test_failing_shard_cancels_pending_futures(self, small_benchmark,
                                                   campaign_config,
                                                   monkeypatch):
        # A raising shard leaves no sibling burning CPU: this call's
        # queued shards are cancelled, the caller's pool keeps running.
        import threading
        from concurrent.futures import ThreadPoolExecutor
        from repro.tvla import sharding

        release = threading.Event()
        ran = []

        def shard(netlist, sliced, config, first_chunk):
            ran.append(first_chunk)
            if first_chunk == 0:
                raise RuntimeError("shard worker exploded")
            release.wait(30)  # hold the only worker thread

        submitted = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(super().submit(fn, *args, **kwargs))
                return submitted[-1]

        monkeypatch.setattr(sharding, "_shard_moments_rebuilt", shard)
        with RecordingPool(max_workers=1) as pool:
            try:
                with pytest.raises(RuntimeError, match="exploded"):
                    assess_leakage_sharded(small_benchmark, campaign_config,
                                           n_shards=5, executor=pool)
                assert len(submitted) == 5
                # The one worker thread is held by at most one sibling
                # shard; every other sibling was still queued, so it was
                # cancelled and never runs.
                assert sum(future.cancelled() for future in submitted) >= 3
                assert not pool._shutdown
            finally:
                release.set()
        assert len(ran) <= 2


# ----------------------------------------------------------------------
# Campaign runner: submit / work / resume / collect
# ----------------------------------------------------------------------
class TestCampaignRunner:
    def test_distributed_campaign_matches_serial(self, small_benchmark,
                                                 campaign_config,
                                                 campaign_root):
        reference = assess_leakage(small_benchmark, campaign_config)
        result = run_campaign(campaign_root, small_benchmark,
                              campaign_config, n_shards=3, n_workers=2)
        np.testing.assert_allclose(result.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(result.mean_abs_t, reference.mean_abs_t,
                                   rtol=1e-12, atol=1e-12)
        assert result.n_shards == 3

    def test_higher_order_campaign(self, tiny_netlist, campaign_root):
        config = TvlaConfig(n_traces=200, n_fixed_classes=1, seed=3,
                            chunk_traces=50, tvla_order=2)
        reference = assess_leakage(tiny_netlist, config)
        result = run_campaign(campaign_root, tiny_netlist, config,
                              n_shards=2, n_workers=1)
        np.testing.assert_allclose(result.order_t_values[2],
                                   reference.order_t_values[2],
                                   rtol=1e-12, atol=1e-12)

    def test_resume_from_checkpoint_bit_identical(self, small_benchmark,
                                                  campaign_config, tmp_path):
        # Run shards 0-1, "crash", resubmit, finish: must equal an
        # uninterrupted campaign bit for bit (same partials, same merge
        # order).
        interrupted_root = tmp_path / "interrupted"
        clean_root = tmp_path / "clean"
        outcome = submit_campaign(interrupted_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=3)
        assert outcome.status == "submitted"
        assert outcome.n_shards_total == 3
        run_worker(campaign_queue(interrupted_root), max_tasks=2, drain=True)
        paths = CampaignPaths(interrupted_root, outcome.spec_hash)
        done_before = [k for k in range(3) if paths.shard_path(k).exists()]
        assert len(done_before) == 2

        resumed = submit_campaign(interrupted_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=3)
        assert resumed.status == "resumed"
        assert resumed.spec_hash == outcome.spec_hash
        assert resumed.n_shards_done == 2
        assert resumed.n_enqueued == 0  # idempotent keys: already queued
        run_worker(campaign_queue(interrupted_root), drain=True)
        result = collect_result(interrupted_root, outcome.spec_hash,
                                timeout=60)

        clean = run_campaign(clean_root, small_benchmark, campaign_config,
                             n_shards=3, n_workers=1)
        _assert_assessments_equal(result, clean)

    def test_worker_killed_mid_shard_recovers(self, small_benchmark,
                                              campaign_config,
                                              campaign_root):
        # Fault injection: a worker claims a shard and dies (never acks).
        # Its lease expires, a healthy worker reclaims the shard, and the
        # campaign converges to the serial verdict.
        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=3)
        queue = campaign_queue(campaign_root)
        doomed = queue.claim(worker="doomed", lease_seconds=0.05)
        assert doomed is not None
        time.sleep(0.1)  # the dead worker's lease expires
        run_worker(queue, worker="healthy", drain=True)
        result = collect_result(campaign_root, outcome.spec_hash, timeout=60)
        reference = assess_leakage(small_benchmark, campaign_config)
        np.testing.assert_allclose(result.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_duplicate_delivery_single_checkpoint(self, small_benchmark,
                                                  campaign_config,
                                                  campaign_root):
        # Fault injection: a slow worker finishes *after* the shard was
        # redelivered and completed elsewhere.  Its late ack is a no-op
        # and the checkpoint is written exactly once (atomic publish +
        # idempotent recompute guard).
        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=3)
        queue = campaign_queue(campaign_root)
        slow = queue.claim(worker="slow", lease_seconds=0.05)
        time.sleep(0.1)
        run_worker(queue, worker="fast", drain=True)  # redelivery completes
        # The slow worker now executes the same payload and tries to ack.
        fn, args, kwargs = pickle.loads(slow.payload)
        late_result = fn(*args, **kwargs)
        assert late_result["skipped"] is True  # checkpoint already there
        assert not queue.ack(slow.task_id, slow.lease_token,
                             pickle.dumps(late_result))
        result = collect_result(campaign_root, outcome.spec_hash, timeout=60)
        reference = assess_leakage(small_benchmark, campaign_config)
        np.testing.assert_allclose(result.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_cache_hit_skips_work_and_is_bit_identical(self, small_benchmark,
                                                       campaign_config,
                                                       campaign_root):
        first = run_campaign(campaign_root, small_benchmark, campaign_config,
                             n_shards=3, n_workers=1)
        resubmitted = submit_campaign(campaign_root, netlist=small_benchmark,
                                      config=campaign_config, n_shards=3)
        assert resubmitted.status == "cached"
        assert resubmitted.n_enqueued == 0
        again = collect_result(campaign_root, resubmitted.spec_hash)
        _assert_assessments_equal(first, again)

    def test_failed_shard_surfaces_worker_traceback(self, small_benchmark,
                                                    campaign_config,
                                                    campaign_root):
        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=2)
        queue = campaign_queue(campaign_root)
        # Poison shard 0 by exhausting its attempt budget with fails.
        paths = CampaignPaths(campaign_root, outcome.spec_hash)
        for _ in range(queue.default_max_attempts):
            task = queue.claim()
            if task.key == paths.shard_key(0):
                verdict = queue.fail(task.task_id, task.lease_token,
                                     "simulated worker crash")
            else:  # execute the healthy shard normally
                fn, args, kwargs = pickle.loads(task.payload)
                queue.ack(task.task_id, task.lease_token,
                          pickle.dumps(fn(*args, **kwargs)))
        assert verdict == "failed"
        with pytest.raises(CampaignError, match="simulated worker crash"):
            collect_result(campaign_root, outcome.spec_hash, timeout=5)
        # Resubmission recovers the poisoned shard: the failed task is
        # requeued with a fresh attempt budget and the campaign completes.
        retried = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=2)
        assert retried.n_enqueued == 1
        run_worker(queue, drain=True)
        result = collect_result(campaign_root, outcome.spec_hash, timeout=60)
        reference = assess_leakage(small_benchmark, campaign_config)
        np.testing.assert_allclose(result.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_status_and_listing(self, small_benchmark, campaign_config,
                                campaign_root):
        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=3)
        status = campaign_status(campaign_root, outcome.spec_hash)
        assert status.state == "running"
        assert status.n_shards_done == 0
        run_worker(campaign_queue(campaign_root), drain=True)
        collect_result(campaign_root, outcome.spec_hash, timeout=60)
        status = campaign_status(campaign_root, outcome.spec_hash)
        assert status.state == "complete"
        assert status.n_shards_done == 3
        listed = list_campaigns(campaign_root)
        assert [s.spec_hash for s in listed] == [outcome.spec_hash]

    def test_submit_requires_netlist_or_spec(self, campaign_root):
        with pytest.raises(ValueError, match="netlist or a spec"):
            submit_campaign(campaign_root)


# ----------------------------------------------------------------------
# The counter sampler through the durable runner
# ----------------------------------------------------------------------
#: Retired ``TvlaConfig`` selectors that stored specs still carry as
#: constant hashed keys.
_RETIRED_TVLA_KEYS = ("sampler", "sim_backend", "power_backend")


def _retired_spec_json(spec: CampaignSpec, **changes) -> str:
    """``spec``'s JSON with top-level ``changes`` and ``tvla`` overrides of
    the retired selectors (``sampler=...``, ``sim_backend=...``,
    ``power_backend=...``) applied."""
    data = json.loads(spec.to_json())
    for key in _RETIRED_TVLA_KEYS:
        if key in changes:
            data["tvla"][key] = changes.pop(key)
    data.update(changes)
    return json.dumps(data)


class TestSamplerCampaigns:
    """Counter sampling through the spec, queue and resume path.

    A queue-backed distributed campaign, a killed-and-resumed campaign
    and the in-process serial assessment all produce ``np.array_equal``
    t-values.  Specs of the retired SeedSequence sampler — format-2 files
    and ``"sampler"`` values other than ``"counter"`` — are rejected with
    a ``ValueError`` naming the reason.
    """

    def test_counter_queue_campaign_is_bitwise_serial(self, small_benchmark,
                                                      campaign_root):
        config = TvlaConfig(**CAMPAIGN_TVLA)
        reference = assess_leakage(small_benchmark, config)
        result = run_campaign(campaign_root, small_benchmark, config,
                              n_shards=3, n_workers=2)
        assert np.array_equal(result.t_values, reference.t_values)
        assert np.array_equal(result.mean_abs_t, reference.mean_abs_t)
        assert np.array_equal(result.degrees_of_freedom,
                              reference.degrees_of_freedom)

    def test_killed_and_resumed_campaign_bit_identical(self, small_benchmark,
                                                       tmp_path):
        # Kill after one shard, resubmit, finish: equal to an
        # uninterrupted campaign bit for bit (the checkpointed partials
        # and the merge order are identical).
        config = TvlaConfig(**CAMPAIGN_TVLA)
        interrupted_root = tmp_path / "interrupted"
        clean_root = tmp_path / "clean"
        outcome = submit_campaign(interrupted_root, netlist=small_benchmark,
                                  config=config, n_shards=3)
        run_worker(campaign_queue(interrupted_root), max_tasks=1, drain=True)
        resumed = submit_campaign(interrupted_root, netlist=small_benchmark,
                                  config=config, n_shards=3)
        assert resumed.status == "resumed"
        assert resumed.n_shards_done == 1
        run_worker(campaign_queue(interrupted_root), drain=True)
        result = collect_result(interrupted_root, outcome.spec_hash,
                                timeout=60)
        clean = run_campaign(clean_root, small_benchmark, config,
                             n_shards=3, n_workers=1)
        _assert_assessments_equal(result, clean)
        # ...and the campaign is also bitwise-serial.
        reference = assess_leakage(small_benchmark, config)
        assert np.array_equal(result.t_values, reference.t_values)

    def test_format2_spec_rejected(self, small_benchmark, campaign_config):
        # Format-2 files predate the sampler key and drew through the
        # retired SeedSequence sampler.
        spec = CampaignSpec.from_netlist(small_benchmark, campaign_config, 3)
        text = _retired_spec_json(spec, format=2)
        with pytest.raises(ValueError, match="format 2.*SeedSequence"):
            CampaignSpec.from_json(text)

    @pytest.mark.parametrize("sampler", ["sequence", None, 3])
    def test_non_counter_sampler_rejected(self, small_benchmark,
                                          campaign_config, sampler):
        spec = CampaignSpec.from_netlist(small_benchmark, campaign_config, 3)
        text = _retired_spec_json(spec, sampler=sampler)
        with pytest.raises(ValueError, match="sampler .* is not supported"):
            CampaignSpec.from_json(text)

    @pytest.mark.parametrize("key,value", [("power_backend", "unpacked"),
                                           ("sim_backend", "loop")])
    def test_non_default_backend_rejected(self, small_benchmark,
                                          campaign_config, key, value):
        # The netlist picks the trace engine; a stored spec may only name
        # the one engine every format-3 campaign ran on.
        spec = CampaignSpec.from_netlist(small_benchmark, campaign_config, 3)
        stored = json.loads(spec.to_json())["tvla"]
        assert (stored["sim_backend"], stored["power_backend"]) == (
            "compiled", "packed")
        text = _retired_spec_json(spec, **{key: value})
        with pytest.raises(ValueError, match=f"{key} .* is not supported"):
            CampaignSpec.from_json(text)

    @pytest.mark.parametrize("changes", [{"format": 2},
                                         {"sampler": "sequence"},
                                         {"power_backend": "unpacked"},
                                         {"sim_backend": "loop"}])
    def test_load_spec_rejects_retired_campaign_directory(
            self, small_benchmark, campaign_config, campaign_root, changes):
        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=3)
        paths = CampaignPaths(campaign_root, outcome.spec_hash)
        spec = load_spec(campaign_root, outcome.spec_hash)
        paths.spec_path.write_text(_retired_spec_json(spec, **changes))
        with pytest.raises(ValueError):
            load_spec(campaign_root, outcome.spec_hash)

    def test_unknown_spec_format_rejected(self, small_benchmark,
                                          campaign_config):
        spec = CampaignSpec.from_netlist(small_benchmark, campaign_config, 2)
        data = json.loads(spec.to_json())
        data["format"] = 1
        with pytest.raises(ValueError, match="unsupported campaign spec"):
            CampaignSpec.from_json(json.dumps(data))


# ----------------------------------------------------------------------
# Per-campaign context: one spec/netlist/schedule/generator per process
# ----------------------------------------------------------------------
def _count_generators(monkeypatch):
    """Count every ``PowerTraceGenerator`` constructed from now on."""
    from repro.power.traces import PowerTraceGenerator

    built = {"n": 0}
    original = PowerTraceGenerator.__init__

    def counting_init(self, *args, **kwargs):
        built["n"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(PowerTraceGenerator, "__init__", counting_init)
    return built


def _drain_with_threads(root, n_threads):
    import threading

    threads = [threading.Thread(
        target=run_worker, kwargs=dict(queue=campaign_queue(root),
                                       worker=f"t{index}", drain=True))
        for index in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)


class TestCampaignContext:
    def test_one_generator_per_campaign_and_none_at_collect(
            self, small_benchmark, campaign_config, campaign_root,
            monkeypatch):
        from repro.campaign import runner

        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=4)
        assert outcome.n_shards_total == 4
        built = _count_generators(monkeypatch)
        _drain_with_threads(campaign_root, 2)
        assert built["n"] == 1
        key = runner._context_key(campaign_root, outcome.spec_hash)
        assert key in runner._CAMPAIGN_CONTEXT_CACHE
        collect_result(campaign_root, outcome.spec_hash, timeout=60)
        assert built["n"] == 1
        # Evicted once collect returns.
        assert key not in runner._CAMPAIGN_CONTEXT_CACHE

    def test_degraded_collect_evicts_context(self, small_benchmark,
                                             campaign_config, campaign_root):
        from repro.campaign import runner

        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=2)
        queue = campaign_queue(campaign_root)
        paths = CampaignPaths(campaign_root, outcome.spec_hash)
        for _ in range(queue.default_max_attempts):
            task = queue.claim()
            assert task.key == paths.shard_key(0)
            queue.fail(task.task_id, task.lease_token, "poisoned")
        run_worker(queue, drain=True)  # shard 1 succeeds
        key = runner._context_key(campaign_root, outcome.spec_hash)
        assert key in runner._CAMPAIGN_CONTEXT_CACHE
        degraded = collect_result(campaign_root, outcome.spec_hash,
                                  timeout=5, allow_partial=True)
        assert degraded.failed_shards == (0,)
        assert key not in runner._CAMPAIGN_CONTEXT_CACHE

    def test_roots_never_share_a_context(self, small_benchmark,
                                         campaign_config, tmp_path,
                                         monkeypatch):
        from repro.campaign import runner

        roots = [tmp_path / "a", tmp_path / "b"]
        hashes = {submit_campaign(root, netlist=small_benchmark,
                                  config=campaign_config,
                                  n_shards=2).spec_hash for root in roots}
        assert len(hashes) == 1
        spec_hash = hashes.pop()
        built = _count_generators(monkeypatch)
        contexts = [runner._campaign_context(root, spec_hash)
                    for root in roots]
        assert built["n"] == 2
        assert contexts[0] is not contexts[1]
        assert runner._campaign_context(roots[0], spec_hash) is contexts[0]
        assert built["n"] == 2

    @pytest.mark.parametrize("damage", ["corrupt", "missing"])
    def test_failed_build_is_not_cached(self, small_benchmark,
                                        campaign_config, campaign_root,
                                        damage):
        from repro.campaign import runner
        from repro.campaign.runner import run_shard_task

        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=2)
        spec_path = CampaignPaths(campaign_root, outcome.spec_hash).spec_path
        good = spec_path.read_bytes()
        if damage == "corrupt":
            spec_path.write_bytes(good[:len(good) // 2])
        else:
            spec_path.unlink()
        with pytest.raises((ValueError, FileNotFoundError)):
            run_shard_task(str(campaign_root), outcome.spec_hash, 0)
        key = runner._context_key(campaign_root, outcome.spec_hash)
        assert key not in runner._CAMPAIGN_CONTEXT_CACHE
        spec_path.write_bytes(good)
        done = run_shard_task(str(campaign_root), outcome.spec_hash, 0)
        assert done["skipped"] is False
        assert key in runner._CAMPAIGN_CONTEXT_CACHE

    def test_quarantined_checkpoint_recomputed_from_context(
            self, small_benchmark, campaign_root):
        from repro.campaign.runner import run_shard_task

        config = TvlaConfig(**CAMPAIGN_TVLA)
        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=config, n_shards=3)
        run_worker(campaign_queue(campaign_root), drain=True)
        paths = CampaignPaths(campaign_root, outcome.spec_hash)
        shard_path = paths.shard_path(1)
        sealed = shard_path.read_bytes()
        tampered = bytearray(sealed)
        tampered[len(sealed) // 2] ^= 0xFF  # breaks the seal's digest
        shard_path.write_bytes(bytes(tampered))
        redone = run_shard_task(str(campaign_root), outcome.spec_hash, 1)
        assert redone["skipped"] is False
        assert shard_path.read_bytes() == sealed
        assert shard_path.with_name(shard_path.name + ".corrupt").exists()
        result = collect_result(campaign_root, outcome.spec_hash, timeout=60)
        reference = assess_leakage(small_benchmark, config)
        assert np.array_equal(result.t_values, reference.t_values)

    def test_concurrent_first_use_builds_once(self, tiny_netlist, tmp_path,
                                              monkeypatch):
        import sys
        import threading
        from repro.campaign import runner

        config = TvlaConfig(n_traces=40, n_fixed_classes=1, seed=5,
                            chunk_traces=20)
        roots = [tmp_path / f"root{index}" for index in range(3)]
        hashes = [submit_campaign(root, netlist=tiny_netlist, config=config,
                                  n_shards=1).spec_hash for root in roots]
        built = _count_generators(monkeypatch)
        seen = []
        barrier = threading.Barrier(12)

        def use(root, spec_hash):
            barrier.wait(timeout=30)
            seen.append((root, runner._campaign_context(root, spec_hash)))

        threads = [threading.Thread(target=use, args=(roots[i % 3],
                                                      hashes[i % 3]))
                   for i in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert built["n"] == 3  # one build per root, however many callers
        for root in roots:
            assert len({id(context) for owner, context in seen
                        if owner == root}) == 1
        assert len(runner._CAMPAIGN_CONTEXT_CACHE) <= \
            runner._CONTEXT_CACHE_SIZE

    def test_cache_never_exceeds_its_bound(self, tiny_netlist, tmp_path):
        from repro.campaign import runner

        config = TvlaConfig(n_traces=40, n_fixed_classes=1, seed=5,
                            chunk_traces=20)
        bound = runner._CONTEXT_CACHE_SIZE
        keys = []
        for index in range(bound + 2):
            root = tmp_path / f"root{index}"
            spec_hash = submit_campaign(root, netlist=tiny_netlist,
                                        config=config,
                                        n_shards=1).spec_hash
            runner.campaign_gate_names(root, spec_hash)
            keys.append(runner._context_key(root, spec_hash))
            assert len(runner._CAMPAIGN_CONTEXT_CACHE) <= bound
        assert keys[0] not in runner._CAMPAIGN_CONTEXT_CACHE
        assert keys[1] not in runner._CAMPAIGN_CONTEXT_CACHE
        assert keys[-1] in runner._CAMPAIGN_CONTEXT_CACHE

    def test_context_schedule_is_read_only(self, tiny_netlist,
                                           campaign_root):
        from repro.campaign import runner

        config = TvlaConfig(n_traces=40, n_fixed_classes=1, seed=5,
                            chunk_traces=20)
        spec_hash = submit_campaign(campaign_root, netlist=tiny_netlist,
                                    config=config, n_shards=1).spec_hash
        context = runner._campaign_context(campaign_root, spec_hash)
        for pair in context.campaigns:
            for campaign in pair:
                assert not campaign.previous.flags.writeable
                assert not campaign.current.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            context.setflags(write=True)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_counter_campaign_bitwise_serial(self, small_benchmark,
                                             campaign_root, order):
        config = TvlaConfig(tvla_order=order, **CAMPAIGN_TVLA)
        reference = assess_leakage(small_benchmark, config)
        result = run_campaign(campaign_root, small_benchmark, config,
                              n_shards=4, n_workers=2)
        _assert_order_t_values_equal(result, reference)


def _assert_order_t_values_equal(result, reference):
    assert np.array_equal(result.t_values, reference.t_values)
    assert sorted(result.order_t_values) == sorted(reference.order_t_values)
    for order, values in reference.order_t_values.items():
        assert np.array_equal(result.order_t_values[order], values)


class TestDrainWakeUp:
    def test_idle_drainer_wakes_when_sibling_acks(self, tmp_path):
        """A draining worker waiting on a sibling's lease exits as soon as
        that sibling acks, not a full ``poll_interval`` later."""
        import threading

        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(pickle.dumps((_nap, (0.05,), {})))
        queue.put(pickle.dumps((_nap, (1.0,), {})))
        exited = {}

        def drain(name):
            run_worker(TaskQueue(tmp_path / "q.sqlite"), worker=name,
                       drain=True, poll_interval=5.0)
            exited[name] = time.monotonic()

        threads = [threading.Thread(target=drain, args=(name,), daemon=True)
                   for name in ("w0", "w1")]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert queue.counts()["done"] == 2
        # The slow task takes 1 s; the fast worker idles from ~0.05 s on
        # and must leave right after the slow worker's ack.
        assert abs(exited["w0"] - exited["w1"]) < 1.0
        assert max(exited.values()) - started < 4.0

    def test_idle_drainer_honours_stop_event(self, tmp_path):
        """A draining worker waiting on a sibling's lease returns promptly
        once its ``stop_event`` is set, not a full ``poll_interval``
        later."""
        import threading

        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(pickle.dumps((_nap, (0.05,), {})))
        # The sibling holds the only task and never settles it.
        assert queue.claim(worker="sibling", lease_seconds=60) is not None
        stop = threading.Event()
        thread = threading.Thread(
            target=run_worker,
            args=(TaskQueue(tmp_path / "q.sqlite"),),
            kwargs=dict(worker="drainer", drain=True, poll_interval=5.0,
                        stop_event=stop),
            daemon=True)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive()
        stopped = time.monotonic()
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert time.monotonic() - stopped < 1.0
        assert queue.counts()["leased"] == 1


# ----------------------------------------------------------------------
# The slow-but-alive worker: SIGSTOP past lease expiry
# ----------------------------------------------------------------------
class TestSlowButAliveWorker:
    def test_sigstopped_worker_is_fenced_out(self, tmp_path, monkeypatch,
                                             small_benchmark):
        """SIGSTOP a worker mid-shard until its lease expires: the shard
        is reclaimed and completed elsewhere, the resumed worker's stale
        ack is rejected, and the result stays bit-identical."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        monkeypatch.setenv("POLARIS_FAULT_PLAN",
                           "worker.shard:mode=delay,delay=1.1")
        root = tmp_path / "runs"
        config = TvlaConfig(**CAMPAIGN_TVLA)
        outcome = submit_campaign(root, netlist=small_benchmark,
                                  config=config, n_shards=2)
        queue = campaign_queue(root)
        src_dir = str(Path(__file__).resolve().parents[1] / "src")

        # A pre-renewal worker (--no-renew) on a lease shorter than one
        # 1.1s shard: it can only survive by finishing fast — and we
        # freeze it instead.
        frozen = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign.cli", "work",
             "--root", str(root), "--max-tasks", "1",
             "--lease-seconds", "0.6", "--no-renew"],
            env={**os.environ, "PYTHONPATH": src_dir,
                 "POLARIS_FAULT_PLAN": "worker.shard:mode=delay,delay=1.1"},
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if queue.counts()["leased"] >= 1:
                    break
                time.sleep(0.02)
            assert queue.counts()["leased"] == 1, \
                "frozen worker never claimed a shard"
            stopped_id = next(
                task_id for task_id in (1, 2)
                if queue.lease_info(task_id)["status"] == "leased")
            time.sleep(0.25)  # well inside the 1.1s shard
            os.kill(frozen.pid, signal.SIGSTOP)

            # A stopped process stops renewing too: the lease expires
            # while the worker is alive-but-frozen, and a healthy worker
            # reclaims and completes the shard.
            time.sleep(0.7)
            executed = run_worker(queue, worker="rescuer", drain=True)
            assert executed == 2
            done = queue.lease_info(stopped_id)
            assert done["status"] == "done"
            assert done["worker"] == "rescuer"
            assert done["attempts"] == 2  # frozen claim + reclaim

            # Thaw the frozen worker: it finishes its sleep, recomputes
            # the (identical) checkpoint, and tries to ack with a stale
            # token — which must change nothing.
            os.kill(frozen.pid, signal.SIGCONT)
            stdout, _ = frozen.communicate(timeout=30)
            assert frozen.returncode == 0
            assert "1 task(s) executed" in stdout
            unchanged = queue.lease_info(stopped_id)
            assert unchanged == done  # stale ack rejected: row untouched
        finally:
            if frozen.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(frozen.pid, signal.SIGCONT)
                frozen.kill()
                frozen.wait(10)

        faulted = collect_result(root, outcome.spec_hash, timeout=30)

        # Bit-identical to an undisturbed campaign of the same layout.
        monkeypatch.delenv("POLARIS_FAULT_PLAN")
        clean = run_campaign(tmp_path / "clean", small_benchmark, config,
                             n_shards=2)
        assert np.array_equal(faulted.t_values, clean.t_values)
        assert np.array_equal(faulted.degrees_of_freedom,
                              clean.degrees_of_freedom)


# ----------------------------------------------------------------------
# Content-addressed result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_round_trip_bit_identical(self, small_benchmark, campaign_config,
                                      tmp_path):
        assessment = assess_leakage(small_benchmark, campaign_config)
        revived = assessment_from_dict(assessment_to_dict(assessment))
        _assert_assessments_equal(assessment, revived)
        assert revived.elapsed_seconds == assessment.elapsed_seconds
        assert revived.t_values.dtype == assessment.t_values.dtype

    def test_stored_streamed_key_is_ignored(self, small_benchmark,
                                            campaign_config):
        # Results stored (or in flight) from builds that recorded which
        # driver ran still load.
        assessment = assess_leakage(small_benchmark, campaign_config)
        payload = assessment_to_dict(assessment)
        assert "streamed" not in payload
        for streamed in (True, False):
            revived = assessment_from_dict({**payload, "streamed": streamed})
            _assert_assessments_equal(assessment, revived)

    def test_store_is_write_once(self, small_benchmark, campaign_config,
                                 tmp_path):
        store = ResultStore(tmp_path / "store")
        first = assess_leakage(small_benchmark, campaign_config)
        key = "ab" * 32
        assert store.put(key, first, metadata={"origin": "test"})
        second = assess_leakage(
            small_benchmark,
            TvlaConfig(**{**CAMPAIGN_TVLA, "seed": 99}))
        assert not store.put(key, second)  # first write wins
        assert np.array_equal(store.get(key).t_values, first.t_values)
        assert store.metadata(key) == {"origin": "test"}
        assert list(store.keys()) == [key]
        assert len(store) == 1

    def test_missing_and_invalid_keys(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("cd" * 32) is None
        assert not store.has("cd" * 32)
        with pytest.raises(ValueError, match="content hash"):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError, match="content hash"):
            store.get("xyz")

    def test_corrupt_object_rejected(self, small_benchmark, campaign_config,
                                     tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ef" * 32
        store.put(key, assess_leakage(small_benchmark, campaign_config))
        store.object_path(key).write_text("{ not json")
        with pytest.raises(ValueError, match="corrupt"):
            store.get(key)

    def test_as_result_store_coercion(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert as_result_store(store) is store
        assert as_result_store(tmp_path / "store").root == store.root


# ----------------------------------------------------------------------
# Store wiring: assess_many and protect_design
# ----------------------------------------------------------------------
class TestStoreWiring:
    def test_assess_many_serves_cache_without_simulating(
            self, small_benchmark, tiny_netlist, campaign_config, tmp_path,
            monkeypatch):
        store = tmp_path / "store"
        first = assess_many([small_benchmark, tiny_netlist], campaign_config,
                            n_shards=2, store=store)

        from repro.tvla import sharding

        def no_simulation(*args, **kwargs):
            raise AssertionError("cache hit must not simulate")

        monkeypatch.setattr(sharding, "_streamed_class_results",
                            no_simulation)
        second = assess_many([small_benchmark, tiny_netlist], campaign_config,
                             n_shards=2, store=store)
        for name in first:
            _assert_assessments_equal(first[name], second[name])

    def test_assess_many_partial_cache(self, small_benchmark, tiny_netlist,
                                       campaign_config, tmp_path):
        store = tmp_path / "store"
        only_tiny = assess_many([tiny_netlist], campaign_config, n_shards=2,
                                store=store)
        both = assess_many([small_benchmark, tiny_netlist], campaign_config,
                           n_shards=2, store=store)
        assert np.array_equal(both[tiny_netlist.name].t_values,
                              only_tiny[tiny_netlist.name].t_values)
        assert set(both) == {small_benchmark.name, tiny_netlist.name}

    def test_protect_design_before_after_cached(self, trained_polaris,
                                                tiny_netlist, tmp_path,
                                                monkeypatch):
        from repro.core import pipeline, protect_design

        calls = {"count": 0}
        real_assess = pipeline.assess_leakage

        def counting_assess(*args, **kwargs):
            calls["count"] += 1
            return real_assess(*args, **kwargs)

        monkeypatch.setattr(pipeline, "assess_leakage", counting_assess)
        store = tmp_path / "store"
        first = protect_design(tiny_netlist, trained_polaris, store=store)
        assert calls["count"] == 2  # before + after were really assessed
        second = protect_design(tiny_netlist, trained_polaris, store=store)
        assert calls["count"] == 2  # both served from the store
        _assert_assessments_equal(first.before, second.before)
        _assert_assessments_equal(first.after, second.after)
        assert first.leakage == second.leakage


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def _submit_args(self, root):
        return ["submit", "--root", str(root),
                "--benchmark", "des3", "--scale", "0.25",
                "--design-seed", "99", "--traces", "240",
                "--chunk-traces", "48", "--classes", "2", "--seed", "7",
                "--shards", "3"]

    def test_submit_work_status_result(self, campaign_root, capsys,
                                       small_benchmark, campaign_config):
        assert cli_main(self._submit_args(campaign_root)) == 0
        spec_hash = capsys.readouterr().out.split()[1]
        assert cli_main(["work", "--root", str(campaign_root),
                         "--drain"]) == 0
        assert "3 task(s) executed" in capsys.readouterr().out
        assert cli_main(["status", "--root", str(campaign_root)]) == 0
        assert "3/3 shards" in capsys.readouterr().out
        assert cli_main(["result", "--root", str(campaign_root),
                         spec_hash, "--timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "des3" in out and "leaky gates" in out
        # The CLI campaign equals the serial in-process assessment: the
        # fixture small_benchmark is the same (des3, 0.25, 99) design.
        result = collect_result(campaign_root, spec_hash)
        reference = assess_leakage(small_benchmark, campaign_config)
        np.testing.assert_allclose(result.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_submit_rejects_too_few_traces(self, campaign_root, capsys):
        args = self._submit_args(campaign_root)
        args[args.index("--traces") + 1] = "1"
        assert cli_main(args) != 0
        assert "n_traces" in capsys.readouterr().err
        assert list_campaigns(campaign_root) == []
        assert sum(campaign_queue(campaign_root).counts().values()) == 0

    def test_resubmission_reports_cached(self, campaign_root, capsys):
        assert cli_main(self._submit_args(campaign_root)) == 0
        spec_hash = capsys.readouterr().out.split()[1]
        assert cli_main(["work", "--root", str(campaign_root),
                         "--drain"]) == 0
        assert cli_main(["result", "--root", str(campaign_root),
                         spec_hash]) == 0
        capsys.readouterr()
        assert cli_main(self._submit_args(campaign_root)) == 0
        assert "cached" in capsys.readouterr().out

    def test_result_json_round_trips(self, campaign_root, capsys):
        assert cli_main(self._submit_args(campaign_root)) == 0
        spec_hash = capsys.readouterr().out.split()[1]
        cli_main(["work", "--root", str(campaign_root), "--drain"])
        capsys.readouterr()
        assert cli_main(["result", "--root", str(campaign_root), spec_hash,
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        revived = assessment_from_dict(payload)
        assert revived.design_name == "des3"
        assert revived.n_shards == 3

    def test_status_empty_root(self, campaign_root, capsys):
        assert cli_main(["status", "--root", str(campaign_root)]) == 0
        assert "no campaigns" in capsys.readouterr().out

    def test_status_json_stable_keys(self, campaign_root, capsys):
        # The machine-readable contract CI scripts rely on: a JSON array
        # with exactly these keys per campaign — no text scraping.
        assert cli_main(self._submit_args(campaign_root)) == 0
        spec_hash = capsys.readouterr().out.split()[1]
        assert cli_main(["work", "--root", str(campaign_root),
                         "--drain"]) == 0
        capsys.readouterr()
        assert cli_main(["status", "--root", str(campaign_root),
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        entry = payload[0]
        assert sorted(entry) == ["complete", "design", "failed_shards",
                                 "n_shards_done", "n_shards_total",
                                 "n_traces", "spec_hash", "state"]
        assert entry["spec_hash"] == spec_hash
        assert entry["design"] == "des3"
        assert entry["n_shards_done"] == entry["n_shards_total"] == 3
        assert entry["state"] == "merging" and entry["complete"] is False
        assert entry["failed_shards"] == []
        # After collection the same keys flip to the complete state.
        assert cli_main(["result", "--root", str(campaign_root),
                         spec_hash, "--timeout", "30"]) == 0
        capsys.readouterr()
        assert cli_main(["status", "--root", str(campaign_root),
                         spec_hash, "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)[0]
        assert entry["state"] == "complete" and entry["complete"] is True

    def test_status_json_empty_root_is_empty_array(self, campaign_root,
                                                   capsys):
        assert cli_main(["status", "--root", str(campaign_root),
                         "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_result_timeout_is_an_error(self, campaign_root, capsys):
        assert cli_main(self._submit_args(campaign_root)) == 0
        spec_hash = capsys.readouterr().out.split()[1]
        # No worker ran: collecting with a tiny timeout must fail cleanly.
        assert cli_main(["result", "--root", str(campaign_root), spec_hash,
                         "--timeout", "0.2"]) == 1
        assert "missing shards" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Daemon worker mode (--forever) and idle cutoffs
# ----------------------------------------------------------------------
class TestWorkerDaemonMode:
    def test_forever_rejects_drain(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_worker(queue, forever=True, drain=True)

    def test_forever_with_max_idle_exits_after_serving(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        for value in range(3):
            queue.put(pickle.dumps((_double, (value,), {})))
        started = time.monotonic()
        executed = run_worker(queue, forever=True, poll_interval=0.01,
                              max_poll_interval=0.05, max_idle=0.3)
        elapsed = time.monotonic() - started
        assert executed == 3
        assert queue.outstanding() == 0
        # Exited via the idle cutoff, not instantly and not hanging.
        assert 0.3 <= elapsed < 10.0

    def test_max_idle_applies_without_forever(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        executed = run_worker(queue, poll_interval=0.01, max_idle=0.1)
        assert executed == 0

    def test_long_poll_interval_valid_without_forever(self, tmp_path):
        """The backoff ceiling only constrains forever mode: a plain
        worker may poll slower than the default max_poll_interval."""
        queue = TaskQueue(tmp_path / "q.sqlite")
        queue.put(pickle.dumps((_double, (4,), {})))
        assert run_worker(queue, poll_interval=30.0, max_tasks=1) == 1
        with pytest.raises(ValueError, match="max_poll_interval"):
            run_worker(queue, forever=True, poll_interval=30.0)

    def test_backoff_reduces_claim_pressure_while_idle(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        claims = {"n": 0}
        real_claim = queue.claim

        def counting_claim(**kwargs):
            claims["n"] += 1
            return real_claim(**kwargs)

        queue.claim = counting_claim
        run_worker(queue, forever=True, poll_interval=0.02,
                   max_poll_interval=0.2, max_idle=0.6)
        backoff_claims = claims["n"]
        claims["n"] = 0
        run_worker(queue, poll_interval=0.02, max_idle=0.6)
        flat_claims = claims["n"]
        # Exponential backoff (0.02 -> 0.04 -> ... -> 0.2) must poll the
        # queue strictly less often than the flat 20 ms loop over the same
        # idle window.
        assert backoff_claims < flat_claims

    def test_backoff_resets_after_a_task(self, tmp_path):
        queue = TaskQueue(tmp_path / "q.sqlite")
        sleeps = []

        def run():
            return run_worker(queue, forever=True, poll_interval=0.01,
                              max_poll_interval=0.08, max_idle=0.25)

        real_sleep = time.sleep

        def recording_sleep(seconds):
            sleeps.append(round(seconds, 4))
            real_sleep(min(seconds, 0.02))

        import repro.campaign.queue as queue_module
        original = queue_module.time.sleep
        queue_module.time.sleep = recording_sleep
        try:
            queue.put(pickle.dumps((_double, (1,), {})))
            run()
        finally:
            queue_module.time.sleep = original
        # The first idle sleep after serving the task restarts at the
        # configured poll_interval and doubles from there.
        assert sleeps[0] == pytest.approx(0.01)
        assert max(sleeps) <= 0.08 + 1e-9

    def test_cli_forever_max_idle(self, campaign_root, capsys):
        assert cli_main(TestCli()._submit_args(campaign_root)) == 0
        capsys.readouterr()
        assert cli_main(["work", "--root", str(campaign_root), "--forever",
                         "--poll-interval", "0.02",
                         "--max-poll-interval", "0.1",
                         "--max-idle", "0.5"]) == 0
        assert "3 task(s) executed" in capsys.readouterr().out

    def test_cli_forever_drain_conflict(self, campaign_root, capsys):
        assert cli_main(["work", "--root", str(campaign_root), "--forever",
                         "--drain"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Store eviction (prune) and root gc
# ----------------------------------------------------------------------
class TestStorePrune:
    def _store_with(self, tmp_path, stamps):
        """A store holding one tiny assessment per (key, created_at)."""
        from repro.tvla import LeakageAssessment

        store = ResultStore(tmp_path / "store")
        for key, stamp in stamps.items():
            assessment = LeakageAssessment(
                design_name=f"d_{key[:4]}", gate_names=("g1",),
                t_values=np.array([1.0]),
                degrees_of_freedom=np.array([3.0]), threshold=4.5,
                n_traces=16, elapsed_seconds=0.0)
            assert store.put(key, assessment)
            # Rewrite the recorded created_at to the pinned stamp.
            path = store.object_path(key)
            data = json.loads(path.read_text())
            data["created_at"] = stamp
            path.write_text(json.dumps(data, sort_keys=True))
        return store

    def test_prune_by_age_keeps_young_objects(self, tmp_path):
        now = 1_000_000.0
        old, young = "a" * 64, "b" * 64
        store = self._store_with(tmp_path, {old: now - 500, young: now - 10})
        pruned = store.prune(max_age=100, now=now)
        assert pruned == [old]
        assert not store.has(old) and store.has(young)
        assert len(store) == 1

    def test_prune_honours_keep_hashes(self, tmp_path):
        now = 1_000_000.0
        first, second = "a" * 64, "b" * 64
        store = self._store_with(tmp_path,
                                 {first: now - 500, second: now - 500})
        pruned = store.prune(max_age=100, keep_hashes=[first], now=now)
        assert pruned == [second]
        assert store.has(first)

    def test_prune_all_without_age(self, tmp_path):
        store = self._store_with(tmp_path, {"a" * 64: 1.0, "b" * 64: 2.0})
        assert sorted(store.prune()) == ["a" * 64, "b" * 64]
        assert len(store) == 0

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = self._store_with(tmp_path, {"a" * 64: 1.0})
        assert store.prune(dry_run=True) == ["a" * 64]
        assert store.has("a" * 64)

    def test_pruned_key_can_be_rewritten(self, tmp_path):
        """Write-once applies to live objects; eviction reopens the slot."""
        from repro.tvla import LeakageAssessment

        store = self._store_with(tmp_path, {"a" * 64: 1.0})
        store.prune()
        assessment = LeakageAssessment(
            design_name="again", gate_names=("g1",),
            t_values=np.array([2.0]), degrees_of_freedom=np.array([3.0]),
            threshold=4.5, n_traces=16, elapsed_seconds=0.0)
        assert store.put("a" * 64, assessment)
        assert store.get("a" * 64).design_name == "again"


class TestRootGc:
    def _completed_campaign(self, campaign_root, small_benchmark,
                            campaign_config):
        assessment = run_campaign(campaign_root, small_benchmark,
                                  campaign_config, n_shards=2, n_workers=1)
        outcome = submit_campaign(campaign_root, netlist=small_benchmark,
                                  config=campaign_config, n_shards=2)
        assert outcome.status == "cached"
        return outcome.spec_hash, assessment

    def test_gc_prunes_shards_of_stored_campaigns(self, campaign_root,
                                                  small_benchmark,
                                                  campaign_config):
        from repro.campaign import gc_campaign_root

        spec_hash, assessment = self._completed_campaign(
            campaign_root, small_benchmark, campaign_config)
        paths = CampaignPaths(campaign_root, spec_hash)
        assert paths.shards_dir.exists()
        outcome = gc_campaign_root(campaign_root, max_age=10 ** 9,
                                   prune_shards=True)
        assert outcome.pruned_shard_dirs == (spec_hash,)
        assert outcome.pruned_results == ()  # too young to evict
        assert not paths.shards_dir.exists()
        # The merged result still serves bit-identically from the store.
        _assert_assessments_equal(collect_result(campaign_root, spec_hash),
                                  assessment)

    def test_gc_evicted_campaign_recomputes_identically(self, campaign_root,
                                                        small_benchmark,
                                                        campaign_config):
        from repro.campaign import gc_campaign_root

        spec_hash, assessment = self._completed_campaign(
            campaign_root, small_benchmark, campaign_config)
        outcome = gc_campaign_root(campaign_root, prune_shards=True)
        assert outcome.pruned_results == (spec_hash,)
        # Re-running the identical campaign rebuilds the identical result.
        again = run_campaign(campaign_root, small_benchmark,
                             campaign_config, n_shards=2, n_workers=1)
        _assert_assessments_equal(again, assessment)

    def test_gc_dry_run_touches_nothing(self, campaign_root,
                                        small_benchmark, campaign_config):
        from repro.campaign import gc_campaign_root

        spec_hash, _ = self._completed_campaign(campaign_root,
                                                small_benchmark,
                                                campaign_config)
        paths = CampaignPaths(campaign_root, spec_hash)
        outcome = gc_campaign_root(campaign_root, prune_shards=True,
                                   dry_run=True)
        assert outcome.dry_run
        assert outcome.pruned_results == (spec_hash,)
        assert outcome.pruned_shard_dirs == (spec_hash,)
        assert paths.shards_dir.exists()
        assert collect_result(campaign_root, spec_hash) is not None

    def test_cli_gc(self, campaign_root, capsys, small_benchmark,
                    campaign_config):
        spec_hash, _ = self._completed_campaign(campaign_root,
                                                small_benchmark,
                                                campaign_config)
        capsys.readouterr()
        assert cli_main(["gc", "--root", str(campaign_root),
                         "--max-age-days", "30", "--shards",
                         "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict 0 result(s)" in out
        assert spec_hash[:12] in out  # the shards line
        assert cli_main(["gc", "--root", str(campaign_root), "--all"]) == 0
        assert "evicted 1 result(s)" in capsys.readouterr().out
        assert not campaign_status(campaign_root, spec_hash).complete
