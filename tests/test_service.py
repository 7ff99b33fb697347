"""Tests for the live assessment service (`repro.service`).

The contracts pinned here:

* the wire codec is canonical (same message -> same bytes), versioned,
  and **strict**: unknown types, version skew, missing and stray body
  fields are all hard protocol errors — no silently-ignored keys;
* tenant ids are path/key-safe by construction, and two tenants
  submitting the *same* spec into the shared queue get disjoint tasks;
* the server folds streamed shard partials in global shard order, so the
  progress frame emitted after the final partial carries t-values
  **bitwise equal** to the batch ``collect_result`` — also under faults
  (a worker SIGKILLed
  mid-shard, completion via lease expiry, a worker renewing its lease
  past the original expiry).
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    TaskQueue,
    campaign_queue,
    collect_result,
    run_campaign,
    submit_campaign,
)
from repro.campaign.serialize import decode_array
from repro.campaign.spec import CampaignSpec
from repro.netlist.benchmarks import load_benchmark
from repro.service import (
    AssessmentService,
    CampaignAccepted,
    CampaignComplete,
    CampaignProgress,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ShardPartial,
    SubmitCampaign,
    WorkerHeartbeat,
    decode_message,
    encode_message,
    read_frames,
    run_service_worker,
    tenant_key_prefix,
    tenant_of_root,
    tenant_root,
    validate_tenant,
)
from repro.tvla import TvlaConfig

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: 240 traces in 48-trace chunks -> 5 chunks; 3 shards split 2/2/1.
SERVICE_TVLA = dict(n_traces=240, n_fixed_classes=2, seed=7,
                    chunk_traces=48)


def _spec(n_shards: int = 3) -> CampaignSpec:
    netlist = load_benchmark("des3", scale=0.25, seed=99)
    config = TvlaConfig(**SERVICE_TVLA)
    return CampaignSpec.from_netlist(netlist, config, n_shards=n_shards)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_every_message_type(self):
        messages = [
            SubmitCampaign(tenant="t", spec_json="{}", follow=False),
            CampaignAccepted(tenant="t", spec_hash="h", status="submitted",
                             n_shards_total=3, n_shards_done=0,
                             n_enqueued=3),
            ShardPartial(tenant="t", spec_hash="h", shard_index=1,
                         payload_b64=base64.b64encode(b"xyz").decode(),
                         worker="w1"),
            CampaignProgress(tenant="t", spec_hash="h", n_shards_total=3,
                             shards_done=(0, 2), t_values={},
                             order_t_values={}, max_abs_t=1.25,
                             leaking_gates=("g1",)),
            WorkerHeartbeat(worker="w1", tenant="t", task_id=7,
                            renewals=2, busy=True),
            CampaignComplete(tenant="t", spec_hash="h",
                             assessment={"design_name": "d"}),
            ServiceError(code="bad-spec", message="nope"),
        ]
        for message in messages:
            assert decode_message(encode_message(message)) == message

    def test_encoding_is_canonical(self):
        message = WorkerHeartbeat(worker="w", tenant="t")
        assert encode_message(message) == encode_message(message)
        # Sorted keys + compact separators: the byte layout is pinned.
        frame = encode_message(ServiceError(code="c", message="m"))
        assert frame == (b'{"body":{"code":"c","message":"m"},'
                         b'"type":"ServiceError","v":1}\n')

    def test_version_skew_is_rejected(self):
        frame = json.dumps({"v": 2, "type": "ServiceError",
                            "body": {"code": "c", "message": "m"}})
        with pytest.raises(ProtocolError, match="version"):
            decode_message(frame)

    def test_unknown_type_is_rejected(self):
        frame = json.dumps({"v": 1, "type": "Nope", "body": {}})
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(frame)

    def test_missing_and_stray_fields_are_rejected(self):
        with pytest.raises(ProtocolError, match="missing=\\['message'\\]"):
            decode_message(json.dumps(
                {"v": 1, "type": "ServiceError", "body": {"code": "c"}}))
        with pytest.raises(ProtocolError, match="unexpected=\\['extra'\\]"):
            decode_message(json.dumps(
                {"v": 1, "type": "ServiceError",
                 "body": {"code": "c", "message": "m", "extra": 1}}))

    def test_malformed_json_is_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message(b"{nope")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1,2]")

    def test_read_frames_buffers_partial_lines(self):
        one = encode_message(ServiceError(code="a", message="1"))
        two = encode_message(ServiceError(code="b", message="2"))
        frames, rest = read_frames(one + two[:5])
        assert [f.code for f in frames] == ["a"]
        assert rest == two[:5]
        frames, rest = read_frames(rest + two[5:])
        assert [f.code for f in frames] == ["b"]
        assert rest == b""

    def test_tenant_validation(self):
        assert validate_tenant("lab-7_x") == "lab-7_x"
        for bad in ("", "-lead", "a/b", "a b", "x" * 65, "sneaky\n"):
            with pytest.raises(ProtocolError, match="invalid tenant"):
                validate_tenant(bad)

    def test_tenant_paths_and_prefixes(self, tmp_path):
        root = tenant_root(tmp_path, "lab")
        assert root == tmp_path / "tenants" / "lab"
        assert tenant_key_prefix("lab") == "tenant:lab:"
        assert tenant_of_root(root) == "lab"
        assert tenant_of_root(tmp_path / "plain") == "default"


# ----------------------------------------------------------------------
# Server fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    """A live AssessmentService on a background event loop thread."""
    holder = {}
    started = threading.Event()

    def run():
        async def main():
            server = AssessmentService(tmp_path / "svc",
                                       monitor_interval=0.1,
                                       flatline_after=0.5)
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

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "service failed to start"
    yield holder["server"]
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(10)


def _drain_until_complete(client, timeout=120.0):
    """Collect (progress_frames, complete_frame) from a follow stream."""
    progress = []
    for frame in client.events(timeout=timeout):
        if isinstance(frame, CampaignProgress):
            progress.append(frame)
        elif isinstance(frame, CampaignComplete):
            return progress, frame
        elif isinstance(frame, ServiceError):
            raise AssertionError(f"service error: {frame}")
    raise AssertionError("stream ended before completion")


# ----------------------------------------------------------------------
# Server behaviour
# ----------------------------------------------------------------------
class TestServer:
    def test_submit_accepts_and_enqueues(self, service):
        spec = _spec()
        with ServiceClient(service.host, service.port) as client:
            accepted = client.submit("lab", spec.to_json(), follow=False)
        assert isinstance(accepted, CampaignAccepted)
        assert accepted.status == "submitted"
        assert accepted.spec_hash == spec.content_hash
        assert accepted.n_enqueued == 3
        # The shard tasks landed in the *shared* queue under tenant keys.
        assert service.queue.counts()["pending"] == 3

    def test_two_tenants_same_spec_get_disjoint_tasks(self, service):
        spec = _spec()
        with ServiceClient(service.host, service.port) as client:
            first = client.submit("alice", spec.to_json(), follow=False)
            second = client.submit("bob", spec.to_json(), follow=False)
        assert first.n_enqueued == second.n_enqueued == 3
        assert service.queue.counts()["pending"] == 6
        # Same tenant resubmitting dedupes via idempotent keys.
        with ServiceClient(service.host, service.port) as client:
            again = client.submit("alice", spec.to_json(), follow=False)
        assert again.n_enqueued == 0
        assert service.queue.counts()["pending"] == 6

    def test_bad_tenant_is_rejected(self, service):
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ProtocolError, match="bad-tenant"):
                client.submit("no/slashes", _spec().to_json())

    def test_bad_spec_is_rejected(self, service):
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ProtocolError, match="bad-spec"):
                client.submit("lab", '{"not": "a spec"}')

    @pytest.mark.parametrize("key,value", [("format", 2),
                                           ("sampler", "sequence"),
                                           ("power_backend", "unpacked"),
                                           ("sim_backend", "loop"),
                                           ("streaming", False),
                                           ("noise_mode", "gaussian"),
                                           ("noise_mode", "fast")])
    def test_retired_spec_is_rejected(self, service, key, value):
        # Format-2 specs, non-counter samplers, non-default trace engines,
        # two-pass assessments and non-popcount noise name retired
        # selectors: the service answers bad-spec with the reason.
        data = json.loads(_spec().to_json())
        target = data if key == "format" else data["tvla"]
        (target["power"] if key == "noise_mode" else target)[key] = value
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(
                    ProtocolError,
                    match="bad-spec.*(format 2|sampler|backend|streaming"
                          "|noise_mode)"):
                client.submit("lab", json.dumps(data))

    @pytest.mark.parametrize("spec_json", [
        "[]", '{"format": 3}', '{"format": 3, "design_name": "d", '
        '"bench_text": "", "n_shards": 1, "tvla": null}'])
    def test_malformed_spec_is_bad_spec(self, service, spec_json):
        # Shape errors are ValueErrors too: a bad-spec reply, never an
        # internal error.
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ProtocolError, match="bad-spec"):
                client.submit("lab", spec_json)

    def test_undecodable_frame_gets_error_reply(self, service):
        with ServiceClient(service.host, service.port) as client:
            client._sock.sendall(b"this is not json\n")
            reply = client.recv(timeout=10)
        assert isinstance(reply, ServiceError)
        assert reply.code == "bad-frame"

    def test_watch_unknown_campaign_errors(self, service):
        with ServiceClient(service.host, service.port) as client:
            client.watch("lab", "f" * 64)
            reply = client.recv(timeout=10)
        assert isinstance(reply, ServiceError)
        assert reply.code == "unknown-campaign"

    def test_heartbeats_feed_flatline_tracking(self, service):
        with ServiceClient(service.host, service.port) as client:
            client.send(WorkerHeartbeat(worker="w-alive"))
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if "w-alive" in service._heartbeats:
                    break
                time.sleep(0.02)
        assert "w-alive" in service._heartbeats
        assert service.flatlined_workers() == ()
        time.sleep(0.6)  # > flatline_after=0.5
        assert service.flatlined_workers() == ("w-alive",)

    def test_monitor_absorbs_disk_only_partials(self, service):
        # A plain (non-streaming) worker writes checkpoints straight to
        # disk; the monitor rescan must fold them and complete the
        # campaign without a single ShardPartial frame.
        spec = _spec()
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            queue = service.queue
            from repro.campaign import run_worker
            run_worker(queue, worker="plain", drain=True)
            progress, complete = _drain_until_complete(client)
        assert complete.spec_hash == spec.content_hash
        assert progress[-1].shards_done == (0, 1, 2)


# ----------------------------------------------------------------------
# End-to-end: faults + bitwise-equal streamed t-values
# ----------------------------------------------------------------------
class TestEndToEndStreaming:
    def test_streamed_t_values_bitwise_equal_collect(
            self, service, tmp_path, monkeypatch):
        """The acceptance scenario: one worker SIGKILLed mid-shard, one
        renewing past its original lease; the final progress frame is
        bitwise equal to ``polaris-campaign result``."""
        monkeypatch.setenv("POLARIS_FAULT_PLAN",
                           "worker.shard:mode=delay,delay=0.9")
        spec = _spec()
        tenant = "lab"
        shared_root = service.root

        with ServiceClient(service.host, service.port) as client:
            accepted = client.submit(tenant, spec.to_json(), follow=True)
            assert accepted.n_enqueued == 3

            # Doomed worker: claims one shard (lease 0.7s, shard takes
            # ~0.9s, no renewal) and is SIGKILLed mid-shard; its lease
            # expires and the shard is redelivered.
            doomed = subprocess.Popen(
                [sys.executable, "-m", "repro.campaign.cli", "work",
                 "--root", str(shared_root), "--max-tasks", "1",
                 "--lease-seconds", "0.7", "--no-renew"],
                env={**os.environ, "PYTHONPATH": SRC_DIR,
                     "POLARIS_FAULT_PLAN": "worker.shard:mode=delay,delay=0.9"},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service.queue.counts()["leased"] >= 1:
                    break
                time.sleep(0.02)
            assert service.queue.counts()["leased"] >= 1, \
                "doomed worker never claimed a shard"
            time.sleep(0.3)  # well inside its 0.9s shard
            doomed.kill()
            doomed.wait(10)

            # Survivor: a service worker on a 0.5s lease — shorter than
            # one shard, so it *must* renew past the original expiry.
            executed = run_service_worker(
                shared_root, service.host, service.port,
                worker="survivor", drain=True, lease_seconds=0.5)
            assert executed >= 3  # all shards (incl. the reclaimed one)

            progress, complete = _drain_until_complete(client)

        # Every shard reported; the last frame saw all of them.
        final = progress[-1]
        assert final.shards_done == (0, 1, 2)
        assert final.n_shards_total == 3

        # The survivor really did renew a lease past its original span.
        queue = service.queue
        renewals = []
        for task_id in range(1, 4):
            info = queue.lease_info(task_id)
            assert info is not None and info["status"] == "done"
            renewals.append(info["renewals"])
        assert max(renewals) >= 1

        # Streamed == collected, bitwise, and cross-checked against an
        # undisturbed single-process campaign of the same layout.
        troot = tenant_root(shared_root, tenant)
        collected = collect_result(
            troot, spec.content_hash, timeout=30,
            queue=campaign_queue(shared_root),
            shard_key_prefix=tenant_key_prefix(tenant))
        streamed_t = decode_array(final.t_values)
        assert np.array_equal(streamed_t, collected.t_values)
        assert streamed_t.dtype == collected.t_values.dtype

        from repro.campaign.serialize import assessment_from_dict
        complete_assessment = assessment_from_dict(complete.assessment)
        assert np.array_equal(complete_assessment.t_values,
                              collected.t_values)
        assert np.array_equal(complete_assessment.degrees_of_freedom,
                              collected.degrees_of_freedom)

        monkeypatch.delenv("POLARIS_FAULT_PLAN")
        clean = run_campaign(tmp_path / "clean", spec.netlist(),
                             spec.tvla, n_shards=3)
        assert np.array_equal(collected.t_values, clean.t_values)


# ----------------------------------------------------------------------
# Service worker plumbing
# ----------------------------------------------------------------------
class TestServiceWorker:
    def test_worker_streams_partials_and_heartbeats(self, service):
        spec = _spec(n_shards=2)
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            executed = run_service_worker(
                service.root, service.host, service.port,
                worker="streamer", drain=True, heartbeat_interval=0.05)
            assert executed == 2
            progress, complete = _drain_until_complete(client)
        # Partials were *streamed* (progress preceded the disk rescan
        # interval) and the beacon registered the worker.
        assert [len(frame.shards_done) for frame in progress][-1] == 2
        assert "streamer" in service._heartbeats

    def test_worker_survives_dead_server(self, tmp_path, service):
        # Killing the service must not take the fleet down: with the
        # endpoint gone the client raises on connect, which the CLI
        # would surface — but an already-connected worker keeps draining
        # (sends are swallowed as observational).
        spec = _spec(n_shards=2)
        troot = tenant_root(service.root, "lab")
        submit_campaign(troot, spec=spec, queue=service.queue,
                        shard_key_prefix=tenant_key_prefix("lab"))
        client = ServiceClient(service.host, service.port)
        client.close()  # worker-side connection loss, not server death
        executed = run_service_worker(
            service.root, service.host, service.port,
            worker="stoic", drain=True)
        assert executed == 2
