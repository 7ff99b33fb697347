"""Tests for the live assessment service (`repro.service`).

The contracts pinned here:

* the wire codec is canonical (same message -> same bytes), versioned,
  and **strict**: unknown types, version skew, missing and stray body
  fields are all hard protocol errors — no silently-ignored keys;
* whatever bytes arrive, decoding returns a message or raises
  :class:`ProtocolError`, and the live server answers with a
  :class:`ServiceError` and keeps serving (hypothesis-fuzzed);
* tenant ids are path/key-safe by construction, and two tenants
  submitting the *same* spec into the shared queue get disjoint tasks;
* shard results have one way in — sealed checkpoints on disk: a forged
  version-1 ``ShardPartial`` frame is a bad frame and never reaches the
  result store;
* the server folds the checkpoints of plain queue workers in global shard
  order, so the progress frame emitted after the final shard carries
  t-values **bitwise equal** to the batch ``collect_result`` — also under
  faults (a worker SIGKILLed mid-shard, completion via lease expiry, a
  worker renewing its lease past the original expiry);
* a terminally failed shard is reported once per watcher.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import functools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignPaths,
    campaign_store,
    collect_result,
    run_campaign,
    run_worker,
)
from repro.campaign.runner import verified_checkpoint
from repro.campaign.serialize import assessment_from_dict, decode_array
from repro.campaign.spec import CampaignSpec
from repro.netlist import RandomLogicSpec, generate_random_logic
from repro.netlist.benchmarks import load_benchmark
from repro.netlist.writer import write_bench, write_bench_file
from repro.service import (
    AssessmentService,
    CampaignAccepted,
    CampaignComplete,
    CampaignProgress,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    SubmitCampaign,
    WatchCampaign,
    decode_message,
    encode_message,
    read_frames,
    validate_tenant,
)
from repro.service.protocol import FRAME_LIMIT
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
            CampaignProgress(tenant="t", spec_hash="h", n_shards_total=3,
                             shards_done=(0, 2), t_values={},
                             order_t_values={}, max_abs_t=1.25,
                             leaking_gates=("g1",)),
            CampaignComplete(tenant="t", spec_hash="h",
                             assessment={"design_name": "d"}),
            ServiceError(code="bad-spec", message="nope"),
        ]
        for message in messages:
            assert decode_message(encode_message(message)) == message

    def test_encoding_is_canonical(self):
        message = WatchCampaign(tenant="t", spec_hash="f" * 64)
        assert encode_message(message) == encode_message(message)
        # Sorted keys + compact separators: the byte layout is pinned.
        frame = encode_message(ServiceError(code="c", message="m"))
        assert frame == (b'{"body":{"code":"c","message":"m"},'
                         b'"type":"ServiceError","v":2}\n')

    def test_version_skew_is_rejected(self):
        for version in (1, 3):
            frame = json.dumps({"v": version, "type": "ServiceError",
                                "body": {"code": "c", "message": "m"}})
            with pytest.raises(ProtocolError, match="version"):
                decode_message(frame)

    def test_unknown_type_is_rejected(self):
        for type_name in ("Nope", "ShardPartial", "WorkerHeartbeat", [1]):
            frame = json.dumps({"v": 2, "type": type_name, "body": {}})
            with pytest.raises(ProtocolError, match="unknown message type"):
                decode_message(frame)

    def test_missing_and_stray_fields_are_rejected(self):
        with pytest.raises(ProtocolError, match="missing=\\['message'\\]"):
            decode_message(json.dumps(
                {"v": 2, "type": "ServiceError", "body": {"code": "c"}}))
        with pytest.raises(ProtocolError, match="unexpected=\\['extra'\\]"):
            decode_message(json.dumps(
                {"v": 2, "type": "ServiceError",
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
        paths = CampaignPaths(tmp_path, "f" * 64, "lab")
        assert paths.campaign_root == tmp_path / "tenants" / "lab"
        assert paths.shard_key(2) == f"tenant:lab:{'f' * 64}:shard:2"
        plain = CampaignPaths(tmp_path, "f" * 64)
        assert plain.campaign_root == tmp_path
        assert plain.shard_key(2) == f"{'f' * 64}:shard:2"


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

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "service failed to start"
    yield holder["server"]
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(10)


def _frames_within(client, seconds):
    """Every frame ``client`` receives in the next ``seconds``."""
    frames, end = [], time.monotonic() + seconds
    while (left := end - time.monotonic()) > 0:
        try:
            frames.append(client.recv(timeout=left))
        except ServiceUnavailableError:
            break
    return frames


def _exchange(service, line, deadline=2.0, until_closed=False):
    """Send one raw line on a fresh connection; return ``(frames, closed)``.

    Reads until the first reply frame arrives (with ``until_closed``:
    until the server hangs up) or ``deadline`` seconds pass.
    """
    frames, buffer = [], b""
    end = time.monotonic() + deadline
    with socket.create_connection((service.host, service.port),
                                  timeout=deadline) as sock:
        try:
            sock.sendall(line)
        except OSError:
            pass  # the server may hang up mid-line; its reply is queued
        while (left := end - time.monotonic()) > 0:
            sock.settimeout(left)
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            except OSError:
                chunk = b""
            if not chunk:
                return frames, True
            buffer += chunk
            decoded, buffer = read_frames(buffer)
            frames.extend(decoded)
            if frames and not until_closed:
                break
    return frames, False


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

    def test_non_string_spec_is_bad_spec(self, service):
        line = encode_message(SubmitCampaign(tenant="lab", spec_json=5))
        frames, _closed = _exchange(service, line)
        assert [frame.code for frame in frames] == ["bad-spec"]

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

    @pytest.mark.parametrize("spec_hash", [
        [1], {"a": 1}, 7, "h", "F" * 64, "f" * 63, "../" * 21 + "f"],
        ids=["list", "dict", "int", "short", "upper", "63-hex", "path"])
    def test_watch_malformed_spec_hash_is_bad_frame(self, service,
                                                    spec_hash):
        # Checked on decode, before the hash is a dict key or a path.
        line = json.dumps({"v": 2, "type": "WatchCampaign",
                           "body": {"tenant": "lab",
                                    "spec_hash": spec_hash}}).encode()
        frames, _closed = _exchange(service, line + b"\n")
        assert [(type(frame), frame.code) for frame in frames] == \
            [(ServiceError, "bad-frame")]
        assert "spec_hash" in frames[0].message

    def test_cli_watch_rejects_a_malformed_hash(self, service, capsys):
        from repro.campaign.cli import main as cli_main

        endpoint = f"{service.host}:{service.port}"
        assert cli_main(["watch", "--connect", endpoint, "abc123"]) == 1
        assert "invalid spec_hash" in capsys.readouterr().err

    def test_monitor_absorbs_disk_only_partials(self, service):
        # A plain queue worker writes checkpoints straight to disk; the
        # monitor rescan folds them and completes the campaign.
        spec = _spec()
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            run_worker(service.queue, worker="plain", drain=True)
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
            # ~0.9s) and is SIGKILLed mid-shard; its renewals stop, its
            # lease expires and the shard is redelivered.
            doomed = subprocess.Popen(
                [sys.executable, "-m", "repro.campaign.cli", "work",
                 "--root", str(shared_root), "--max-tasks", "1",
                 "--lease-seconds", "0.7"],
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

            # Survivor: a plain queue worker on a 0.5s lease — shorter
            # than one shard, so it *must* renew past the original expiry.
            executed = run_worker(service.queue, worker="survivor",
                                  drain=True, lease_seconds=0.5)
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
        collected = collect_result(shared_root, spec.content_hash,
                                   timeout=30, tenant=tenant)
        streamed_t = decode_array(final.t_values)
        assert np.array_equal(streamed_t, collected.t_values)
        assert streamed_t.dtype == collected.t_values.dtype

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
# One door for shard results
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _recording_listener():
    """A bare TCP listener that records every byte its one connection
    receives; yields ``(host, port, received)``."""
    received = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def serve_one():
            connection, _ = listener.accept()
            with connection:
                while chunk := connection.recv(65536):
                    received.append(chunk)

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        yield host, port, received
        thread.join(10)
        assert not thread.is_alive()


def _oversized_netlist():
    """A synthetic netlist whose BENCH text alone exceeds the frame
    limit (the bundled designs all fit)."""
    netlist = generate_random_logic(RandomLogicSpec(
        n_gates=2600, n_inputs=32, n_outputs=16, seed=5))
    assert len(write_bench(netlist).encode()) > FRAME_LIMIT
    return netlist


class TestFrameLimit:
    def test_oversized_submit_never_reaches_the_server(self):
        spec = CampaignSpec.from_netlist(_oversized_netlist(),
                                         TvlaConfig(**SERVICE_TVLA))
        with _recording_listener() as (host, port, received):
            with ServiceClient(host, port) as client:
                with pytest.raises(ProtocolError) as error:
                    client.submit("lab", spec.to_json())
        size = len(encode_message(SubmitCampaign(
            tenant="lab", spec_json=spec.to_json(), follow=True))) - 1
        assert f"{size} bytes" in str(error.value)
        assert f"{FRAME_LIMIT}-byte" in str(error.value)
        assert received == []

    def test_cli_submit_connect_exits_2(self, tmp_path, capsys):
        from repro.campaign.cli import main as cli_main

        bench = write_bench_file(_oversized_netlist(),
                                 tmp_path / "big.bench")
        with _recording_listener() as (host, port, received):
            code = cli_main(["submit", "--root", str(tmp_path / "runs"),
                             "--bench-file", str(bench), "--follow",
                             "--connect", f"{host}:{port}"])
        assert code == 2
        assert f"{FRAME_LIMIT}-byte frame limit" in capsys.readouterr().err
        assert received == []

    def test_client_limit_is_the_server_limit(self, service):
        """A frame of exactly FRAME_LIMIT bytes (newline excluded) is
        read and answered; one byte more is refused by the client."""
        def frame(pad):
            return SubmitCampaign(tenant="lab", spec_json="x" * pad,
                                  follow=False)
        base = len(encode_message(frame(0))) - 1
        with ServiceClient(service.host, service.port) as client:
            client.send(frame(FRAME_LIMIT - base))
            reply = client.recv(timeout=10)
            assert (type(reply), reply.code) == (ServiceError, "bad-spec")
            with pytest.raises(ProtocolError, match=f"{FRAME_LIMIT + 1} "
                                                    f"bytes"):
                client.send(frame(FRAME_LIMIT - base + 1))


def _v1_shard_partial(tenant, spec_hash, shard_index, payload):
    """A shard-partial frame as protocol version 1 encoded it."""
    envelope = {"v": 1, "type": "ShardPartial",
                "body": {"tenant": tenant, "spec_hash": spec_hash,
                         "shard_index": shard_index,
                         "payload_b64": base64.b64encode(payload).decode(),
                         "worker": "forger"}}
    return json.dumps(envelope, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


class TestSingleDoor:
    def test_forged_partials_never_reach_the_store(self, service, tmp_path):
        # Campaign B (same design, TVLA seed 8) computes honest
        # checkpoints elsewhere; their payloads are then sent as A's
        # shards.  Only sealed checkpoints in A's own directory count, so
        # every frame is a bad frame and A stays pending.
        spec_a = _spec()
        spec_b = CampaignSpec.from_netlist(
            spec_a.netlist(), TvlaConfig(**{**SERVICE_TVLA, "seed": 8}),
            n_shards=3)
        run_campaign(tmp_path / "b", spec_b.netlist(), spec_b.tvla,
                     n_shards=3)
        paths_b = CampaignPaths(tmp_path / "b", spec_b.content_hash)
        forged = [_v1_shard_partial("lab", spec_a.content_hash, k,
                                    verified_checkpoint(paths_b, k)[0])
                  for k in range(3)]
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec_a.to_json(), follow=True)
            for line in forged:
                client._sock.sendall(line)
                reply = client.recv(timeout=10)
                assert isinstance(reply, ServiceError), reply
                assert reply.code == "bad-frame"
                assert "version" in reply.message
            # Ten monitor intervals: no progress, no completion.
            assert _frames_within(client, 1.0) == []
        store = campaign_store(
            CampaignPaths(service.root, spec_a.content_hash,
                          "lab").campaign_root)
        assert store.get(spec_a.content_hash) is None
        assert service.queue.counts()["pending"] == 3

    def test_over_limit_line_is_answered_then_closed(self, service):
        frames, closed = _exchange(
            service, b'{"v":2,' + b" " * FRAME_LIMIT + b"}\n",
            deadline=10, until_closed=True)
        assert [(f.code, str(FRAME_LIMIT) in f.message)
                for f in frames] == [("bad-frame", True)]
        assert closed

    def test_quarantine_during_lease_still_reruns_the_shard(self,
                                                             service):
        # The rescan quarantines a corrupt publish while the task is still
        # leased (its requeue is a no-op); once the worker acks, the
        # server finds the done row stale and requeues the shard.
        spec = _spec()
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=False)
        queue = service.queue
        paths = CampaignPaths(service.root, spec.content_hash, "lab")
        task = queue.claim(worker="slow-acker")
        shard = [paths.shard_key(k) for k in range(3)].index(task.key)
        paths.shard_path(shard).write_bytes(b"torn publish")

        def wait_for(condition):
            deadline = time.monotonic() + 10
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.02)
            return condition()

        assert wait_for(lambda: not paths.shard_path(shard).exists())
        assert queue.ack(task.task_id, task.lease_token, b"")
        assert wait_for(lambda: queue.outcome_by_key(
            paths.shard_key(shard))[0] == "pending")

    @pytest.mark.parametrize("follow", [True, False])
    def test_done_shard_without_checkpoint_is_rerun(self, service, follow):
        # A task acked without a checkpoint file — or whose checkpoint
        # another participant quarantined — leaves a stale done row.  The
        # monitor requeues it whether or not anyone watches, so a followed
        # campaign still completes instead of hanging.
        spec = _spec()
        queue = service.queue
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=follow)
            task = queue.claim(worker="no-publish")
            assert queue.ack(task.task_id, task.lease_token, b"")
            deadline = time.monotonic() + 3.0  # thirty monitor intervals
            while queue.outcome_by_key(task.key)[0] != "pending" \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert queue.outcome_by_key(task.key)[0] == "pending"
            assert run_worker(queue, worker="healer", drain=True) == 3
            if follow:
                progress, _ = _drain_until_complete(client, timeout=60)
                assert progress[-1].shards_done == (0, 1, 2)

    def test_failed_shard_is_reported_once_per_watcher(self, service):
        spec = _spec()
        queue = service.queue
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            # Spend one shard's whole attempt budget; the other two stay
            # pending, so the campaign cannot finish degraded either.
            while True:
                task = queue.claim(worker="poison")
                if queue.fail(task.task_id, task.lease_token,
                              "boom") == "failed":
                    break
            errors = _frames_within(client, 1.0)  # ten monitor intervals
            assert len(errors) == 1
            assert isinstance(errors[0], ServiceError)
            assert "exhausted its retries" in errors[0].message
            # A later subscriber gets the same error once, too.
            with ServiceClient(service.host, service.port) as late:
                late.watch("lab", spec.content_hash)
                assert _frames_within(late, 1.0) == errors
        assert queue.counts()["pending"] == 2

    def test_monitor_reads_only_the_queue_for_unfolded_shards(
            self, service, monkeypatch):
        # One shard folded, one pending: each tick asks the queue about
        # the pending shard only, and neither reloads the spec nor
        # re-verifies the folded shard's checkpoint.
        from repro.campaign import runner

        spec = _spec(n_shards=2)
        queue = service.queue
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            assert run_worker(queue, worker="one", max_tasks=1) == 1
            progress = client.recv(timeout=10)
            assert isinstance(progress, CampaignProgress)
            assert len(progress.shards_done) == 1
            calls = []

            def counting(name, real):
                def call(*args, **kwargs):
                    calls.append(name)
                    return real(*args, **kwargs)
                return call

            for name in ("checkpoint_ok", "load_spec"):
                monkeypatch.setattr(runner, name,
                                    counting(name, getattr(runner, name)))
            monkeypatch.setattr(queue, "outcome_by_key", counting(
                "outcome_by_key", queue.outcome_by_key))
            assert _frames_within(client, 0.8) == []  # eight intervals
        assert calls.count("outcome_by_key") >= 4
        assert set(calls) == {"outcome_by_key"}

    def test_failed_and_folded_shards_complete_partially(self, service):
        # Every shard accounted for (one folded, one out of retries): the
        # watcher gets the failure once, then a partial CampaignComplete.
        spec = _spec(n_shards=2)
        queue = service.queue
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            assert run_worker(queue, worker="one", max_tasks=1) == 1
            while True:
                task = queue.claim(worker="poison")
                if queue.fail(task.task_id, task.lease_token,
                              "boom") == "failed":
                    break
            frames = []
            for frame in client.events(timeout=30):
                frames.append(frame)
                if isinstance(frame, CampaignComplete):
                    break
        assert [type(frame) for frame in frames] == \
            [CampaignProgress, ServiceError, CampaignComplete]
        assert frames[-1].assessment["failed_shards"] == \
            [1 - frames[0].shards_done[0]]


# ----------------------------------------------------------------------
# One collector: the server and collect_result finish campaigns alike
# ----------------------------------------------------------------------
def _poison_one_shard(queue):
    """Fail claims until one task has spent its whole attempt budget."""
    while True:
        task = queue.claim(worker="poison")
        if queue.fail(task.task_id, task.lease_token, "boom") == "failed":
            return


class TestCollector:
    def test_finished_campaign_drops_its_partials(self, service):
        spec = _spec()
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            run_worker(service.queue, worker="plain", drain=True)
            _, complete = _drain_until_complete(client)
        campaign = service._campaigns[("lab", spec.content_hash)]
        assert campaign.complete and campaign.collector is None
        # A later watcher is still replayed the final frame.
        with ServiceClient(service.host, service.port) as late:
            late.watch("lab", spec.content_hash)
            _, replayed = _drain_until_complete(late, timeout=10)
        assert replayed == complete

    def test_watch_of_a_stored_campaign_reruns_no_shard(self, service):
        # Collected offline, then its checkpoints pruned by gc --shards:
        # a watch replays the stored result and enqueues nothing.
        from repro.campaign import gc_campaign_root, submit_campaign

        spec = _spec()
        submit_campaign(service.root, spec=spec, tenant="lab")
        run_worker(service.queue, worker="offline", drain=True)
        stored = collect_result(service.root, spec.content_hash,
                                tenant="lab")
        gc_campaign_root(service.root, max_age=10 ** 9, prune_shards=True)
        assert not CampaignPaths(service.root, spec.content_hash,
                                 "lab").shards_dir.exists()
        with ServiceClient(service.host, service.port) as client:
            client.watch("lab", spec.content_hash)
            _, complete = _drain_until_complete(client, timeout=10)
            assert _frames_within(client, 0.5) == []  # five intervals
        assert np.array_equal(
            assessment_from_dict(complete.assessment).t_values,
            stored.t_values)
        assert service.queue.counts()["pending"] == 0

    def test_degraded_complete_equals_collect_allow_partial(self, service):
        # One shard folded, one out of retries: the partial
        # CampaignComplete is bitwise the degraded collect_result.
        spec = _spec(n_shards=2)
        queue = service.queue
        with ServiceClient(service.host, service.port) as client:
            client.submit("lab", spec.to_json(), follow=True)
            assert run_worker(queue, worker="one", max_tasks=1) == 1
            _poison_one_shard(queue)
            complete = next(frame for frame in client.events(timeout=30)
                            if isinstance(frame, CampaignComplete))
        served = assessment_from_dict(complete.assessment)
        collected = collect_result(service.root, spec.content_hash,
                                   timeout=10, tenant="lab",
                                   allow_partial=True)
        assert served.failed_shards == collected.failed_shards
        assert len(served.failed_shards) == 1
        pairs = [(served.t_values, collected.t_values),
                 (served.degrees_of_freedom, collected.degrees_of_freedom)]
        assert sorted(served.order_t_values) == \
            sorted(collected.order_t_values)
        pairs += [(served.order_t_values[k], collected.order_t_values[k])
                  for k in served.order_t_values]
        for left, right in pairs:
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()
        assert service._campaigns[("lab", spec.content_hash)] \
            .collector is None


# ----------------------------------------------------------------------
# Fuzzed frames: a message or ProtocolError, and the server keeps serving
# ----------------------------------------------------------------------
#: One valid frame of every message type; mutations start from these.
#: The submission's spec is not a campaign, so no mutant is accepted.
_VALID_FRAMES = tuple(encode_message(message) for message in (
    SubmitCampaign(tenant="fuzz", spec_json="{}", follow=True),
    CampaignAccepted(tenant="fuzz", spec_hash="h", status="submitted",
                     n_shards_total=3, n_shards_done=0, n_enqueued=3),
    WatchCampaign(tenant="fuzz", spec_hash="f" * 64),
    CampaignProgress(tenant="fuzz", spec_hash="h", n_shards_total=3,
                     shards_done=(0, 2), t_values={}, order_t_values={},
                     max_abs_t=1.25, leaking_gates=("g1",)),
    CampaignComplete(tenant="fuzz", spec_hash="h",
                     assessment={"design_name": "d"}),
    ServiceError(code="bad-spec", message="nope"),
))

#: Frames that once escaped as non-protocol errors or are retired.
_SEED_FRAMES = (
    # int(inf) in CampaignProgress.__post_init__ (OverflowError).
    b'{"body":{"leaking_gates":[],"max_abs_t":0,"n_shards_total":1,'
    b'"order_t_values":{},"shards_done":[1e400],"spec_hash":"h",'
    b'"t_values":{},"tenant":"t"},"type":"CampaignProgress","v":2}\n',
    # Deep nesting inside a body (RecursionError in the JSON parser).
    b'{"body":{"tenant":' + b"[" * 20000 + b"]" * 20000
    + b',"spec_hash":"h"},"type":"WatchCampaign","v":2}\n',
    # A line over the server's read limit.
    b"[" + b"0," * (FRAME_LIMIT // 2) + b"0]\n",
    # A version-1 shard-partial frame.
    _v1_shard_partial("fuzz", "f" * 64, 0, b"\x00" * 64),
    # An unhashable spec_hash once reached the server's campaign dict
    # (TypeError -> an "internal" reply instead of bad-frame).
    b'{"body":{"spec_hash":[1],"tenant":"fuzz"},"type":"WatchCampaign",'
    b'"v":2}\n',
)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10)


@st.composite
def _mutated_frames(draw):
    envelope = json.loads(draw(st.sampled_from(_VALID_FRAMES)))
    body = envelope["body"]
    action = draw(st.sampled_from(("set", "drop", "add", "envelope")))
    if action == "set":
        body[draw(st.sampled_from(sorted(body)))] = draw(_json_values)
    elif action == "drop":
        del body[draw(st.sampled_from(sorted(body)))]
    elif action == "add":
        body[draw(st.text(max_size=8))] = draw(_json_values)
    else:
        envelope[draw(st.sampled_from(("v", "type", "body")))] = \
            draw(_json_values)
    return json.dumps(envelope).encode() + b"\n"


_frames = st.one_of(
    st.sampled_from(_SEED_FRAMES),
    _mutated_frames(),
    st.binary(max_size=256).map(
        lambda raw: raw.replace(b"\n", b"") + b"\n"))


@functools.lru_cache(maxsize=None)
def _liveness_spec_json():
    return _spec(n_shards=1).to_json()


class TestFrameFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @example(line=_SEED_FRAMES[0])
    @example(line=_SEED_FRAMES[1])
    @example(line=_SEED_FRAMES[2])
    @example(line=_SEED_FRAMES[3])
    @example(line=_SEED_FRAMES[4])
    @given(line=st.one_of(_frames, st.text(max_size=64)))
    def test_decode_returns_a_message_or_protocol_error(self, line):
        try:
            message = decode_message(line)
        except ProtocolError:
            return
        assert type(message).__name__ in {
            "SubmitCampaign", "CampaignAccepted", "WatchCampaign",
            "CampaignProgress", "CampaignComplete", "ServiceError"}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @example(line=_SEED_FRAMES[0])
    @example(line=_SEED_FRAMES[1])
    @example(line=_SEED_FRAMES[2])
    @example(line=_SEED_FRAMES[3])
    @example(line=_SEED_FRAMES[4])
    @given(line=_frames)
    def test_server_answers_every_frame_and_keeps_serving(self, service,
                                                          line):
        # One reply within the 2 s deadline, and it is a typed error frame:
        # no client frame reaches the server's catch-all "internal" reply.
        frames, _closed = _exchange(service, line, deadline=2.0)
        assert len(frames) == 1, frames
        assert isinstance(frames[0], ServiceError), frames
        assert frames[0].code != "internal", frames
        # The same server still takes a valid submission.
        with ServiceClient(service.host, service.port) as client:
            accepted = client.submit("fuzz", _liveness_spec_json(),
                                     follow=False, timeout=10)
        assert isinstance(accepted, CampaignAccepted)
