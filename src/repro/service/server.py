"""The live assessment server: an asyncio front-end over the campaign root.

One :class:`AssessmentService` owns a shared campaign root and serves
newline-delimited protocol frames (see :mod:`repro.service.protocol`)
over TCP.  It layers *liveness* on the existing durable machinery without
replacing any of it:

* submissions go through :func:`repro.campaign.runner.submit_campaign`
  into the root's SQLite :class:`TaskQueue` — the server never computes
  shards itself;
* every :class:`ShardPartial` a worker streams in carries the *exact
  bytes* of the shard's durable checkpoint, so the server's incremental
  fold reads the same inputs the batch ``collect`` merge would read from
  disk.  Folding is delegated to
  :func:`repro.tvla.sharding.merge_shard_partials` over the present
  shards in shard-index order — the global-chunk-order association that
  makes the counter sampler's results bitwise independent of shard
  layout — so the progress frame emitted after the final shard is
  bitwise equal to the collected assessment;
* a monitor task rescans checkpoint directories (catching shards
  computed by plain ``polaris-campaign work`` processes that do not
  stream) and watches heartbeat beacons for flatlined workers.

Tenancy: each tenant's campaigns live under ``<root>/tenants/<tenant>``
with a private result store, while shard tasks from every tenant share
the single fleet queue at ``<root>/queue.sqlite`` under
``tenant:<t>:``-prefixed keys.

Blocking work (SQLite, file I/O, numpy folds) runs in worker threads via
``asyncio.to_thread``; per-campaign folds are serialised by a lock so
frames are emitted in fold order.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..campaign.queue import TaskQueue
from ..campaign.runner import (
    CampaignPaths,
    campaign_gate_names,
    campaign_status,
    campaign_store,
    load_spec,
    submit_campaign,
    verified_checkpoint,
)
from ..campaign.serialize import (
    assessment_to_dict,
    encode_array,
    unpack_shard_moments,
)
from ..campaign.spec import CampaignSpec
from ..tvla.assessment import LeakageAssessment, aggregate_class_results
from ..tvla.sharding import merge_shard_partials
from .protocol import (
    CampaignAccepted,
    CampaignComplete,
    CampaignProgress,
    Message,
    ProtocolError,
    ServiceError,
    ShardPartial,
    SubmitCampaign,
    WatchCampaign,
    WorkerHeartbeat,
    decode_message,
    encode_message,
    tenant_key_prefix,
    tenant_root,
    validate_tenant,
)


@dataclass
class _Campaign:
    """Server-side state of one (tenant, spec_hash) campaign."""

    tenant: str
    spec: CampaignSpec
    paths: CampaignPaths
    partials: Dict[int, object] = field(default_factory=dict)
    watchers: Set["_Connection"] = field(default_factory=set)
    fold_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    complete: bool = False
    last_progress: Optional[CampaignProgress] = None
    final_frame: Optional[CampaignComplete] = None
    _gate_names: Optional[Tuple[str, ...]] = None
    started_at: float = field(default_factory=time.perf_counter)

    @property
    def n_shards(self) -> int:
        return len(self.spec.shard_ranges())

    def gate_names(self) -> Tuple[str, ...]:
        if self._gate_names is None:
            self._gate_names = campaign_gate_names(self.paths.root,
                                                   self.spec.content_hash)
        return self._gate_names


class _Connection:
    """One client connection: a reader loop plus a serialised outbox.

    Frames destined for the client are funnelled through an asyncio queue
    drained by a single sender task, so concurrent broadcasts can never
    interleave bytes on the stream.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self.sender: Optional[asyncio.Task] = None
        self.alive = True

    def send(self, message: Message) -> None:
        if self.alive:
            self.outbox.put_nowait(encode_message(message))

    async def drain_outbox(self) -> None:
        try:
            while True:
                frame = await self.outbox.get()
                if frame is None:
                    break
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            self.alive = False

    async def close(self) -> None:
        self.alive = False
        self.outbox.put_nowait(None)
        if self.sender is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self.sender
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class AssessmentService:
    """Live multi-tenant assessment service over one campaign root.

    Usage (tests use exactly this shape)::

        service = AssessmentService(root)
        host, port = await service.start()
        ...
        await service.stop()

    Args:
        root: The shared campaign root (created on demand).
        host: Bind address (default loopback).
        port: Bind port; 0 picks a free port, reported by :meth:`start`.
        monitor_interval: Seconds between checkpoint-directory rescans.
        flatline_after: A worker whose last heartbeat is older than this
            many seconds is listed by :meth:`flatlined_workers`.
    """

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0, monitor_interval: float = 0.25,
                 flatline_after: float = 5.0) -> None:
        self.root = Path(root)
        self.host = host
        self.port = port
        self.monitor_interval = monitor_interval
        self.flatline_after = flatline_after
        self.queue = TaskQueue(self.root / "queue.sqlite")
        self._campaigns: Dict[Tuple[str, str], _Campaign] = {}
        self._connections: Set[_Connection] = set()
        self._heartbeats: Dict[str, Tuple[float, WorkerHeartbeat]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._monitor: Optional[asyncio.Task] = None
        self._handler_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        self._monitor = asyncio.get_running_loop().create_task(
            self._monitor_loop())
        return self.host, self.port

    async def stop(self) -> None:
        """Stop serving: cancel the monitor, drop clients, close the port."""
        try:
            if self._monitor is not None:
                self._monitor.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._monitor
            for connection in list(self._connections):
                await connection.close()
            self._connections.clear()
            if self._handler_tasks:
                # Closed writers feed EOF to their reader loops; wait for
                # the handlers to notice instead of abandoning them.
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        asyncio.gather(*self._handler_tasks,
                                       return_exceptions=True), timeout=2.0)
        finally:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                self._server = None

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI ``serve`` entry)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    def flatlined_workers(self) -> Tuple[str, ...]:
        """Workers whose heartbeat stream went quiet (sorted ids)."""
        now = time.monotonic()
        return tuple(sorted(
            worker for worker, (seen, _beat) in self._heartbeats.items()
            if now - seen > self.flatline_after))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        connection = _Connection(writer)
        connection.sender = asyncio.get_running_loop().create_task(
            connection.drain_outbox())
        self._connections.add(connection)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ProtocolError as error:
                    connection.send(ServiceError(code="bad-frame",
                                                 message=str(error)))
                    continue
                await self._dispatch(connection, message)
        except (ConnectionError, OSError):
            pass
        finally:
            self._connections.discard(connection)
            for campaign in self._campaigns.values():
                campaign.watchers.discard(connection)
            await connection.close()

    async def _dispatch(self, connection: _Connection,
                        message: Message) -> None:
        try:
            if isinstance(message, SubmitCampaign):
                await self._handle_submit(connection, message)
            elif isinstance(message, WatchCampaign):
                await self._handle_watch(connection, message)
            elif isinstance(message, ShardPartial):
                await self._handle_partial(message)
            elif isinstance(message, WorkerHeartbeat):
                self._heartbeats[message.worker] = (time.monotonic(), message)
            else:
                connection.send(ServiceError(
                    code="bad-frame",
                    message=f"unexpected {type(message).__name__} "
                            f"from a client"))
        except ProtocolError as error:
            connection.send(ServiceError(code="bad-tenant",
                                         message=str(error)))
        except Exception as error:  # noqa: BLE001 — connection must survive
            connection.send(ServiceError(
                code="internal", message=f"{type(error).__name__}: {error}"))

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_submit(self, connection: _Connection,
                             message: SubmitCampaign) -> None:
        tenant = validate_tenant(message.tenant)
        try:
            spec = CampaignSpec.from_json(message.spec_json)
        except ValueError as error:
            connection.send(ServiceError(code="bad-spec",
                                         message=str(error)))
            return
        root = tenant_root(self.root, tenant)
        outcome = await asyncio.to_thread(
            submit_campaign, root, spec=spec, queue=self.queue,
            shard_key_prefix=tenant_key_prefix(tenant))
        campaign = self._ensure_campaign(tenant, spec)
        connection.send(CampaignAccepted(
            tenant=tenant, spec_hash=outcome.spec_hash,
            status=outcome.status, n_shards_total=outcome.n_shards_total,
            n_shards_done=outcome.n_shards_done,
            n_enqueued=outcome.n_enqueued))
        if message.follow:
            campaign.watchers.add(connection)
        await self._absorb_disk_partials(campaign)
        if outcome.status == "cached" and not campaign.complete:
            await self._finalise_from_store(campaign)
        self._push_state(campaign, connection if message.follow else None)

    async def _handle_watch(self, connection: _Connection,
                            message: WatchCampaign) -> None:
        tenant = validate_tenant(message.tenant)
        key = (tenant, message.spec_hash)
        campaign = self._campaigns.get(key)
        if campaign is None:
            root = tenant_root(self.root, tenant)
            try:
                spec = await asyncio.to_thread(load_spec, root,
                                               message.spec_hash)
            except (FileNotFoundError, ValueError):
                connection.send(ServiceError(
                    code="unknown-campaign",
                    message=f"no campaign {message.spec_hash[:12]}… "
                            f"for tenant {tenant!r}"))
                return
            campaign = self._ensure_campaign(tenant, spec)
        campaign.watchers.add(connection)
        await self._absorb_disk_partials(campaign)
        self._push_state(campaign, connection)

    async def _handle_partial(self, message: ShardPartial) -> None:
        tenant = validate_tenant(message.tenant)
        key = (tenant, message.spec_hash)
        campaign = self._campaigns.get(key)
        if campaign is None:
            root = tenant_root(self.root, tenant)
            spec = await asyncio.to_thread(load_spec, root,
                                           message.spec_hash)
            campaign = self._ensure_campaign(tenant, spec)
        try:
            packed = base64.b64decode(message.payload_b64, validate=True)
        except (binascii.Error, ValueError) as error:
            raise ProtocolError(f"undecodable shard payload: {error}")
        await self._fold_partial(campaign, message.shard_index, packed)

    # ------------------------------------------------------------------
    # Campaign state / folding
    # ------------------------------------------------------------------
    def _ensure_campaign(self, tenant: str, spec: CampaignSpec) -> _Campaign:
        key = (tenant, spec.content_hash)
        campaign = self._campaigns.get(key)
        if campaign is None:
            paths = CampaignPaths(tenant_root(self.root, tenant),
                                  spec.content_hash,
                                  key_prefix=tenant_key_prefix(tenant))
            campaign = _Campaign(tenant=tenant, spec=spec, paths=paths)
            self._campaigns[key] = campaign
        return campaign

    async def _absorb_disk_partials(self, campaign: _Campaign) -> None:
        """Fold checkpoints that reached disk without being streamed.

        Disk reads go through :func:`verified_checkpoint`: a corrupt
        checkpoint (torn write, tampering) is quarantined and its shard
        requeued on the shared queue instead of being folded or crashing
        the monitor — the campaign heals by recomputation.
        """
        if campaign.complete:
            return
        for shard_index in range(campaign.n_shards):
            if shard_index in campaign.partials:
                continue
            packed = await asyncio.to_thread(self._read_verified,
                                             campaign, shard_index)
            if packed is not None:
                await self._fold_partial(campaign, shard_index, packed)

    def _read_verified(self, campaign: _Campaign,
                       shard_index: int) -> Optional[bytes]:
        found = verified_checkpoint(campaign.paths, shard_index,
                                    queue=self.queue)
        return None if found is None else found[0]

    async def _fold_partial(self, campaign: _Campaign, shard_index: int,
                            packed: bytes) -> None:
        if not 0 <= shard_index < campaign.n_shards:
            raise ProtocolError(
                f"shard {shard_index} out of range "
                f"(campaign has {campaign.n_shards})")
        async with campaign.fold_lock:
            if campaign.complete or shard_index in campaign.partials:
                return
            campaign.partials[shard_index] = await asyncio.to_thread(
                unpack_shard_moments, packed)
            assessment = await asyncio.to_thread(self._interim_fold,
                                                 campaign)
            progress = self._progress_frame(campaign, assessment)
            campaign.last_progress = progress
            self._broadcast(campaign, progress)
            if len(campaign.partials) == campaign.n_shards:
                await self._finalise(campaign, assessment)

    def _interim_fold(self, campaign: _Campaign) -> LeakageAssessment:
        """Merge the present shards in shard-index order (blocking).

        The fold order is the global shard order restricted to the
        present subset — for the counter sampler every chunk's
        accumulators are keyed to global chunk coordinates, so once all
        shards are present this is *exactly* the batch merge and the
        resulting arrays are bitwise equal to ``collect_result``'s.
        """
        config = campaign.spec.tvla
        present = sorted(campaign.partials)
        shard_results = [campaign.partials[k] for k in present]
        class_results = merge_shard_partials(shard_results, config)
        return aggregate_class_results(
            class_results, campaign.spec.design_name,
            campaign.gate_names(), config,
            time.perf_counter() - campaign.started_at,
            n_shards=campaign.n_shards)

    def _progress_frame(self, campaign: _Campaign,
                        assessment: LeakageAssessment) -> CampaignProgress:
        return CampaignProgress(
            tenant=campaign.tenant,
            spec_hash=campaign.spec.content_hash,
            n_shards_total=campaign.n_shards,
            shards_done=tuple(sorted(campaign.partials)),
            t_values=encode_array(assessment.t_values),
            order_t_values={
                str(order): encode_array(values)
                for order, values in
                sorted(assessment.order_t_values.items())},
            max_abs_t=float(assessment.summary()["max_abs_t"]),
            leaking_gates=assessment.leaky_gates)

    async def _finalise(self, campaign: _Campaign,
                        assessment: LeakageAssessment) -> None:
        """Store the merged result and announce completion.

        The store is write-once first-wins: if a concurrent batch
        ``collect_result`` already stored the (identical) assessment the
        put is a no-op, and the announced frame serves the stored copy so
        streamed and collected views are bitwise equal by construction.
        """
        store = campaign_store(campaign.paths.root)
        spec = campaign.spec

        def _store_and_get():
            store.put(spec.content_hash, assessment, metadata={
                "design_name": spec.design_name,
                "n_shards": len(spec.shard_ranges()),
                "n_traces": spec.tvla.n_traces,
            })
            return store.get(spec.content_hash)

        stored = await asyncio.to_thread(_store_and_get)
        campaign.complete = True
        campaign.final_frame = CampaignComplete(
            tenant=campaign.tenant, spec_hash=spec.content_hash,
            assessment=assessment_to_dict(stored))
        self._broadcast(campaign, campaign.final_frame)

    async def _finalise_from_store(self, campaign: _Campaign) -> None:
        """Announce completion of a campaign whose result is already stored."""
        store = campaign_store(campaign.paths.root)
        stored = await asyncio.to_thread(store.get,
                                         campaign.spec.content_hash)
        if stored is None:
            return
        campaign.complete = True
        campaign.final_frame = CampaignComplete(
            tenant=campaign.tenant,
            spec_hash=campaign.spec.content_hash,
            assessment=assessment_to_dict(stored))

    def _push_state(self, campaign: _Campaign,
                    connection: Optional[_Connection]) -> None:
        """Send the latest frames to one (or, with None, no) connection."""
        if connection is None:
            return
        if campaign.last_progress is not None:
            connection.send(campaign.last_progress)
        if campaign.final_frame is not None:
            connection.send(campaign.final_frame)

    def _broadcast(self, campaign: _Campaign, message: Message) -> None:
        for watcher in tuple(campaign.watchers):
            if watcher.alive:
                watcher.send(message)
            else:
                campaign.watchers.discard(watcher)

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    async def _monitor_loop(self) -> None:
        """Absorb disk-only checkpoints and surface failed shards."""
        while True:
            await asyncio.sleep(self.monitor_interval)
            for campaign in list(self._campaigns.values()):
                if campaign.complete:
                    continue
                try:
                    await self._absorb_disk_partials(campaign)
                    await self._report_failures(campaign)
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 — monitor must survive
                    continue

    async def _report_failures(self, campaign: _Campaign) -> None:
        if not campaign.watchers:
            return
        status = await asyncio.to_thread(
            campaign_status, campaign.paths.root,
            campaign.spec.content_hash, queue=self.queue,
            shard_key_prefix=tenant_key_prefix(campaign.tenant))
        for shard_index in status.failed_shards:
            self._broadcast(campaign, ServiceError(
                code="internal",
                message=f"shard {shard_index} of "
                        f"{campaign.spec.content_hash[:12]}… exhausted "
                        f"its retries"))
        # Graceful degradation: once every shard is accounted for (folded
        # or terminally failed) and at least one succeeded, a poisoned
        # campaign completes with a *partial* CampaignComplete naming its
        # failed_shards — watchers get an answer instead of an error loop
        # that never ends.  The degraded assessment is not stored: a
        # resubmission after the fault is fixed recomputes in full.
        if status.failed_shards and campaign.partials and \
                len(campaign.partials) + len(status.failed_shards) \
                >= campaign.n_shards:
            await self._finalise_partial(campaign, status.failed_shards)

    async def _finalise_partial(self, campaign: _Campaign,
                                failed_shards: Tuple[int, ...]) -> None:
        async with campaign.fold_lock:
            if campaign.complete or not campaign.partials:
                return
            assessment = await asyncio.to_thread(self._interim_fold,
                                                 campaign)
            assessment.failed_shards = tuple(sorted(failed_shards))
            campaign.complete = True
            campaign.final_frame = CampaignComplete(
                tenant=campaign.tenant,
                spec_hash=campaign.spec.content_hash,
                assessment=assessment_to_dict(assessment))
            self._broadcast(campaign, campaign.final_frame)


async def _serve(root: Union[str, Path], host: str, port: int,
                 ready_callback=None) -> None:
    """Start a service and block forever (the CLI entry point)."""
    service = AssessmentService(root, host=host, port=port)
    bound_host, bound_port = await service.start()
    if ready_callback is not None:
        ready_callback(bound_host, bound_port)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def serve(root: Union[str, Path], host: str = "127.0.0.1",
          port: int = 0, ready_callback=None) -> None:
    """Run an assessment service until interrupted (blocking).

    ``ready_callback(host, port)`` fires once the socket is bound —
    scripts starting a server subprocess use it to print the picked port.
    """
    try:
        asyncio.run(_serve(root, host, port, ready_callback))
    except KeyboardInterrupt:
        pass


__all__ = ["AssessmentService", "serve"]
