"""The live assessment server: an asyncio front-end over the campaign root.

One :class:`AssessmentService` owns a shared campaign root and serves
newline-delimited protocol frames (see :mod:`repro.service.protocol`)
over TCP.  It layers *liveness* on the existing durable machinery without
replacing any of it:

* submissions go through :func:`repro.campaign.runner.submit_campaign`
  into the root's SQLite :class:`TaskQueue` — the server never computes
  shards itself;
* shard results have one way in: each open campaign holds the
  :class:`repro.campaign.runner.ShardCollector` that ``collect_result``
  polls, and a monitor task reads it every ``monitor_interval``, folding
  each sealed checkpoint once it verifies.  No frame a client sends can
  carry shard data, so nothing but a verified checkpoint reaches the
  write-once result store; the cost is that progress arrives up to one
  ``monitor_interval`` after a checkpoint lands.  Worker liveness is the
  queue's business: lease rows carry ``heartbeat_at`` / ``renewals``;
* the collector merges the present shards in shard-index order, so the
  progress frame emitted after the final shard is bitwise equal to the
  collected assessment, and a degraded campaign completes exactly as
  ``collect_result(allow_partial=True)`` returns it.

Tenancy (:class:`repro.campaign.runner.CampaignPaths`): each tenant's
campaigns live in a private sub-root with its own result store, while
shard tasks from every tenant share the root's queue.

Blocking work (SQLite, file I/O, numpy folds) runs in worker threads via
``asyncio.to_thread``; per-campaign folds are serialised by a lock so
frames are emitted in fold order.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union

from ..campaign.runner import (
    CampaignPaths,
    ShardCollector,
    campaign_queue,
    campaign_store,
    load_spec,
    submit_campaign,
)
from ..campaign.serialize import assessment_to_dict, encode_array
from ..campaign.spec import CampaignSpec
from ..tvla.assessment import LeakageAssessment
from .protocol import (
    FRAME_LIMIT,
    CampaignAccepted,
    CampaignComplete,
    CampaignProgress,
    Message,
    ProtocolError,
    ServiceError,
    SubmitCampaign,
    WatchCampaign,
    decode_message,
    encode_message,
    validate_tenant,
)


@dataclass
class _Campaign:
    """Server-side state of one (tenant, spec_hash) campaign.

    A finished campaign (complete or degraded) drops its ``collector``,
    and with it the shard partials, keeping only the replayed frames.
    """

    tenant: str
    spec_hash: str
    collector: Optional[ShardCollector]
    watchers: Set["_Connection"] = field(default_factory=set)
    fold_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    last_progress: Optional[CampaignProgress] = None
    final_frame: Optional[CampaignComplete] = None
    #: The error frame of each terminally failed shard, sent once per
    #: watcher: broadcast when the failure is first seen, replayed to
    #: later subscribers by ``_push_state``.
    failures: Dict[int, ServiceError] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.final_frame is not None

    def finish(self, assessment: LeakageAssessment) -> CampaignComplete:
        """Record the final frame and drop the shard partials."""
        self.final_frame = CampaignComplete(
            tenant=self.tenant, spec_hash=self.spec_hash,
            assessment=assessment_to_dict(assessment))
        self.collector = None
        return self.final_frame


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
        monitor_interval: Seconds between checkpoint-directory rescans —
            the only way shard results reach the server.
    """

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0, monitor_interval: float = 0.25) -> None:
        self.root = Path(root)
        self.host = host
        self.port = port
        self.monitor_interval = monitor_interval
        self.queue = campaign_queue(self.root)
        self._campaigns: Dict[Tuple[str, str], _Campaign] = {}
        self._connections: Set[_Connection] = set()
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
            self._handle_connection, self.host, self.port, limit=FRAME_LIMIT)
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
                try:
                    line = await reader.readline()
                except ValueError:
                    # The rest of an over-long line cannot be told apart
                    # from the next frame: answer once, then hang up.
                    connection.send(ServiceError(
                        code="bad-frame",
                        message=f"frame exceeds the {FRAME_LIMIT}-byte "
                                f"line limit"))
                    break
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
            else:
                connection.send(ServiceError(
                    code="bad-frame",
                    message=f"unexpected {type(message).__name__} "
                            f"from a client"))
        except ProtocolError as error:
            # Only validate_tenant raises ProtocolError past decoding: every
            # other field is checked when its frame is decoded (bad-frame).
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
        except (TypeError, ValueError) as error:  # TypeError: not a string
            connection.send(ServiceError(code="bad-spec",
                                         message=str(error)))
            return
        outcome = await asyncio.to_thread(
            submit_campaign, self.root, spec=spec, tenant=tenant)
        campaign = self._ensure_campaign(tenant, spec)
        connection.send(CampaignAccepted(
            tenant=tenant, spec_hash=outcome.spec_hash,
            status=outcome.status, n_shards_total=outcome.n_shards_total,
            n_shards_done=outcome.n_shards_done,
            n_enqueued=outcome.n_enqueued))
        if message.follow:
            campaign.watchers.add(connection)
        await self._finalise_from_store(campaign)
        await self._absorb_disk_partials(campaign)
        self._push_state(campaign, connection if message.follow else None)

    async def _handle_watch(self, connection: _Connection,
                            message: WatchCampaign) -> None:
        tenant = validate_tenant(message.tenant)
        key = (tenant, message.spec_hash)
        campaign = self._campaigns.get(key)
        if campaign is None:
            paths = CampaignPaths(self.root, message.spec_hash, tenant)
            try:
                spec = await asyncio.to_thread(
                    load_spec, paths.campaign_root, message.spec_hash)
            except (FileNotFoundError, ValueError):
                connection.send(ServiceError(
                    code="unknown-campaign",
                    message=f"no campaign {message.spec_hash[:12]}… "
                            f"for tenant {tenant!r}"))
                return
            campaign = self._ensure_campaign(tenant, spec)
        campaign.watchers.add(connection)
        await self._finalise_from_store(campaign)
        await self._absorb_disk_partials(campaign)
        self._push_state(campaign, connection)

    # ------------------------------------------------------------------
    # Campaign state / folding
    # ------------------------------------------------------------------
    def _ensure_campaign(self, tenant: str, spec: CampaignSpec) -> _Campaign:
        key = (tenant, spec.content_hash)
        campaign = self._campaigns.get(key)
        if campaign is None:
            paths = CampaignPaths(self.root, spec.content_hash, tenant)
            campaign = _Campaign(
                tenant=tenant, spec_hash=spec.content_hash,
                collector=ShardCollector(paths, spec, self.queue))
            self._campaigns[key] = campaign
        return campaign

    async def _absorb_disk_partials(self, campaign: _Campaign
                                    ) -> Tuple[int, ...]:
        """Fold the shard checkpoints that reached disk since the last scan;
        returns the missing shards whose task terminally failed.

        This is the server's only input for shard results: each missing
        shard goes through :meth:`ShardCollector.read`, the same read as
        ``collect_result``'s, and every newly folded shard gets its own
        progress frame.
        """
        if campaign.complete:
            return ()
        collector, failed = campaign.collector, []
        for shard_index in collector.missing():
            if campaign.complete or shard_index in collector.partials:
                continue  # folded meanwhile by a concurrent scan
            partials, error = await asyncio.to_thread(collector.read,
                                                      shard_index)
            if partials is not None:
                await self._fold_partial(campaign, shard_index, partials)
            elif error is not None:
                failed.append(shard_index)
        return tuple(failed)

    async def _fold_partial(self, campaign: _Campaign, shard_index: int,
                            partials: tuple) -> None:
        """Fold one shard, broadcast the interim merge and, after the last
        shard, store the result and announce completion."""
        async with campaign.fold_lock:
            collector = campaign.collector
            if campaign.complete or shard_index in collector.partials:
                return
            collector.partials[shard_index] = partials
            assessment = await asyncio.to_thread(collector.merge)
            progress = CampaignProgress(
                tenant=campaign.tenant, spec_hash=campaign.spec_hash,
                n_shards_total=collector.n_shards,
                shards_done=tuple(sorted(collector.partials)),
                t_values=encode_array(assessment.t_values),
                order_t_values={
                    str(order): encode_array(values)
                    for order, values in
                    sorted(assessment.order_t_values.items())},
                max_abs_t=float(assessment.summary()["max_abs_t"]),
                leaking_gates=assessment.leaky_gates)
            campaign.last_progress = progress
            self._broadcast(campaign, progress)
            if collector.done:
                # Announce the stored copy: if a batch collect stored the
                # (identical) result first, streamed and collected views
                # are still bitwise equal by construction.
                stored = await asyncio.to_thread(collector.store, assessment)
                self._broadcast(campaign, campaign.finish(stored))

    async def _finalise_from_store(self, campaign: _Campaign) -> None:
        """Complete a campaign whose result is already stored — checked
        before any checkpoint is read, since ``gc --shards`` deletes those
        and a missing one's ``done`` row would be requeued."""
        async with campaign.fold_lock:
            if campaign.complete:
                return
            paths = campaign.collector.paths
            stored = await asyncio.to_thread(
                campaign_store(paths.campaign_root).get, paths.spec_hash)
            if stored is not None:
                campaign.finish(stored)

    def _push_state(self, campaign: _Campaign,
                    connection: Optional[_Connection]) -> None:
        """Send the latest frames to one (or, with None, no) connection."""
        if connection is None:
            return
        if campaign.last_progress is not None:
            connection.send(campaign.last_progress)
        for error in campaign.failures.values():
            connection.send(error)
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
                    failed_shards = await self._absorb_disk_partials(campaign)
                    await self._report_failures(campaign, failed_shards)
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 — monitor must survive
                    continue

    async def _report_failures(self, campaign: _Campaign,
                               failed_shards: Tuple[int, ...]) -> None:
        if not campaign.watchers:
            return
        failures = {}
        for shard_index in failed_shards:
            error = campaign.failures.get(shard_index)
            if error is None:  # first seen: announce it once
                error = ServiceError(
                    code="internal",
                    message=f"shard {shard_index} of "
                            f"{campaign.spec_hash[:12]}… exhausted "
                            f"its retries")
                self._broadcast(campaign, error)
            failures[shard_index] = error
        campaign.failures = failures
        # Graceful degradation, by the collector's rule: once every shard
        # is folded or terminally failed, a poisoned campaign completes
        # with the partial CampaignComplete ``collect_result(...,
        # allow_partial=True)`` returns — watchers get an answer instead
        # of an error loop that never ends.
        if failed_shards:
            async with campaign.fold_lock:
                if campaign.complete:
                    return
                assessment = await asyncio.to_thread(
                    campaign.collector.degraded, failed_shards)
                if assessment is not None:
                    self._broadcast(campaign, campaign.finish(assessment))


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
