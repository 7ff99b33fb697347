"""Synchronous service client (used by the CLI and tests).

A thin, thread-safe wrapper over one TCP connection: sends are serialised
by a lock, receives run a buffered newline scan through
:func:`repro.service.protocol.read_frames`.  The client is deliberately
synchronous — CLI verbs are plain processes; only the server is an
asyncio program.

Connection loss is **not** terminal while a watch is active: the client
redials through the shared :class:`~repro.reliability.policy.RetryPolicy`,
re-subscribes to the watched campaign, and dedupes the re-pushed progress
frames — so a stream followed across a server bounce converges to the
same bitwise result as an uninterrupted one.  Timeouts still raise (a
slow server is not a dead one), and a clean EOF with nothing watched is
still the normal end of stream.
"""

from __future__ import annotations

import socket
import threading
from typing import Iterator, Optional, Set, Tuple

from ..reliability import faults
from ..reliability.policy import RetryPolicy
from .protocol import (
    FRAME_LIMIT,
    CampaignAccepted,
    CampaignProgress,
    Message,
    ProtocolError,
    ServiceError,
    SubmitCampaign,
    WatchCampaign,
    encode_message,
    read_frames,
)


class ServiceUnavailableError(ConnectionError):
    """The service endpoint refused, dropped, or timed out."""


#: Default redial policy: five attempts over roughly two seconds — long
#: enough to ride out a service restart, short enough that a dead
#: endpoint fails fast.
_DEFAULT_RETRY = RetryPolicy(max_attempts=5, base_delay=0.1,
                             max_delay=1.0, jitter=0.25)


class ServiceClient:
    """One connection to an :class:`AssessmentService`.

    Safe usage is one *receiving* thread; any number of threads may
    :meth:`send`.  Use as a context manager::

        with ServiceClient(host, port) as client:
            accepted = client.submit(tenant, spec_json)
            for frame in client.events():
                ...

    ``retry`` tunes the reconnect backoff (:data:`_DEFAULT_RETRY` when
    omitted); ``reconnect=False`` restores the legacy fail-fast
    behaviour where any socket error mid-stream is terminal.
    """

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 reconnect: bool = True) -> None:
        self.host = host
        self.port = port
        self._timeout = timeout
        self._retry = _DEFAULT_RETRY if retry is None else retry
        self._reconnect_enabled = reconnect
        self._send_lock = threading.Lock()
        self._buffer = b""
        self._pending: list = []
        #: The (tenant, spec_hash) this connection follows, if any — what
        #: a reconnect re-subscribes to.
        self._subscription: Optional[Tuple[str, str]] = None
        #: (spec_hash, shards_done) of progress frames already yielded; a
        #: re-subscribed server re-pushes its current state, and folds are
        #: monotone in the shards_done set, so exact-tuple dedupe keeps
        #: the resumed stream identical to an uninterrupted one.  Bounded
        #: by the campaign's shard count.
        self._seen_progress: Set[Tuple[str, Tuple[int, ...]]] = set()
        try:
            self._sock = self._dial()
        except OSError as error:
            raise ServiceUnavailableError(
                f"cannot reach service at {host}:{port}: {error}"
            ) from error

    def _dial(self) -> socket.socket:
        return socket.create_connection((self.host, self.port),
                                        timeout=self._timeout)

    # ------------------------------------------------------------------
    def reconnect(self) -> None:
        """Redial (with backoff) and re-subscribe the active watch.

        Raises :class:`ServiceUnavailableError` when every attempt in the
        retry policy fails.
        """
        with self._send_lock:
            try:
                self._sock.close()
            except OSError:
                pass
            try:
                self._sock = self._retry.call(self._dial, retry_on=OSError)
            except OSError as error:
                raise ServiceUnavailableError(
                    f"cannot re-reach service at {self.host}:{self.port}: "
                    f"{error}") from error
            # A fresh connection starts a fresh frame stream; decoded
            # frames in _pending are still valid and stay queued.
            self._buffer = b""
            if self._subscription is not None:
                tenant, spec_hash = self._subscription
                try:
                    self._sock.sendall(encode_message(
                        WatchCampaign(tenant=tenant, spec_hash=spec_hash)))
                except OSError as error:
                    raise ServiceUnavailableError(
                        f"connection to {self.host}:{self.port} lost during "
                        f"re-subscribe: {error}") from error

    def _lost(self, reason: str) -> None:
        """Handle a dropped connection mid-recv: resume or surface it."""
        if self._reconnect_enabled and self._subscription is not None:
            self.reconnect()  # caller keeps receiving on the new socket
            return
        raise ServiceUnavailableError(reason)

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send one frame (thread-safe).

        The ``service.send`` fault site models lossy frame I/O: ``drop``
        swallows the frame, ``sever`` kills the connection first, and
        ``delay`` stalls it.

        Raises:
            ProtocolError: if the frame is longer than the server reads
                (:data:`~repro.service.protocol.FRAME_LIMIT`); nothing is
                written.
        """
        frame = encode_message(message)
        size = len(frame) - 1  # the limit excludes the newline
        if size > FRAME_LIMIT:
            raise ProtocolError(
                f"{type(message).__name__} frame is {size} bytes, over the "
                f"service's {FRAME_LIMIT}-byte frame limit; submit a "
                f"netlist this large with submit_campaign on the shared "
                f"campaign root (polaris-campaign submit without --follow)")
        with self._send_lock:
            rule = faults.perturb("service.send")
            if rule is not None:
                if rule.mode == "drop":
                    return
                if rule.mode == "sever":
                    try:
                        self._sock.close()
                    except OSError:
                        pass
            try:
                self._sock.sendall(frame)
            except OSError as error:
                raise ServiceUnavailableError(
                    f"connection to {self.host}:{self.port} lost: {error}"
                ) from error

    def recv(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Receive the next frame; ``None`` on clean end of stream.

        While a watch is active, connection loss (reset *or* EOF — a
        bounced server closes cleanly) triggers a reconnect + resume
        instead of an error, and progress frames replayed by the
        re-subscribe are deduped.  Timeouts always raise: the connection
        is alive, the server is just slow, and redialing would lose
        frames.

        Raises:
            ServiceUnavailableError: on timeout, on socket errors with no
                active watch, or when a reconnect exhausts its retries.
            ProtocolError: on an undecodable frame from the server.
        """
        while True:
            message = self._recv_frame(timeout)
            if message is None:
                return None
            if isinstance(message, CampaignProgress) \
                    and self._subscription is not None:
                key = (message.spec_hash, message.shards_done)
                if key in self._seen_progress:
                    continue  # replay from a resumed subscription
                self._seen_progress.add(key)
            return message

    def _recv_frame(self, timeout: Optional[float]) -> Optional[Message]:
        while True:
            if self._pending:
                return self._pending.pop(0)
            rule = faults.perturb("service.recv")
            if rule is not None and rule.mode == "sever":
                try:
                    self._sock.close()
                except OSError:
                    pass
            try:
                self._sock.settimeout(timeout)
                chunk = self._sock.recv(65536)
            except socket.timeout as error:
                raise ServiceUnavailableError(
                    f"no frame from {self.host}:{self.port} within "
                    f"{timeout}s") from error
            except OSError as error:
                self._lost(str(error))
                continue
            if not chunk:
                if self._subscription is None \
                        or not self._reconnect_enabled:
                    return None  # clean end of stream
                self._lost("server closed the stream")
                continue
            self._buffer += chunk
            frames, self._buffer = read_frames(self._buffer)
            self._pending.extend(frames)

    def events(self, timeout: Optional[float] = None
               ) -> Iterator[Message]:
        """Yield frames until EOF (or a per-frame timeout trips)."""
        while True:
            message = self.recv(timeout=timeout)
            if message is None:
                return
            yield message

    # ------------------------------------------------------------------
    def submit(self, tenant: str, spec_json: str,
               follow: bool = True,
               timeout: Optional[float] = 30.0) -> CampaignAccepted:
        """Submit a campaign; returns the accept frame.

        With ``follow=True`` the accepted campaign becomes this
        connection's subscription, so a later connection loss resumes the
        stream instead of killing it.

        Raises:
            ProtocolError: when the server answers with a
                :class:`ServiceError` instead of accepting.
        """
        self.send(SubmitCampaign(tenant=tenant, spec_json=spec_json,
                                 follow=follow))
        message = self.recv(timeout=timeout)
        if isinstance(message, CampaignAccepted):
            if follow:
                self._subscription = (tenant, message.spec_hash)
            return message
        if isinstance(message, ServiceError):
            raise ProtocolError(
                f"submission rejected [{message.code}]: {message.message}")
        raise ProtocolError(
            f"expected CampaignAccepted, got "
            f"{type(message).__name__ if message else 'EOF'}")

    def watch(self, tenant: str, spec_hash: str) -> None:
        """Subscribe this connection to a campaign's stream (resumed
        automatically across reconnects)."""
        message = WatchCampaign(tenant=tenant, spec_hash=spec_hash)
        self._subscription = (tenant, spec_hash)
        self.send(message)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._subscription = None
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ServiceClient", "ServiceUnavailableError"]
