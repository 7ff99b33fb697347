"""Filesystem/SQLite-backed task queue with lease/ack/retry semantics.

:class:`TaskQueue` is a durable multi-producer/multi-consumer queue living
in a single SQLite file (WAL mode).  Its one client is the campaign runner
(:mod:`repro.campaign.runner`): ``submit_campaign`` enqueues shard tasks,
:func:`run_worker` (``polaris-campaign work``, ``run_campaign``, service
workers) executes them, and ``collect_result`` merges their durable
checkpoints.  A task's return value is stored with its ack and readable
through :meth:`TaskQueue.outcome`, but results reach the caller through
the checkpoints, not the queue.

Queue protocol (also documented in ``docs/campaigns.md``):

* ``put`` enqueues a payload, optionally under an idempotency ``key`` — a
  second put of the same key is a no-op returning the existing task, which
  is what makes campaign resubmission safe.
* ``claim`` leases the oldest runnable task to a worker for
  ``lease_seconds``.  A task is runnable when ``pending``, or when
  ``leased`` with an **expired** lease (the worker died mid-shard); each
  claim increments the attempt counter and mints a fresh lease token.
* ``renew`` extends the current lease — the worker heartbeat.  A live
  worker whose task outlasts its lease keeps renewing
  (:func:`run_worker` renews at half-lease intervals while executing), so
  an expired lease really does mean "the worker died or froze": a
  SIGSTOPped or crashed worker stops renewing, its lease lapses, and the
  task is redelivered.  Renewal is token-checked exactly like ``ack``, so
  a stale worker's renew fails instead of resurrecting a redelivered
  task's old lease.
* ``ack`` completes a task — but only with the token of the *current*
  lease.  If a slow-but-alive worker acks after its lease expired and the
  task was redelivered, the first valid ack wins and every later ack is a
  no-op: task results here are deterministic, so duplicate execution is
  wasted work, never wrong answers.
* ``fail`` releases a task for retry, or marks it ``failed`` once its
  attempt budget (``max_attempts``) is exhausted.

Payloads and results are pickled ``(fn, args, kwargs)`` / return values.
Only run workers against queue files you trust: unpickling executes code,
exactly as with :class:`~concurrent.futures.ProcessPoolExecutor` inputs.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
import time
import traceback
import uuid
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from ..reliability import faults
from ..reliability.policy import RetryPolicy

#: Task states persisted in the queue database.
TASK_STATES = ("pending", "leased", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    key           TEXT UNIQUE,
    payload       BLOB NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL,
    lease_token   TEXT,
    lease_expires REAL,
    worker        TEXT,
    result        BLOB,
    error         TEXT,
    enqueued_at   REAL NOT NULL,
    done_at       REAL,
    heartbeat_at  REAL,
    renewals      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS tasks_status ON tasks (status, id);
CREATE INDEX IF NOT EXISTS tasks_lease ON tasks (status, lease_expires);
"""

#: Heartbeat columns added after the first release of the queue schema;
#: opening an old queue file adds them in place (``ALTER TABLE`` is cheap
#: and idempotent here), so long-lived campaign roots keep working.
_MIGRATION_COLUMNS = (
    ("heartbeat_at", "REAL"),
    ("renewals", "INTEGER NOT NULL DEFAULT 0"),
)


#: How often a draining worker's settle wait re-checks its ``stop_event``.
_STOP_POLL_S = 0.05


class _SettleSignal:
    """Process-wide wake-up: every in-process ack or fail bumps a counter.

    A draining worker that finds no claimable task while a sibling still
    holds a lease waits here instead of sleeping blind, so it notices the
    sibling's last ack at once.  Settles in other processes do not signal;
    the wait's timeout (the worker's ``poll_interval``) still covers them.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._count = 0

    def count(self) -> int:
        with self._condition:
            return self._count

    def notify(self) -> None:
        with self._condition:
            self._count += 1
            self._condition.notify_all()

    def wait(self, seen: int, timeout: float,
             stop_event: Optional[threading.Event] = None) -> None:
        """Return once the count moved past ``seen``, ``stop_event`` is
        set, or after ``timeout``.

        A :class:`threading.Event` cannot notify this condition, so with a
        ``stop_event`` the wait re-checks it every :data:`_STOP_POLL_S`.
        """
        deadline = time.monotonic() + timeout
        with self._condition:
            while self._count == seen:
                if stop_event is not None and stop_event.is_set():
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                if stop_event is not None:
                    remaining = min(remaining, _STOP_POLL_S)
                self._condition.wait(remaining)


_SETTLED = _SettleSignal()


@dataclass(frozen=True)
class PutOutcome:
    """Result of :meth:`TaskQueue.put`.

    Attributes:
        task_id: Id of the (new or pre-existing) task under the key.
        action: ``"inserted"`` (new row), ``"existing"`` (keyed task
            already live — pending/leased/done), or ``"requeued"`` (a
            keyed task that had exhausted its retries was reset to
            pending with a fresh attempt budget).
    """

    task_id: int
    action: str


@dataclass(frozen=True)
class ClaimedTask:
    """A leased work unit, as handed to a worker by :meth:`TaskQueue.claim`.

    Attributes:
        task_id: Queue-assigned task id.
        key: Idempotency key (None for anonymous tasks).
        payload: The pickled ``(fn, args, kwargs)`` work description.
        lease_token: Token the worker must present when acking/failing.
        attempts: 1 for first delivery; > 1 marks a redelivery after a
            lease expired (at-least-once semantics).
    """

    task_id: int
    key: Optional[str]
    payload: bytes
    lease_token: str
    attempts: int

    @property
    def redelivered(self) -> bool:
        """Whether an earlier delivery of this task lost its lease."""
        return self.attempts > 1


class TaskQueue:
    """Durable task queue in one SQLite file (safe across processes).

    Args:
        path: Database file; created (with parents) on first use.
        default_lease_seconds: Lease length handed out by :meth:`claim`
            when the caller does not override it.  Leases do **not** need
            to exceed one task's compute time: a live worker renews its
            lease at half-lease intervals (:meth:`renew`, called by
            :func:`run_worker`), so the lease only has to outlast one
            renewal gap.  Short leases mean dead workers are detected —
            and their shards redelivered — quickly.
        default_max_attempts: Attempt budget of tasks enqueued without an
            explicit override.
    """

    def __init__(self, path: Union[str, Path],
                 default_lease_seconds: float = 60.0,
                 default_max_attempts: int = 3) -> None:
        if default_lease_seconds <= 0:
            raise ValueError("default_lease_seconds must be > 0")
        if default_max_attempts < 1:
            raise ValueError("default_max_attempts must be >= 1")
        self.path = Path(path)
        self.default_lease_seconds = float(default_lease_seconds)
        self.default_max_attempts = int(default_max_attempts)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as connection:
            connection.executescript(_SCHEMA)
            existing = {row[1] for row in
                        connection.execute("PRAGMA table_info(tasks)")}
            for column, declaration in _MIGRATION_COLUMNS:
                if column not in existing:
                    connection.execute(
                        f"ALTER TABLE tasks ADD COLUMN {column} {declaration}")

    # ------------------------------------------------------------------
    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One short-lived connection per operation.

        Fresh connections sidestep cross-thread sharing rules entirely and
        make every public method safe from any thread or process; WAL mode
        plus a generous busy timeout handles concurrent workers on the
        same file.  Per-shard task granularity makes the connection cost
        irrelevant.
        """
        with closing(sqlite3.connect(str(self.path), timeout=30.0)) as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA busy_timeout=30000")
            with conn:  # one transaction per operation
                yield conn

    # ------------------------------------------------------------------
    def put(self, payload: bytes, key: Optional[str] = None,
            max_attempts: Optional[int] = None,
            requeue_done: bool = False) -> PutOutcome:
        """Enqueue a payload; idempotent when ``key`` is given.

        A keyed put of a live task (pending/leased/done) is a no-op, so
        resubmitting a campaign never duplicates work.  A keyed put of a
        **failed** task requeues it with a fresh attempt budget — that is
        how resubmission recovers a campaign whose shard died on a
        transient cause (OOM, full disk) after exhausting its retries.
        With ``requeue_done=True`` a **done** task is requeued as well:
        the caller is asserting that the task's durable side-effect no
        longer exists (e.g. ``polaris-campaign gc`` evicted the shard
        checkpoint), so the stale completion record must not block a
        recompute.  Pending/leased tasks are never disturbed.

        Returns:
            A :class:`PutOutcome` (task id + what happened), decided in a
            single transaction so concurrent submitters cannot double
            count.
        """
        max_attempts = (self.default_max_attempts if max_attempts is None
                        else int(max_attempts))
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        requeue_states = ("failed", "done") if requeue_done else ("failed",)
        with self._connect() as conn:
            if key is not None:
                conn.execute("BEGIN IMMEDIATE")
                row = conn.execute(
                    "SELECT id, status FROM tasks WHERE key = ?",
                    (key,)).fetchone()
                if row is not None:
                    task_id, status = int(row[0]), row[1]
                    if status not in requeue_states:
                        return PutOutcome(task_id, "existing")
                    conn.execute(
                        "UPDATE tasks SET status = 'pending', attempts = 0,"
                        " max_attempts = ?, payload = ?, lease_token = NULL,"
                        " lease_expires = NULL, error = NULL, result = NULL,"
                        " done_at = NULL, enqueued_at = ? WHERE id = ?",
                        (max_attempts, payload, time.time(), task_id))
                    return PutOutcome(task_id, "requeued")
            cursor = conn.execute(
                "INSERT INTO tasks (key, payload, max_attempts, enqueued_at)"
                " VALUES (?, ?, ?, ?)",
                (key, payload, max_attempts, time.time()))
            return PutOutcome(int(cursor.lastrowid), "inserted")

    def claim(self, worker: Optional[str] = None,
              lease_seconds: Optional[float] = None) -> Optional[ClaimedTask]:
        """Lease the oldest runnable task, or return None when idle.

        Runnable means ``pending`` or ``leased``-with-expired-lease; a
        reclaimed expired task whose attempt budget is already spent is
        marked ``failed`` instead of being handed out again.

        The ``queue.claim`` fault site models the transient lock/IO
        errors a busy shared SQLite file really produces; callers already
        treat them as "no task this round".
        """
        faults.maybe_error("queue.claim", sqlite3.OperationalError,
                           "database is locked")
        worker = worker or f"pid-{os.getpid()}"
        lease = (self.default_lease_seconds if lease_seconds is None
                 else float(lease_seconds))
        now = time.time()
        with self._connect() as conn:
            # BEGIN IMMEDIATE serialises competing claims: the first
            # worker to get the write lock wins the task, everyone else
            # retries on the next row.
            conn.execute("BEGIN IMMEDIATE")
            while True:
                row = conn.execute(
                    "SELECT id, key, payload, attempts, max_attempts"
                    "  FROM tasks"
                    " WHERE status = 'pending'"
                    "    OR (status = 'leased' AND lease_expires < ?)"
                    " ORDER BY id LIMIT 1", (now,)).fetchone()
                if row is None:
                    return None
                task_id, key, payload, attempts, max_attempts = row
                if attempts >= max_attempts:
                    # The lease died after the final attempt: retire it.
                    conn.execute(
                        "UPDATE tasks SET status = 'failed', error = ?,"
                        " lease_token = NULL WHERE id = ?",
                        (f"lease expired after {attempts} attempt(s)",
                         task_id))
                    continue
                token = uuid.uuid4().hex
                conn.execute(
                    "UPDATE tasks SET status = 'leased', attempts = ?,"
                    " lease_token = ?, lease_expires = ?, worker = ?,"
                    " heartbeat_at = ?, renewals = 0"
                    " WHERE id = ?",
                    (attempts + 1, token, now + lease, worker, now, task_id))
                return ClaimedTask(task_id=int(task_id), key=key,
                                   payload=payload, lease_token=token,
                                   attempts=int(attempts) + 1)

    def renew(self, task_id: int, lease_token: str,
              lease_seconds: Optional[float] = None) -> bool:
        """Extend a live lease — the worker heartbeat.

        Pushes ``lease_expires`` ``lease_seconds`` into the future (the
        queue default when omitted), stamps ``heartbeat_at`` and counts
        the renewal.  Token-checked exactly like :meth:`ack`: a worker
        whose lease already expired and was redelivered holds a stale
        token, so its renew returns False and cannot resurrect the old
        lease out from under the new owner.

        Returns:
            True when the lease was extended; False for stale tokens (the
            task was redelivered, completed elsewhere, or failed).
        """
        lease = (self.default_lease_seconds if lease_seconds is None
                 else float(lease_seconds))
        now = time.time()
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET lease_expires = ?, heartbeat_at = ?,"
                " renewals = renewals + 1"
                " WHERE id = ? AND lease_token = ? AND status = 'leased'",
                (now + lease, now, task_id, lease_token))
            return cursor.rowcount == 1

    def lease_info(self, task_id: int) -> Optional[Dict[str, object]]:
        """Lease bookkeeping of one task (worker, expiry, heartbeats).

        Returns ``None`` for unknown ids; otherwise a dict with
        ``status``, ``worker``, ``attempts``, ``lease_expires``,
        ``heartbeat_at``, ``renewals`` and ``done_at`` — the observability
        surface the service layer and the tests read.
        """
        with self._connect() as conn:
            row = conn.execute(
                "SELECT status, worker, attempts, lease_expires,"
                " heartbeat_at, renewals, done_at FROM tasks WHERE id = ?",
                (task_id,)).fetchone()
        if row is None:
            return None
        return {"status": row[0], "worker": row[1], "attempts": row[2],
                "lease_expires": row[3], "heartbeat_at": row[4],
                "renewals": row[5], "done_at": row[6]}

    def ack(self, task_id: int, lease_token: str, result: bytes) -> bool:
        """Complete a leased task; only the current lease's token counts.

        Returns:
            True when this ack completed the task; False for stale tokens
            and duplicate deliveries (first valid ack wins, later acks are
            no-ops).

        The ``queue.ack`` fault site injects the same transient
        ``sqlite3.OperationalError`` a contended database raises;
        :func:`_report_outcome` absorbs it with the shared retry policy.
        """
        faults.maybe_error("queue.ack", sqlite3.OperationalError,
                           "database is locked")
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET status = 'done', result = ?, done_at = ?,"
                " error = NULL WHERE id = ? AND lease_token = ?"
                " AND status = 'leased'",
                (result, time.time(), task_id, lease_token))
            completed = cursor.rowcount == 1
        _SETTLED.notify()
        return completed

    def fail(self, task_id: int, lease_token: str, error: str) -> str:
        """Report a failed execution; retry until attempts are exhausted.

        Returns:
            ``"retried"`` (task back to pending), ``"failed"`` (budget
            exhausted) or ``"stale"`` (the lease was no longer current —
            the task was redelivered or already finished elsewhere).
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT attempts, max_attempts FROM tasks"
                " WHERE id = ? AND lease_token = ? AND status = 'leased'",
                (task_id, lease_token)).fetchone()
            if row is None:
                outcome = "stale"
            elif row[0] >= row[1]:
                conn.execute(
                    "UPDATE tasks SET status = 'failed', error = ?,"
                    " lease_token = NULL WHERE id = ?", (error, task_id))
                outcome = "failed"
            else:
                conn.execute(
                    "UPDATE tasks SET status = 'pending', error = ?,"
                    " lease_token = NULL, lease_expires = NULL WHERE id = ?",
                    (error, task_id))
                outcome = "retried"
        _SETTLED.notify()
        return outcome

    # ------------------------------------------------------------------
    def outcome(self, task_id: int) -> Tuple[str, Optional[bytes], Optional[str]]:
        """``(status, result, error)`` of one task.

        Raises:
            KeyError: for unknown task ids.
        """
        with self._connect() as conn:
            row = conn.execute(
                "SELECT status, result, error FROM tasks WHERE id = ?",
                (task_id,)).fetchone()
        if row is None:
            raise KeyError(f"unknown task id {task_id}")
        return row[0], row[1], row[2]

    def outcome_by_key(self, key: str) -> Optional[Tuple[str, Optional[bytes],
                                                         Optional[str]]]:
        """``(status, result, error)`` of a keyed task, or None."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT status, result, error FROM tasks WHERE key = ?",
                (key,)).fetchone()
        return None if row is None else (row[0], row[1], row[2])

    def counts(self) -> Dict[str, int]:
        """Tasks per state (an expired lease still counts as ``leased``)."""
        counts = {state: 0 for state in TASK_STATES}
        with self._connect() as conn:
            for status, count in conn.execute(
                    "SELECT status, COUNT(*) FROM tasks GROUP BY status"):
                counts[status] = int(count)
        return counts

    def outstanding(self) -> int:
        """Tasks that are neither done nor failed (pending + leased)."""
        counts = self.counts()
        return counts["pending"] + counts["leased"]


# ----------------------------------------------------------------------
# Worker loop (the CLI `work` command, run_campaign and the service)
# ----------------------------------------------------------------------
class _LeaseRenewer:
    """Background heartbeat that renews one claimed task's lease.

    Runs in a daemon thread at half-lease intervals while the worker
    executes the task, so the lease only expires when the worker really
    dies (or is frozen, e.g. SIGSTOP — a stopped process stops renewing
    too, which is exactly the liveness signal the queue wants).  Renewal
    failures are swallowed: a stale token means the task was redelivered
    and the eventual stale ack is already rejected by the queue.
    """

    def __init__(self, queue: "TaskQueue", task_id: int, lease_token: str,
                 lease_seconds: float) -> None:
        self._queue = queue
        self._task_id = task_id
        self._token = lease_token
        self._lease = float(lease_seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_LeaseRenewer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._lease)

    def _run(self) -> None:
        interval = max(self._lease / 2.0, 0.01)
        while not self._stop.wait(interval):
            try:
                if not self._queue.renew(self._task_id, self._token,
                                         lease_seconds=self._lease):
                    return  # stale token: the task moved on without us
            except (sqlite3.Error, OSError):
                pass  # transient queue I/O: the next beat retries


def run_worker(queue: TaskQueue,
               worker: Optional[str] = None,
               max_tasks: Optional[int] = None,
               poll_interval: float = 0.05,
               lease_seconds: Optional[float] = None,
               drain: bool = False,
               stop_event: Optional[threading.Event] = None,
               forever: bool = False,
               max_poll_interval: float = 5.0,
               max_idle: Optional[float] = None) -> int:
    """Claim/execute/ack tasks until stopped; returns the executed count.

    Args:
        queue: The queue to serve.
        worker: Worker id recorded on leases (defaults to the pid).
        max_tasks: Stop after this many executions (None = unbounded).
        poll_interval: Idle sleep between empty claims (the *initial*
            sleep in ``forever`` mode).  A draining worker waits at most
            this long, and wakes as soon as an ack or fail in this process
            settles a task or ``stop_event`` is set.
        lease_seconds: Per-claim lease override.
        drain: Stop once the queue holds no outstanding work.  A leased
            task on another worker still counts as outstanding, so a
            draining worker waits for dead workers' leases to expire and
            picks their shards up — which is exactly the resume story.
        stop_event: Cooperative cancellation for in-process workers.
        forever: Daemon mode for long-lived fleets: never exit on an empty
            queue, and back the idle poll off **exponentially** (doubling
            from ``poll_interval`` up to ``max_poll_interval``) so an idle
            fleet costs near-zero queue traffic; the interval resets to
            ``poll_interval`` the moment a task is claimed.  Mutually
            exclusive with ``drain``; ``max_tasks``, ``max_idle`` and
            ``stop_event`` still apply.
        max_poll_interval: Backoff ceiling of ``forever`` mode.
        max_idle: Exit after this many seconds without claiming a task
            (measured from startup or the last claim).  The CI-friendly
            cutoff for daemon workers: ``forever=True, max_idle=60`` keeps
            serving bursts but cannot outlive its pipeline job.

    While a task executes, a daemon thread renews its lease at half-lease
    intervals, so leases need not exceed one task's compute time: an
    expired lease means the worker died or froze, not that the shard was
    slow.

    Neither a raising task (reported via :meth:`TaskQueue.fail` and
    retried until its attempt budget runs out) nor transient queue I/O
    errors (a stalling filesystem, lock contention beyond the busy
    timeout) kill the worker loop — queue errors are backed off and
    retried, because a silently dead worker would hang every future
    waiting on its acks.

    Raises:
        ValueError: for ``forever`` combined with ``drain``, or
            non-positive intervals.
    """
    if forever and drain:
        raise ValueError("forever and drain are mutually exclusive: a "
                         "daemon never exits on an empty queue")
    if poll_interval <= 0:
        raise ValueError("poll_interval must be > 0")
    # max_poll_interval only participates in forever-mode backoff, so a
    # plain worker with a long poll_interval stays valid.
    if forever and max_poll_interval < poll_interval:
        raise ValueError("max_poll_interval must be >= poll_interval")
    executed = 0
    sleep_for = poll_interval
    last_claim = time.monotonic()
    while stop_event is None or not stop_event.is_set():
        if max_tasks is not None and executed >= max_tasks:
            break
        # Read before the outstanding() check, so a settle landing between
        # the check and the wait below ends the wait at once.
        settled = _SETTLED.count()
        try:
            task = queue.claim(worker=worker, lease_seconds=lease_seconds)
            if task is None and drain and queue.outstanding() == 0:
                break
        except (sqlite3.Error, OSError):
            task = None  # transient queue I/O error: back off and retry
        if task is None:
            if max_idle is not None \
                    and time.monotonic() - last_claim >= max_idle:
                break
            if drain:
                _SETTLED.wait(settled, sleep_for, stop_event)
            elif stop_event is not None:
                stop_event.wait(sleep_for)
            else:
                time.sleep(sleep_for)
            if forever:
                sleep_for = min(sleep_for * 2, max_poll_interval)
            continue
        sleep_for = poll_interval
        last_claim = time.monotonic()
        lease = (queue.default_lease_seconds if lease_seconds is None
                 else float(lease_seconds))
        renewer = _LeaseRenewer(queue, task.task_id, task.lease_token,
                                lease).start()
        try:
            fn, args, kwargs = pickle.loads(task.payload)
            result = fn(*args, **kwargs)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            renewer.stop()
            _report_outcome(queue.fail, task.task_id, task.lease_token,
                            traceback.format_exc())
        else:
            renewer.stop()
            _report_outcome(queue.ack, task.task_id, task.lease_token,
                            payload)
        executed += 1
    return executed


#: Backoff for outcome reports: three attempts inside a fraction of the
#: default lease, so a transiently locked database never costs a
#: redelivery.
_OUTCOME_RETRY = RetryPolicy(max_attempts=3, base_delay=0.05,
                             max_delay=0.5, jitter=0.25)


def _report_outcome(report, task_id: int, lease_token: str,
                    payload) -> None:
    """Ack/fail via the shared retry policy; give up to the lease.

    If the queue stays unreachable the lease simply expires and the task
    is redelivered — at-least-once semantics make dropping the report
    safe (``reraise=False``), while letting the exception escape would
    kill the worker.
    """
    _OUTCOME_RETRY.call(lambda: report(task_id, lease_token, payload),
                        retry_on=(sqlite3.Error, OSError), reraise=False)
