"""Campaign orchestration: submit, work, checkpoint, resume, collect.

A campaign *root* is one directory shared by every participant (submitters
and workers — across processes, or across machines via a shared
filesystem)::

    <root>/
      queue.sqlite                 task queue (lease/ack/retry)
      store/objects/<hh>/<hash>.json   content-addressed results
      campaigns/<hash>/
        spec.json                  the CampaignSpec (self-contained)
        shards/shard_0000.moments  durable shard partials (checkpoints)

The unit of work is one chunk-aligned shard: a worker folds its trace
range into partial :class:`~repro.tvla.moments.OnePassMoments` with the
netlist, stimulus schedule and trace generator it built from ``spec.json``
(once per process and campaign, see :func:`_campaign_context`), and
**atomically** publishes the packed partial as
``shards/shard_NNNN.moments`` before acking.  That file is the checkpoint:
a campaign killed at any point resumes by enqueueing only the shards whose
partial is missing (idempotent ``{hash}:shard:{k}`` queue keys make double
submission a no-op), and a worker killed mid-shard simply loses its lease —
the shard is redelivered once the lease expires.  Because every chunk's
randomness is keyed to its global coordinates, the merged result matches
the serial assessment to floating-point merge error no matter how often
work was re-attempted or where it ran.
"""

from __future__ import annotations

import pickle
import re
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..netlist.netlist import Netlist
from ..power.traces import PowerTraceGenerator
from ..reliability import faults
from ..reliability.atomic import atomic_write_bytes
from ..reliability.checkpoint import (
    CheckpointCorruptError,
    checkpoint_ok,
    load_checkpoint,
    quarantine_checkpoint,
    seal_checkpoint,
)
from ..tvla.assessment import (
    CampaignPair,
    LeakageAssessment,
    TvlaConfig,
    campaign_schedule,
    fold_trace_range,
    merge_shard_partials,
    resolve_generator,
)
from .queue import PutOutcome, TaskQueue
from .serialize import pack_shard_moments, unpack_shard_moments
from .spec import CampaignSpec
from .store import ResultStore


class CampaignError(RuntimeError):
    """A campaign cannot make progress (e.g. a shard exhausted retries)."""


#: Tenant ids are path- and key-safe by construction: they appear in
#: directory names and queue keys verbatim.
_TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]{0,63}\Z")
#: The directory of a shared root that holds the tenant sub-roots.
_TENANTS_DIR = "tenants"


def validate_tenant(tenant: str) -> str:
    """Return ``tenant`` if it is a legal tenant id, else raise.

    Raises:
        ValueError: for ids that are empty, too long (> 64 chars), or
            contain characters unsafe in paths/queue keys.
    """
    if not isinstance(tenant, str) or not _TENANT_PATTERN.match(tenant):
        raise ValueError(
            f"invalid tenant id {tenant!r}: expected 1-64 chars of "
            f"[A-Za-z0-9_-], starting alphanumeric")
    return tenant


@dataclass(frozen=True)
class CampaignPaths:
    """On-disk layout and queue keys of one campaign under a shared root.

    ``root`` is the shared root; its ``queue.sqlite`` serves every
    campaign under it.  Without a ``tenant`` the campaign's store and
    checkpoint tree live right under ``root``.  A tenant owns the private
    sub-root ``<root>/tenants/<tenant>`` (own store, own checkpoint tree)
    and its shard tasks go into the shared queue under keys prefixed
    ``tenant:<tenant>:``, so two tenants submitting the same spec get
    disjoint idempotency keys while a given tenant's resubmissions still
    dedupe.  This class is the one place that layout is written down.
    """

    root: Path
    spec_hash: str
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tenant is not None:
            validate_tenant(self.tenant)

    @staticmethod
    def scope_root(root: Union[str, Path],
                   tenant: Optional[str] = None) -> Path:
        """The directory holding one tenant's store and campaigns
        (``root`` itself without a tenant)."""
        if tenant is None:
            return Path(root)
        return Path(root) / _TENANTS_DIR / validate_tenant(tenant)

    @property
    def campaign_root(self) -> Path:
        """The root the campaign's store and ``campaigns/`` live under."""
        return self.scope_root(self.root, self.tenant)

    @property
    def campaign_dir(self) -> Path:
        return self.campaign_root / "campaigns" / self.spec_hash

    @property
    def spec_path(self) -> Path:
        return self.campaign_dir / "spec.json"

    @property
    def shards_dir(self) -> Path:
        return self.campaign_dir / "shards"

    def shard_path(self, shard_index: int) -> Path:
        return self.shards_dir / f"shard_{shard_index:04d}.moments"

    def shard_key(self, shard_index: int) -> str:
        """Idempotency key of one shard's queue task."""
        prefix = "" if self.tenant is None else f"tenant:{self.tenant}:"
        return f"{prefix}{self.spec_hash}:shard:{shard_index}"


def campaign_queue(root: Union[str, Path], **kwargs) -> TaskQueue:
    """The shared task queue of a campaign root."""
    return TaskQueue(Path(root) / "queue.sqlite", **kwargs)


def campaign_store(root: Union[str, Path]) -> ResultStore:
    """The content-addressed result store of a campaign root."""
    return ResultStore(Path(root) / "store")


def verified_checkpoint(paths: CampaignPaths, shard_index: int,
                        queue: Optional[TaskQueue] = None
                        ) -> Optional[Tuple[bytes, tuple]]:
    """One shard's verified checkpoint: ``(payload, partials)`` or ``None``.

    Reads ``shards/shard_NNNN.moments``, checks its sha256 seal
    (:mod:`repro.reliability.checkpoint`) and unpacks the payload.  A file
    that fails either check — truncated by a torn write, tampered with, or
    foreign bytes — is **quarantined** (renamed aside with a ``.corrupt``
    suffix) and, when ``queue`` is given, the queue is mutated: the shard
    task is requeued under the campaign's idempotent key.  The campaign
    then heals by recomputing
    instead of crashing the merge or silently folding bad bytes.  Missing
    and quarantined checkpoints both return ``None``.
    """
    shard_path = paths.shard_path(shard_index)
    try:
        payload = load_checkpoint(shard_path)
        partials = unpack_shard_moments(payload)
    except FileNotFoundError:
        return None
    except (CheckpointCorruptError, ValueError):
        try:
            quarantine_checkpoint(shard_path)
        except FileNotFoundError:
            return None  # another participant quarantined it first
        if queue is not None:
            _enqueue_shard(queue, paths, shard_index)
        return None
    return payload, partials


def _enqueue_shard(queue: TaskQueue, paths: CampaignPaths,
                   shard_index: int) -> PutOutcome:
    """Put one shard's :func:`run_shard_task` under its idempotent key
    (mutates ``queue``).

    Only called for a shard whose checkpoint is missing or quarantined, so
    a ``done`` queue row for its key is a stale completion record (the
    checkpoint was garbage-collected or corrupt) and is requeued
    (``requeue_done=True``) instead of blocking the recompute; a
    ``failed`` row gets a fresh attempt budget, and a pending or leased
    task is left alone.  One transaction decides the outcome, so
    concurrent submitters cannot double count.
    """
    payload = pickle.dumps(
        (run_shard_task,
         (str(paths.campaign_root), paths.spec_hash, shard_index), {}),
        protocol=pickle.HIGHEST_PROTOCOL)
    return queue.put(payload, key=paths.shard_key(shard_index),
                     requeue_done=True)


def load_spec(root: Union[str, Path], spec_hash: str) -> CampaignSpec:
    """Load (and re-verify) a submitted campaign's spec.

    Raises:
        FileNotFoundError: for unknown campaign hashes.
        ValueError: when the stored spec no longer matches its hash.
    """
    paths = CampaignPaths(Path(root), spec_hash)
    spec = CampaignSpec.from_json(paths.spec_path.read_text())
    if spec.content_hash != spec_hash:
        raise ValueError(
            f"campaign directory {spec_hash[:12]}… holds a spec hashing to "
            f"{spec.content_hash[:12]}…")
    return spec


# ----------------------------------------------------------------------
# Per-campaign context (built once per process and campaign)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CampaignContext:
    """What every shard of one campaign derives from ``spec.json``.

    The netlist, the full stimulus schedule and the trace generator are
    pure functions of the spec, so all shards a process runs for one
    campaign share them: the generator is read-only while it generates
    (the serial driver's chunk tasks already share one across threads) and
    each shard slices its own trace range out of the schedule.
    """

    spec: CampaignSpec
    netlist: Netlist
    campaigns: Tuple[CampaignPair, ...]
    generator: PowerTraceGenerator

    @property
    def gate_names(self) -> Tuple[str, ...]:
        return self.generator.gate_names

    def setflags(self, *, write: bool) -> None:
        """Mark the schedule's stimulus arrays read-only (``write=False``).

        A cached context is shared by every thread of the process, so its
        arrays are frozen before it is published, like any other
        process-wide table; a shared context never becomes writable again.
        """
        if write:
            raise ValueError("a shared campaign context stays read-only")
        for pair in self.campaigns:
            for campaign in pair:
                campaign.previous.setflags(write=False)
                campaign.current.setflags(write=False)


#: Contexts one process keeps.  ``collect_result`` evicts its campaign's
#: context when it returns; the bound covers processes that never collect
#: (external ``polaris-campaign work`` workers, the service).
_CONTEXT_CACHE_SIZE = 4
_CAMPAIGN_CONTEXT_CACHE: "OrderedDict[Tuple[str, str], _CampaignContext]" = \
    OrderedDict()
#: Guards the cache and the build-lock table (never held while building).
_CONTEXT_LOCK = threading.Lock()
#: One lock per key being built, so concurrent shards build it once.
_CONTEXT_BUILD_LOCKS: Dict[Tuple[str, str], threading.Lock] = {}


def _context_key(root: Union[str, Path], spec_hash: str) -> Tuple[str, str]:
    return str(Path(root).resolve()), spec_hash


def _cached_context(key: Tuple[str, str]) -> Optional[_CampaignContext]:
    with _CONTEXT_LOCK:
        context = _CAMPAIGN_CONTEXT_CACHE.get(key)
        if context is not None:
            _CAMPAIGN_CONTEXT_CACHE.move_to_end(key)
        return context


def _campaign_context(root: Union[str, Path],
                      spec_hash: str) -> _CampaignContext:
    """The campaign's spec, netlist, schedule and generator, built once.

    Keyed by ``(resolved root, spec_hash)``: two roots holding the same
    spec never share a context, so a fresh root always pays its own build.
    A build that raises (missing or corrupt ``spec.json``) is not cached;
    the next call tries again.
    """
    key = _context_key(root, spec_hash)
    context = _cached_context(key)
    if context is not None:
        return context
    with _CONTEXT_LOCK:
        build_lock = _CONTEXT_BUILD_LOCKS.setdefault(key, threading.Lock())
    with build_lock:
        context = _cached_context(key)
        if context is not None:
            return context
        try:
            spec = load_spec(key[0], spec_hash)
            netlist = spec.netlist()
            context = _CampaignContext(
                spec=spec, netlist=netlist,
                campaigns=campaign_schedule(netlist, spec.tvla),
                generator=resolve_generator(netlist, spec.tvla, None))
            context.setflags(write=False)
            with _CONTEXT_LOCK:
                _CAMPAIGN_CONTEXT_CACHE[key] = context
                while len(_CAMPAIGN_CONTEXT_CACHE) > _CONTEXT_CACHE_SIZE:
                    _CAMPAIGN_CONTEXT_CACHE.popitem(last=False)
        finally:
            with _CONTEXT_LOCK:
                _CONTEXT_BUILD_LOCKS.pop(key, None)
    return context


def _evict_campaign_context(root: Union[str, Path], spec_hash: str) -> None:
    with _CONTEXT_LOCK:
        _CAMPAIGN_CONTEXT_CACHE.pop(_context_key(root, spec_hash), None)


def campaign_gate_names(root: Union[str, Path],
                        spec_hash: str) -> Tuple[str, ...]:
    """Column order of a submitted campaign's t-value arrays.

    Served from this process's campaign context, so a process that also
    runs the campaign's shards does not compile the design again.
    """
    return _campaign_context(root, spec_hash).gate_names


# ----------------------------------------------------------------------
# Submission
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitOutcome:
    """What :func:`submit_campaign` did.

    Attributes:
        spec: The (normalised) submitted spec.
        spec_hash: Its content hash — the campaign's identity everywhere.
        status: ``"cached"`` (result already in the store — nothing to
            run), ``"resumed"`` (some shard checkpoints already existed) or
            ``"submitted"`` (fresh campaign).
        n_shards_total: Shards in the campaign's layout.
        n_shards_done: Shards whose checkpoint already exists.
        n_enqueued: Tasks newly enqueued by this call (idempotent keys may
            make this smaller than the number of missing shards).
    """

    spec: CampaignSpec
    spec_hash: str
    status: str
    n_shards_total: int
    n_shards_done: int
    n_enqueued: int


def submit_campaign(root: Union[str, Path],
                    netlist: Optional[Netlist] = None,
                    config: Optional[TvlaConfig] = None,
                    n_shards: int = 2,
                    spec: Optional[CampaignSpec] = None,
                    tenant: Optional[str] = None) -> SubmitOutcome:
    """Register a campaign under ``root`` and enqueue its missing shards.

    Pass either a pre-built ``spec`` or a ``netlist`` (+ optional
    ``config``/``n_shards``) to build one.  Safe to call any number of
    times: completed shards are skipped, queued shards are not
    duplicated, and a campaign whose result is already in the store is
    reported ``"cached"`` without touching the queue.

    With a ``tenant`` the campaign lives in that tenant's sub-root and
    its shard tasks go into ``root``'s queue under the tenant's keys
    (:class:`CampaignPaths`) — the multi-tenant service's layout.
    """
    if spec is None:
        if netlist is None:
            raise ValueError("submit_campaign needs a netlist or a spec")
        spec = CampaignSpec.from_netlist(netlist, config, n_shards=n_shards)
    spec_hash = spec.content_hash
    paths = CampaignPaths(Path(root), spec_hash, tenant)
    ranges = spec.shard_ranges()

    if campaign_store(paths.campaign_root).has(spec_hash):
        done = sum(1 for k in range(len(ranges))
                   if paths.shard_path(k).exists())
        return SubmitOutcome(spec=spec, spec_hash=spec_hash, status="cached",
                             n_shards_total=len(ranges), n_shards_done=done,
                             n_enqueued=0)

    paths.shards_dir.mkdir(parents=True, exist_ok=True)
    if not paths.spec_path.exists():
        atomic_write_bytes(paths.spec_path, spec.to_json().encode("utf-8"))

    queue = campaign_queue(root)
    # Corrupt checkpoints are quarantined here and count as missing; the
    # enqueue loop below then requeues them like any other absent shard.
    missing = [k for k in range(len(ranges))
               if verified_checkpoint(paths, k) is None]
    n_enqueued = sum(
        1 for shard_index in missing
        if _enqueue_shard(queue, paths, shard_index).action
        in ("inserted", "requeued"))
    done = len(ranges) - len(missing)
    return SubmitOutcome(spec=spec, spec_hash=spec_hash,
                         status="resumed" if done else "submitted",
                         n_shards_total=len(ranges), n_shards_done=done,
                         n_enqueued=n_enqueued)


# ----------------------------------------------------------------------
# The worker-side task (module-level: queue payloads must be picklable)
# ----------------------------------------------------------------------
def run_shard_task(root: str, spec_hash: str,
                   shard_index: int) -> Dict[str, object]:
    """Compute one shard's partial accumulators and checkpoint them.

    Folds the shard's trace range with the campaign's context — the
    netlist, schedule and generator this process built from ``spec.json``
    for the first shard it ran (chunk RNG streams are pure functions of
    the spec too) — and durably publishes the sha256-sealed packed
    partial.
    Idempotent: if a *verified* checkpoint already exists — e.g. this is a
    duplicate delivery whose first execution acked late — the recompute is
    skipped; a corrupt checkpoint is quarantined and recomputed in place.

    Fault sites (``POLARIS_FAULT_PLAN``, docs/reliability.md): the
    ``worker.shard`` site fires before compute (``delay`` stretches the
    shard, ``crash`` SIGKILLs the worker mid-shard, ``error`` fails the
    attempt so queue retries engage) and ``checkpoint.write`` mangles the
    published bytes.
    """
    paths = CampaignPaths(Path(root), spec_hash)
    found = verified_checkpoint(paths, shard_index)
    if found is not None:
        return {"spec_hash": spec_hash, "shard": shard_index,
                "skipped": True}
    rule = faults.perturb("worker.shard")
    if rule is not None and rule.mode == "error":
        raise CampaignError(
            f"injected fault at worker.shard: shard {shard_index} of "
            f"campaign {spec_hash[:12]}… failed")
    context = _campaign_context(root, spec_hash)
    ranges = context.spec.shard_ranges()
    if not 0 <= shard_index < len(ranges):
        raise CampaignError(
            f"shard {shard_index} out of range for campaign "
            f"{spec_hash[:12]}… with {len(ranges)} shard(s)")
    start, stop = ranges[shard_index]
    started = time.perf_counter()
    # Inline on this worker thread: the campaign's parallelism is its
    # workers, and a chunk pool per shard measured slower and larger.
    partials = fold_trace_range(context.generator, context.campaigns,
                                context.spec.tvla, start, stop)
    packed = pack_shard_moments(partials)
    # Durable all-or-nothing publish (fsync before rename); duplicate
    # deliveries racing here each use a private temp file and produce
    # identical bytes.
    atomic_write_bytes(paths.shard_path(shard_index), seal_checkpoint(packed),
                       fault_site="checkpoint.write")
    return {"spec_hash": spec_hash, "shard": shard_index, "skipped": False,
            "traces": stop - start, "seconds": time.perf_counter() - started}


# ----------------------------------------------------------------------
# Status / collection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignStatus:
    """Progress snapshot of one campaign."""

    spec_hash: str
    design_name: str
    n_traces: int
    n_shards_total: int
    n_shards_done: int
    complete: bool
    failed_shards: Tuple[int, ...]

    @property
    def state(self) -> str:
        if self.complete:
            return "complete"
        if self.failed_shards:
            return "failed"
        if self.n_shards_done == self.n_shards_total:
            return "merging"
        return "running"


def campaign_status(root: Union[str, Path], spec_hash: str,
                    tenant: Optional[str] = None) -> CampaignStatus:
    """Inspect one campaign's checkpoints, queue outcomes and store entry.

    ``tenant`` mirrors :func:`submit_campaign`: pass the tenant the
    campaign was submitted under.
    """
    paths = CampaignPaths(Path(root), spec_hash, tenant)
    spec = load_spec(paths.campaign_root, spec_hash)
    ranges = spec.shard_ranges()
    # Read-only: a corrupt checkpoint counts as missing here but is left in
    # place; the next submit or collect quarantines and requeues it.
    done = [k for k in range(len(ranges))
            if checkpoint_ok(paths.shard_path(k))]
    queue = campaign_queue(root)
    failed = []
    for k in range(len(ranges)):
        if k in done:
            continue
        outcome = queue.outcome_by_key(paths.shard_key(k))
        if outcome is not None and outcome[0] == "failed":
            failed.append(k)
    return CampaignStatus(
        spec_hash=spec_hash, design_name=spec.design_name,
        n_traces=spec.tvla.n_traces, n_shards_total=len(ranges),
        n_shards_done=len(done),
        complete=campaign_store(paths.campaign_root).has(spec_hash),
        failed_shards=tuple(failed))


def list_campaigns(root: Union[str, Path],
                   tenant: Optional[str] = None) -> List[CampaignStatus]:
    """Status of every campaign submitted under ``root`` (for ``tenant``)."""
    campaigns_dir = CampaignPaths.scope_root(root, tenant) / "campaigns"
    if not campaigns_dir.exists():
        return []
    return [campaign_status(root, path.name, tenant)
            for path in sorted(campaigns_dir.iterdir())
            if (path / "spec.json").exists()]


class ShardCollector:
    """Collects one campaign's shards: scan, merge, degrade, store.

    The one collector behind both ways a result leaves the campaign
    layer: :func:`collect_result` polls one until the campaign is done,
    and the service keeps one per open campaign, reads it on every
    monitor tick and streams a progress frame per newly folded shard.
    Partials come only from verified checkpoints, which are immutable, so
    a folded shard is never read again.  Merges take the folded shards in
    shard-index order: the merge of all of them is bitwise the same
    whoever collects it and in whatever order the shards landed.
    """

    def __init__(self, paths: CampaignPaths, spec: CampaignSpec,
                 queue: TaskQueue) -> None:
        self.paths = paths
        self.spec = spec
        self.queue = queue
        self.n_shards = len(spec.shard_ranges())
        #: Verified partials by shard index.
        self.partials: Dict[int, tuple] = {}
        self._gate_names: Optional[Tuple[str, ...]] = None
        self._started_at = time.perf_counter()

    @property
    def done(self) -> bool:
        return len(self.partials) == self.n_shards

    def missing(self) -> List[int]:
        return [k for k in range(self.n_shards) if k not in self.partials]

    def read(self, shard_index: int
             ) -> Tuple[Optional[tuple], Optional[str]]:
        """One shard's ``(partials, None)`` from its verified checkpoint,
        else ``(None, error)``, the error being that of a terminally
        failed task and ``None`` while the task is pending or leased.

        Blocking; mutates the queue.  A corrupt checkpoint is quarantined
        and its shard requeued (:func:`verified_checkpoint`).  A worker
        publishes its checkpoint before it acks, so a ``done`` row without
        a checkpoint file is a stale completion record and is requeued
        too: the file was quarantined (by any participant, possibly while
        the task was still leased, so that the quarantine's requeue was a
        no-op) or the task was acked without one.
        """
        paths, queue = self.paths, self.queue
        found = verified_checkpoint(paths, shard_index, queue=queue)
        if found is not None:
            return found[1], None
        outcome = queue.outcome_by_key(paths.shard_key(shard_index))
        if outcome is None:
            return None, None
        status, _, error = outcome
        if status == "failed":
            return None, error or ""
        if status == "done" and not paths.shard_path(shard_index).exists():
            _enqueue_shard(queue, paths, shard_index)
        return None, None

    def scan(self) -> Dict[int, str]:
        """Read and fold every missing shard; returns the errors of the
        terminally failed ones by shard index."""
        failed = {}
        for shard_index in self.missing():
            partials, error = self.read(shard_index)
            if partials is not None:
                self.partials[shard_index] = partials
            elif error is not None:
                failed[shard_index] = error
        return failed

    def merge(self) -> LeakageAssessment:
        """Merge the folded shards in shard-index order (blocking)."""
        if self._gate_names is None:
            self._gate_names = campaign_gate_names(self.paths.campaign_root,
                                                   self.paths.spec_hash)
        return merge_shard_partials(
            [self.partials[k] for k in sorted(self.partials)],
            self.spec.tvla, self.spec.design_name, self._gate_names,
            time.perf_counter() - self._started_at, self.n_shards)

    def degraded(self, failed: Iterable[int]
                 ) -> Optional[LeakageAssessment]:
        """The merge of the folded shards naming ``failed`` as
        ``failed_shards`` once every other shard is folded and at least
        one is; ``None`` before that.  Never stored: a resubmission after
        the fault is fixed recomputes in full."""
        failed = tuple(sorted(failed))
        if not failed or not self.partials \
                or len(self.partials) + len(failed) < self.n_shards:
            return None
        assessment = self.merge()
        assessment.failed_shards = failed
        return assessment

    def store(self, assessment: LeakageAssessment) -> LeakageAssessment:
        """Publish the full merge and return the stored copy (the store is
        write-once first-wins, so every collector returns the same)."""
        store = campaign_store(self.paths.campaign_root)
        store.put(self.paths.spec_hash, assessment, metadata={
            "design_name": self.spec.design_name,
            "n_shards": self.n_shards,
            "n_traces": self.spec.tvla.n_traces,
        })
        return store.get(self.paths.spec_hash)


def collect_result(root: Union[str, Path], spec_hash: str,
                   timeout: Optional[float] = None,
                   poll_interval: float = 0.1,
                   tenant: Optional[str] = None,
                   allow_partial: bool = False) -> LeakageAssessment:
    """Wait for a campaign's shards, merge them, and store the result.

    Serves straight from the store when the campaign already completed
    (bit-identical to the original run).  Otherwise polls a
    :class:`ShardCollector` until every shard holds a *verified* partial
    — corrupt checkpoints are quarantined and their shards requeued, so a
    torn or tampered file delays the collect rather than poisoning it —
    then merges in shard order, publishes the assessment to the
    content-addressed store and returns the stored copy.  ``tenant``
    mirrors :func:`submit_campaign`.

    With ``allow_partial=True`` a poisoned campaign degrades instead of
    raising: once every still-missing shard has terminally failed (retries
    exhausted) and at least one shard succeeded, the completed shards are
    merged and returned with :attr:`LeakageAssessment.failed_shards`
    naming the casualties (:meth:`ShardCollector.degraded`; not stored).

    The merge takes its gate order from the campaign's context (shared
    with any shard this process ran); the context is evicted when this
    call returns or raises.

    Raises:
        CampaignError: when a shard task exhausted its retries (the worker
            traceback is included) — waiting longer cannot help.  With
            ``allow_partial`` this is only raised when *no* shard
            completed.
        TimeoutError: when ``timeout`` elapses first.
    """
    paths = CampaignPaths(Path(root), spec_hash, tenant)
    cached = campaign_store(paths.campaign_root).get(spec_hash)
    if cached is not None:
        return cached
    try:
        collector = ShardCollector(
            paths, _campaign_context(paths.campaign_root, spec_hash).spec,
            campaign_queue(root))
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            failed = collector.scan()
            if collector.done:
                return collector.store(collector.merge())
            if failed:
                if not (allow_partial and collector.partials):
                    shard_index = min(failed)
                    raise CampaignError(
                        f"shard {shard_index} of campaign {spec_hash[:12]}… "
                        f"exhausted its retries:\n{failed[shard_index]}")
                degraded = collector.degraded(failed)
                if degraded is not None:
                    return degraded
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {spec_hash[:12]}… still missing shards "
                    f"{collector.missing()} after {timeout:.1f}s")
            time.sleep(poll_interval)
    finally:
        # Merged, degraded or given up on: this process is done with
        # the campaign, so its context goes.
        _evict_campaign_context(paths.campaign_root, spec_hash)


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GcOutcome:
    """What :func:`gc_campaign_root` removed (or would remove).

    Entries from a tenant's sub-root read ``<tenant>/<hash>``; entries
    from the root itself are the bare hash.

    Attributes:
        pruned_results: Content hashes evicted from the result stores.
        pruned_shard_dirs: Campaign hashes whose shard-checkpoint
            directories were removed (their merged result is stored, so
            the per-shard partials were redundant).
        kept_results: Objects still in the stores afterwards.
        dry_run: Whether this was a report-only pass.
    """

    pruned_results: Tuple[str, ...]
    pruned_shard_dirs: Tuple[str, ...]
    kept_results: int
    dry_run: bool


def gc_campaign_root(root: Union[str, Path],
                     max_age: Optional[float] = None,
                     keep_hashes: Iterable[str] = (),
                     prune_shards: bool = False,
                     dry_run: bool = False) -> GcOutcome:
    """Evict old results (and redundant shard checkpoints) under ``root``
    and every tenant sub-root in it.

    The content-addressed store is write-once, so it only ever grows;
    long-lived roots (CI fleets, shared lab servers) need an eviction
    policy.  Everything removed here is
    re-derivable — re-submitting the same campaign recomputes the
    identical result — so gc can never lose information, only cache
    warmth.

    Args:
        root: The campaign root directory.
        max_age: Evict stored results older than this many seconds
            (``None`` = no age filter: evict everything not in
            ``keep_hashes``).
        keep_hashes: Campaign hashes to retain regardless of age, in
            every tenant.
        prune_shards: Additionally delete the ``campaigns/<hash>/shards``
            checkpoint directories of campaigns whose merged result is in
            the store *before* this call's eviction runs — once merged and
            stored, the per-shard partials are redundant bytes.  (If the
            result itself is evicted in the same pass, a resubmission
            recomputes from scratch; that is the documented trade.)
        dry_run: Report what would be removed without touching disk.

    Returns:
        A :class:`GcOutcome`; with ``dry_run`` the outcome lists the
        candidates and the filesystem is unchanged.
    """
    keep_hashes = tuple(keep_hashes)
    tenants_dir = Path(root) / _TENANTS_DIR
    tenants = sorted(path.name for path in tenants_dir.iterdir()
                     if _TENANT_PATTERN.match(path.name)) \
        if tenants_dir.is_dir() else []
    pruned: List[str] = []
    pruned_shard_dirs: List[str] = []
    kept = 0
    for tenant in [None] + tenants:
        label = "" if tenant is None else f"{tenant}/"
        scope = CampaignPaths.scope_root(root, tenant)
        store = campaign_store(scope)
        campaigns_dir = scope / "campaigns"
        if prune_shards and campaigns_dir.exists():
            candidates = []
            for path in sorted(campaigns_dir.iterdir()):
                shards_dir = path / "shards"
                if (path / "spec.json").exists() and shards_dir.exists() \
                        and any(shards_dir.iterdir()) \
                        and store.has(path.name):
                    candidates.append(path.name)
            if not dry_run:
                for spec_hash in candidates:
                    shutil.rmtree(campaigns_dir / spec_hash / "shards",
                                  ignore_errors=True)
            pruned_shard_dirs += [label + key for key in candidates]
        evicted = store.prune(max_age=max_age, keep_hashes=keep_hashes,
                              dry_run=dry_run)
        kept += len(store) - (len(evicted) if dry_run else 0)
        pruned += [label + key for key in evicted]
    return GcOutcome(pruned_results=tuple(pruned),
                     pruned_shard_dirs=tuple(pruned_shard_dirs),
                     kept_results=kept, dry_run=dry_run)


def run_campaign(root: Union[str, Path], netlist: Netlist,
                 config: Optional[TvlaConfig] = None, n_shards: int = 2,
                 n_workers: int = 1,
                 timeout: Optional[float] = None) -> LeakageAssessment:
    """Submit + work + collect in one call (the single-host convenience).

    Spins up ``n_workers`` in-process worker threads that drain the queue,
    then merges and stores the result.  Cache hits skip the work entirely.
    External ``polaris-campaign work`` processes attached to the same root
    participate seamlessly (the inline workers drain the *shared* queue,
    so they also help any sibling campaign under the same root).

    ``timeout`` bounds the whole call: the worker threads are signalled to
    stop at the deadline and the remaining budget is handed to
    :func:`collect_result`, which raises :class:`TimeoutError` — the drain
    phase can never block past the deadline on someone else's backlog.
    """
    from .queue import run_worker  # local import keeps module load cheap

    deadline = None if timeout is None else time.monotonic() + timeout
    outcome = submit_campaign(root, netlist=netlist, config=config,
                              n_shards=n_shards)
    if outcome.status != "cached":
        queue = campaign_queue(root)
        stop = threading.Event()
        threads = [
            threading.Thread(target=run_worker,
                             kwargs=dict(queue=queue,
                                         worker=f"run-campaign-{index}",
                                         drain=True, stop_event=stop),
                             daemon=True)
            for index in range(max(1, n_workers))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(timeout=remaining)
        stop.set()  # past the deadline (or done): release any stragglers
    remaining = (None if deadline is None
                 else max(0.0, deadline - time.monotonic()))
    return collect_result(root, outcome.spec_hash, timeout=remaining)
