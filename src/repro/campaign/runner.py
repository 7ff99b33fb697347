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
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..netlist.netlist import Netlist
from ..power.traces import PowerTraceGenerator
from ..reliability import faults
from ..reliability.atomic import atomic_write_bytes
from ..reliability.checkpoint import (
    CheckpointCorruptError,
    load_checkpoint,
    quarantine_checkpoint,
    seal_checkpoint,
)
from ..tvla.assessment import (
    CampaignPair,
    LeakageAssessment,
    TvlaConfig,
    aggregate_class_results,
    campaign_schedule,
    resolve_generator,
)
from ..tvla.sharding import _shard_moments, merge_shard_partials
from .queue import TaskQueue
from .serialize import pack_shard_moments, unpack_shard_moments
from .spec import CampaignSpec
from .store import ResultStore


class CampaignError(RuntimeError):
    """A campaign cannot make progress (e.g. a shard exhausted retries)."""


@dataclass(frozen=True)
class CampaignPaths:
    """On-disk layout of one campaign under a shared root.

    ``key_prefix`` namespaces the campaign's *queue* keys without moving
    any files — the service layer sets it to ``tenant:<tenant>:`` so two
    tenants submitting the same spec into one shared queue get disjoint
    idempotency keys, while a given tenant's resubmissions still dedupe.
    """

    root: Path
    spec_hash: str
    key_prefix: str = ""

    @property
    def campaign_dir(self) -> Path:
        return self.root / "campaigns" / self.spec_hash

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
        return f"{self.key_prefix}{self.spec_hash}:shard:{shard_index}"


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
            task = pickle.dumps(
                (run_shard_task,
                 (str(paths.root), paths.spec_hash, shard_index), {}),
                protocol=pickle.HIGHEST_PROTOCOL)
            queue.put(task, key=paths.shard_key(shard_index),
                      requeue_done=True)
        return None
    return payload, partials


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
                    queue: Optional[TaskQueue] = None,
                    shard_key_prefix: str = "") -> SubmitOutcome:
    """Register a campaign under ``root`` and enqueue its missing shards.

    Pass either a pre-built ``spec`` or a ``netlist`` (+ optional
    ``config``/``n_shards``) to build one.  Safe to call any number of times: completed shards
    are skipped, queued shards are not duplicated, and a campaign whose
    result is already in the store is reported ``"cached"`` without
    touching the queue.

    ``queue``/``shard_key_prefix`` let a caller route the shard tasks into
    a queue *other* than ``root/queue.sqlite`` under namespaced keys — the
    multi-tenant service keeps per-tenant roots but one shared fleet-wide
    queue.
    """
    root = Path(root)
    if spec is None:
        if netlist is None:
            raise ValueError("submit_campaign needs a netlist or a spec")
        spec = CampaignSpec.from_netlist(netlist, config, n_shards=n_shards)
    spec_hash = spec.content_hash
    paths = CampaignPaths(root, spec_hash, key_prefix=shard_key_prefix)
    ranges = spec.shard_ranges()

    if campaign_store(root).has(spec_hash):
        done = sum(1 for k in range(len(ranges))
                   if paths.shard_path(k).exists())
        return SubmitOutcome(spec=spec, spec_hash=spec_hash, status="cached",
                             n_shards_total=len(ranges), n_shards_done=done,
                             n_enqueued=0)

    paths.shards_dir.mkdir(parents=True, exist_ok=True)
    if not paths.spec_path.exists():
        atomic_write_bytes(paths.spec_path, spec.to_json().encode("utf-8"))

    if queue is None:
        queue = campaign_queue(root)
    # Corrupt checkpoints are quarantined here and count as missing; the
    # enqueue loop below then requeues them like any other absent shard.
    missing = [k for k in range(len(ranges))
               if verified_checkpoint(paths, k) is None]
    n_enqueued = 0
    for shard_index in missing:
        payload = pickle.dumps(
            (run_shard_task, (str(root), spec_hash, shard_index), {}),
            protocol=pickle.HIGHEST_PROTOCOL)
        # One transaction decides inserted/existing/requeued, so
        # concurrent submitters cannot double count — and a shard that
        # previously exhausted its retries (transient crash cause) gets a
        # fresh attempt budget instead of wedging the campaign forever.
        # requeue_done: this loop only reaches shards whose checkpoint is
        # missing, so a 'done' queue row here is a stale completion record
        # (the checkpoint was garbage-collected) and must not block the
        # recompute.
        outcome = queue.put(payload, key=paths.shard_key(shard_index),
                            requeue_done=True)
        if outcome.action in ("inserted", "requeued"):
            n_enqueued += 1
    done = len(ranges) - len(missing)
    return SubmitOutcome(spec=spec, spec_hash=spec_hash,
                         status="resumed" if done else "submitted",
                         n_shards_total=len(ranges), n_shards_done=done,
                         n_enqueued=n_enqueued)


# ----------------------------------------------------------------------
# The worker-side task (module-level: queue payloads must be picklable)
# ----------------------------------------------------------------------
# Per-process streaming seam: a service worker installs a hook that
# forwards every published shard checkpoint to the server as a
# ShardPartial frame.  The hook lives in the worker *process* (queue
# payloads are pickled at submit time, so they cannot carry callbacks)
# and is pure observation: the durable checkpoint is already on disk
# before the hook runs, and hook failures are swallowed — a flaky
# streaming socket must never fail or retry a finished shard.
ShardPartialHook = Callable[[str, str, int, bytes], None]
_shard_partial_hook: Optional[ShardPartialHook] = None


def set_shard_partial_hook(hook: Optional[ShardPartialHook]) -> None:
    """Install (or clear, with ``None``) this process's shard-partial hook.

    The hook is called as ``hook(root, spec_hash, shard_index,
    packed_bytes)`` after every shard checkpoint publish — including the
    skip path of a duplicate delivery, whose already-published bytes are
    re-announced so a server that missed the first announcement still
    converges.  ``root`` is the campaign root the task ran against (the
    service derives the tenant from it).
    """
    global _shard_partial_hook
    _shard_partial_hook = hook


def _notify_partial(root: str, spec_hash: str, shard_index: int,
                    packed: bytes) -> None:
    hook = _shard_partial_hook
    if hook is None:
        return
    try:
        hook(root, spec_hash, shard_index, packed)
    except Exception:
        pass  # observation only — never fail a checkpointed shard


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
    shard_path = paths.shard_path(shard_index)
    if shard_path.exists():
        try:
            payload = load_checkpoint(shard_path)
            unpack_shard_moments(payload)
        except (CheckpointCorruptError, ValueError):
            try:
                quarantine_checkpoint(shard_path)
            except FileNotFoundError:
                pass  # a concurrent participant quarantined it first
        else:
            _notify_partial(root, spec_hash, shard_index, payload)
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
    partials = _shard_moments(context.generator, context.campaigns,
                              context.spec.tvla, start, stop)
    packed = pack_shard_moments(partials)
    # Durable all-or-nothing publish (fsync before rename); duplicate
    # deliveries racing here each use a private temp file and produce
    # identical bytes.  The hook receives the *payload* — the seal trailer
    # is a property of the file, not of the streamed partial.
    atomic_write_bytes(shard_path, seal_checkpoint(packed),
                       fault_site="checkpoint.write")
    _notify_partial(root, spec_hash, shard_index, packed)
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
                    queue: Optional[TaskQueue] = None,
                    shard_key_prefix: str = "") -> CampaignStatus:
    """Inspect one campaign's checkpoints, queue outcomes and store entry.

    ``queue``/``shard_key_prefix`` mirror :func:`submit_campaign` — pass
    the same pair the campaign was submitted with so failed-shard lookups
    hit the right queue rows.
    """
    root = Path(root)
    spec = load_spec(root, spec_hash)
    paths = CampaignPaths(root, spec_hash, key_prefix=shard_key_prefix)
    ranges = spec.shard_ranges()
    done = [k for k in range(len(ranges)) if paths.shard_path(k).exists()]
    if queue is None:
        queue = campaign_queue(root)
    failed = []
    for k in range(len(ranges)):
        if k in done:
            continue
        outcome = queue.outcome_by_key(paths.shard_key(k))
        if outcome is not None and outcome[0] == "failed":
            failed.append(k)
    return CampaignStatus(spec_hash=spec_hash, design_name=spec.design_name,
                          n_traces=spec.tvla.n_traces,
                          n_shards_total=len(ranges), n_shards_done=len(done),
                          complete=campaign_store(root).has(spec_hash),
                          failed_shards=tuple(failed))


def list_campaigns(root: Union[str, Path],
                   queue: Optional[TaskQueue] = None,
                   shard_key_prefix: str = "") -> List[CampaignStatus]:
    """Status of every campaign submitted under ``root``."""
    campaigns_dir = Path(root) / "campaigns"
    if not campaigns_dir.exists():
        return []
    return [campaign_status(root, path.name, queue=queue,
                            shard_key_prefix=shard_key_prefix)
            for path in sorted(campaigns_dir.iterdir())
            if (path / "spec.json").exists()]


def _merge_shard_results(shard_results: List[tuple],
                         context: _CampaignContext,
                         started_at: float) -> LeakageAssessment:
    """Merge verified shard partials into the final assessment.

    Delegates to :func:`repro.tvla.sharding.merge_shard_partials` — the
    same merge (same shard-order association) the in-process driver uses,
    so a resumed or distributed campaign is bit-identical to an
    uninterrupted one with the same layout.
    """
    spec = context.spec
    class_results = merge_shard_partials(shard_results, spec.tvla)
    return aggregate_class_results(class_results, spec.design_name,
                                   context.gate_names, spec.tvla,
                                   time.perf_counter() - started_at,
                                   n_shards=len(spec.shard_ranges()))


def collect_result(root: Union[str, Path], spec_hash: str,
                   timeout: Optional[float] = None,
                   poll_interval: float = 0.1,
                   queue: Optional[TaskQueue] = None,
                   shard_key_prefix: str = "",
                   allow_partial: bool = False) -> LeakageAssessment:
    """Wait for a campaign's shards, merge them, and store the result.

    Serves straight from the store when the campaign already completed
    (bit-identical to the original run).  Otherwise polls the checkpoint
    directory until every shard holds a *verified* partial — corrupt
    checkpoints are quarantined and their shards requeued
    (:func:`verified_checkpoint`), so a torn or tampered file delays the
    collect rather than poisoning it — then merges in shard order,
    publishes the assessment to the content-addressed store and returns
    the stored copy.

    With ``allow_partial=True`` a poisoned campaign degrades instead of
    raising: once every still-missing shard has terminally failed (retries
    exhausted) and at least one shard succeeded, the completed shards are
    merged and returned with :attr:`LeakageAssessment.failed_shards`
    naming the casualties.  The degraded result is **not** stored — a
    resubmission after the fault is fixed recomputes the full campaign.

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
    root = Path(root)
    store = campaign_store(root)
    cached = store.get(spec_hash)
    if cached is not None:
        return cached
    try:
        context = _campaign_context(root, spec_hash)
        spec = context.spec
        paths = CampaignPaths(root, spec_hash, key_prefix=shard_key_prefix)
        ranges = spec.shard_ranges()
        if queue is None:
            queue = campaign_queue(root)
        started_at = time.perf_counter()
        deadline = None if timeout is None else time.monotonic() + timeout
        verified: Dict[int, tuple] = {}
        while True:
            missing = []
            for shard_index in range(len(ranges)):
                if shard_index in verified:
                    continue  # checkpoints are immutable once verified
                found = verified_checkpoint(paths, shard_index, queue=queue)
                if found is None:
                    missing.append(shard_index)
                else:
                    verified[shard_index] = found[1]
            if not missing:
                break
            failed, failure = [], None
            for shard_index in missing:
                outcome = queue.outcome_by_key(paths.shard_key(shard_index))
                if outcome is not None and outcome[0] == "failed":
                    failed.append(shard_index)
                    if failure is None:
                        failure = (shard_index, outcome[2])
            if failed:
                if allow_partial and len(failed) == len(missing) and verified:
                    # Every outstanding shard is terminally dead: degrade.
                    assessment = _merge_shard_results(
                        [verified[k] for k in sorted(verified)], context,
                        started_at)
                    assessment.failed_shards = tuple(failed)
                    return assessment  # degraded — deliberately not stored
                if not allow_partial or not verified:
                    raise CampaignError(
                        f"shard {failure[0]} of campaign {spec_hash[:12]}… "
                        f"exhausted its retries:\n{failure[1]}")
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {spec_hash[:12]}… still missing shards "
                    f"{missing} after {timeout:.1f}s")
            time.sleep(poll_interval)
        assessment = _merge_shard_results(
            [verified[k] for k in sorted(verified)], context, started_at)
        store.put(spec_hash, assessment, metadata={
            "design_name": spec.design_name,
            "n_shards": len(ranges),
            "n_traces": spec.tvla.n_traces,
        })
        # Return the stored copy: later cache hits are bit-identical to it by
        # construction (the round-trip itself is lossless).
        return store.get(spec_hash)
    finally:
        # Merged, degraded or given up on: this process is done with
        # the campaign, so its context goes.
        _evict_campaign_context(root, spec_hash)


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GcOutcome:
    """What :func:`gc_campaign_root` removed (or would remove).

    Attributes:
        pruned_results: Content hashes evicted from the result store.
        pruned_shard_dirs: Campaign hashes whose shard-checkpoint
            directories were removed (their merged result is stored, so
            the per-shard partials were redundant).
        kept_results: Objects still in the store afterwards.
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
    """Evict old results (and redundant shard checkpoints) under ``root``.

    The content-addressed store is write-once, so it only ever grows;
    long-lived roots (CI fleets, shared lab servers) need an eviction
    policy.  Everything removed here is re-derivable — re-submitting the
    same campaign recomputes the identical result — so gc can never lose
    information, only cache warmth.

    Args:
        root: The campaign root directory.
        max_age: Evict stored results older than this many seconds
            (``None`` = no age filter: evict everything not in
            ``keep_hashes``).
        keep_hashes: Campaign hashes to retain regardless of age.
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
    root = Path(root)
    store = campaign_store(root)
    shard_candidates: List[str] = []
    if prune_shards:
        campaigns_dir = root / "campaigns"
        if campaigns_dir.exists():
            for path in sorted(campaigns_dir.iterdir()):
                if not (path / "spec.json").exists():
                    continue  # not a campaign directory
                shards_dir = path / "shards"
                if shards_dir.exists() and any(shards_dir.iterdir()) \
                        and store.has(path.name):
                    shard_candidates.append(path.name)
        if not dry_run:
            for spec_hash in shard_candidates:
                shutil.rmtree(root / "campaigns" / spec_hash / "shards",
                              ignore_errors=True)
    pruned = store.prune(max_age=max_age, keep_hashes=keep_hashes,
                         dry_run=dry_run)
    kept = len(store) - (len(pruned) if dry_run else 0)
    return GcOutcome(pruned_results=tuple(pruned),
                     pruned_shard_dirs=tuple(shard_candidates),
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
