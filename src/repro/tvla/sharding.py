"""Sharded parallel TVLA campaigns on the streaming moment engine.

PR 1 made :func:`repro.tvla.assessment.assess_leakage` stream chunked traces
into :class:`~repro.tvla.moments.OnePassMoments` accumulators that merge
losslessly.  This module exploits that: a campaign's trace range is split
into **chunk-aligned shards**, each shard folds its chunks into partial
accumulators on a worker, and the partials are merged back into the final
Welch verdict (all configured TVLA orders).

Three properties make the result trustworthy:

* **Shard-layout invariance** — every chunk's mask/noise randomness is
  read off Philox counter blocks addressed by its ``(seed, class, group,
  chunk)`` coordinates (see :mod:`repro.power.ctrsample`).  Shards
  therefore generate exactly the traces the serial run would.
* **Exact merge** — shards return **per-chunk** accumulators unmerged and
  the merge left-folds them in global chunk order with the pairwise
  Chan/Pébay formulas (:meth:`OnePassMoments.merge`) — the serial run's
  exact association — so sharded t-values are **bitwise equal** to serial
  ones for any shard count and executor.
* **Pluggable executors** — ``"serial"`` (inline), ``"thread"``
  (:class:`~concurrent.futures.ThreadPoolExecutor`; workers share one
  read-only trace generator per design) or ``"process"``
  (:class:`~concurrent.futures.ProcessPoolExecutor`, platform-default
  start method; workers rebuild the generator from the pickled netlist).
  An existing :class:`~concurrent.futures.Executor` instance can be
  passed directly.

:func:`assess_many` extends the same machinery to fan out *multiple
designs* in one call: all (design, shard) tasks are submitted to a single
pool, so small designs do not serialise behind large ones.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..netlist.netlist import Netlist
from ..power.traces import PowerTraceGenerator
from .assessment import (
    CampaignPair,
    LeakageAssessment,
    TvlaConfig,
    accumulate_campaign_chunks,
    aggregate_class_results,
    campaign_schedule,
    resolve_generator,
    results_from_accumulators,
    validate_campaigns,
)
from .moments import OnePassMoments, fold_moments
from .welch import WelchResult

#: Executor selectors accepted by the sharded drivers.
EXECUTORS = ("serial", "thread", "process")

ExecutorLike = Union[str, Executor]

#: One shard's partials: per fixed class, a (group0, group1) pair of
#: **per-chunk accumulator lists** in local chunk order, returned unmerged
#: so the campaign merge can left-fold all chunks in global chunk order
#: (the serial association — bitwise-equal results).
ShardChunkMoments = List[Tuple[List[OnePassMoments], List[OnePassMoments]]]


def shard_trace_ranges(n_traces: int, n_shards: int,
                       chunk_traces: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``[0, n_traces)`` into contiguous chunk-aligned shard ranges.

    Shard boundaries always fall on ``chunk_traces`` multiples so every
    shard consumes whole chunks (and therefore reads each chunk's counter
    draws exactly as the serial run does).  Chunks are distributed as evenly as possible; when there are
    fewer chunks than requested shards the surplus shards are dropped, so
    the returned tuple may be shorter than ``n_shards`` but never contains
    an empty range.

    Raises:
        ValueError: for non-positive ``n_traces``/``n_shards``/
            ``chunk_traces``.
    """
    if n_traces < 1:
        raise ValueError("n_traces must be >= 1")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if chunk_traces < 1:
        raise ValueError("chunk_traces must be >= 1")
    n_chunks = (n_traces + chunk_traces - 1) // chunk_traces
    n_shards = min(n_shards, n_chunks)
    base, extra = divmod(n_chunks, n_shards)
    ranges: List[Tuple[int, int]] = []
    chunk = 0
    for shard in range(n_shards):
        take = base + (1 if shard < extra else 0)
        start = chunk * chunk_traces
        chunk += take
        stop = min(chunk * chunk_traces, n_traces)
        ranges.append((start, stop))
    return tuple(ranges)


def _shard_moments(generator: PowerTraceGenerator,
                   campaigns: Sequence[CampaignPair], config: TvlaConfig,
                   start: int, stop: int) -> ShardChunkMoments:
    """Fold traces ``[start, stop)`` of every class into per-chunk
    accumulators (see :func:`merge_shard_partials`)."""
    first_chunk = start // config.chunk_traces
    return [
        accumulate_campaign_chunks(
            generator, (pair[0].slice(start, stop), pair[1].slice(start, stop)),
            config, class_index, first_chunk=first_chunk)
        for class_index, pair in enumerate(campaigns)
    ]


def _shard_moments_rebuilt(netlist: Netlist,
                           sliced_campaigns: Sequence[CampaignPair],
                           config: TvlaConfig,
                           first_chunk: int) -> ShardChunkMoments:
    """Worker entry point that builds its own generator, then folds a shard.

    Module-level (picklable) and self-contained: the worker receives the
    netlist plus already-sliced campaigns, so only the shard's stimulus
    crosses a process boundary; ``first_chunk`` anchors the slices to the
    counter draws of their global ``(seed, class, group, chunk)``
    coordinates, which is what makes the result shard-layout invariant.
    """
    generator = PowerTraceGenerator(netlist, config=config.power,
                                    seed=config.seed)
    return [
        accumulate_campaign_chunks(generator, pair, config, class_index,
                                   first_chunk=first_chunk)
        for class_index, pair in enumerate(sliced_campaigns)
    ]


@dataclass
class _ShardedDesign:
    """Bookkeeping for one design's in-flight shard tasks."""

    netlist: Netlist
    config: TvlaConfig
    gate_names: Tuple[str, ...]
    started_at: float
    futures: List["Future[ShardChunkMoments]"]


def _make_executor(executor: ExecutorLike,
                   max_workers: Optional[int]) -> Tuple[Optional[Executor], bool, bool]:
    """Resolve an executor selector to ``(pool, ship_netlist, owned)``.

    ``pool`` is ``None`` for the serial driver.  ``ship_netlist`` selects
    the process entry point (workers rebuild their own generator from the
    pickled netlist) instead of sharing the parent's generator.  Besides
    :class:`~concurrent.futures.ProcessPoolExecutor`, any executor
    instance exposing a truthy ``cross_process`` attribute (e.g.
    :class:`repro.campaign.queue.QueueExecutor`, whose tasks may be picked
    up by workers on other machines) gets the shipped entry point too.
    """
    if isinstance(executor, Executor):
        ship_netlist = (isinstance(executor, ProcessPoolExecutor)
                        or bool(getattr(executor, "cross_process", False)))
        return executor, ship_netlist, False
    if executor == "serial":
        return None, False, False
    if executor == "thread":
        return ThreadPoolExecutor(max_workers=max_workers), False, True
    if executor == "process":
        # Platform-default start method: forcing fork would deadlock
        # callers that already have live threads (a forked child inherits
        # mutexes held by threads that do not exist in it — the reason
        # CPython moved the Linux default off fork).  The worker entry
        # point is module-level and picklable, so spawn/forkserver work
        # wherever ``repro`` is importable by a fresh interpreter.
        return ProcessPoolExecutor(max_workers=max_workers), True, True
    raise ValueError(
        f"executor must be one of {EXECUTORS} or an Executor instance, "
        f"got {executor!r}")


@contextmanager
def _pool_lifecycle(pool: Optional[Executor], owned: bool):
    """Guarantee owned pools are torn down, even when a shard worker raises.

    On the failure path the pool is shut down with ``cancel_futures=True``
    first: a raising shard must not leave the remaining shards burning CPU
    (or, for process pools, leak live worker processes) while the caller
    unwinds — the campaign's pending futures are cancelled and only the
    already-running tasks are drained.  Caller-supplied executors are never
    shut down; their lifecycle belongs to the caller.
    """
    try:
        yield
    except BaseException:
        if owned and pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if owned and pool is not None:
            pool.shutdown(wait=True)


def _submit_design(netlist: Netlist, config: TvlaConfig, n_shards: int,
                   pool: Optional[Executor], ship_netlist: bool,
                   generator: Optional[PowerTraceGenerator],
                   campaigns: Optional[Sequence[CampaignPair]]) -> _ShardedDesign:
    """Build the schedule and submit one design's shard tasks."""
    started_at = time.perf_counter()
    if campaigns is None:
        campaigns = campaign_schedule(netlist, config)
    else:
        validate_campaigns(netlist, config, campaigns)
    ranges = shard_trace_ranges(config.n_traces, n_shards,
                                config.chunk_traces)
    # Resolved in every branch: process workers rebuild their generator,
    # but the gate order is a pure function of the netlist + power plan,
    # so derive it locally once.
    generator = resolve_generator(netlist, config, generator)
    futures: List["Future[ShardChunkMoments]"] = []
    if pool is None:
        for start, stop in ranges:
            future: "Future[ShardChunkMoments]" = Future()
            future.set_result(
                _shard_moments(generator, campaigns, config, start, stop))
            futures.append(future)
    elif ship_netlist:
        for start, stop in ranges:
            sliced = tuple(
                (pair[0].slice(start, stop), pair[1].slice(start, stop))
                for pair in campaigns)
            futures.append(pool.submit(_shard_moments_rebuilt, netlist,
                                       sliced, config,
                                       start // config.chunk_traces))
    else:
        for start, stop in ranges:
            futures.append(pool.submit(_shard_moments, generator, campaigns,
                                       config, start, stop))
    gate_names = generator.gate_names
    return _ShardedDesign(netlist=netlist, config=config,
                          gate_names=gate_names, started_at=started_at,
                          futures=futures)


def merge_shard_partials(shard_results: Sequence[ShardChunkMoments],
                         config: TvlaConfig) -> List[Dict[int, WelchResult]]:
    """Merge per-shard accumulator sets into per-class Welch results.

    The single definition of the campaign merge, shared by the in-process
    driver, the durable runner (:mod:`repro.campaign.runner`) and the
    service.  Shard ranges are contiguous and ascending, so concatenating
    the per-chunk accumulators in shard order lists every chunk in global
    chunk order, and the left-fold below reproduces the serial run's
    association exactly — the same :func:`~repro.tvla.moments.fold_moments`
    the serial driver folds its chunks with — so the merged accumulator
    (and every t-value) is **bitwise equal** to the serial run's,
    independent of shard layout.
    """
    n_classes = len(shard_results[0])
    class_results = []
    for class_index in range(n_classes):
        streams: Tuple[List[OnePassMoments], List[OnePassMoments]] = ([], [])
        for partials in shard_results:
            for stream, part in zip(streams, partials[class_index]):
                stream.extend(part)
        class_results.append(results_from_accumulators(
            fold_moments(streams[0]), fold_moments(streams[1]), config))
    return class_results


def _collect_design(design: _ShardedDesign) -> LeakageAssessment:
    """Merge one design's shard results into the final assessment."""
    config = design.config
    shard_results = [future.result() for future in design.futures]
    class_results = merge_shard_partials(shard_results, config)
    elapsed = time.perf_counter() - design.started_at
    return aggregate_class_results(class_results, design.netlist.name,
                                   design.gate_names, config, elapsed,
                                   streamed=True,
                                   n_shards=len(design.futures))


def assess_leakage_sharded(
    netlist: Netlist,
    config: Optional[TvlaConfig] = None,
    n_shards: int = 2,
    executor: ExecutorLike = "thread",
    max_workers: Optional[int] = None,
    generator: Optional[PowerTraceGenerator] = None,
    campaigns: Optional[Sequence[CampaignPair]] = None,
) -> LeakageAssessment:
    """Run one TVLA campaign split into ``n_shards`` parallel shards.

    Produces bitwise the same t-values as the unsharded streaming
    :func:`~repro.tvla.assessment.assess_leakage` for any shard count,
    because trace randomness is keyed to global chunk indices rather than
    to a shared sequential stream and per-chunk partials fold in the
    serial order; see the module docstring.

    Args:
        netlist: The design to assess.
        config: Campaign configuration; defaults to :class:`TvlaConfig`.
        n_shards: Number of chunk-aligned trace shards (capped at the
            number of chunks).
        executor: ``"serial"``, ``"thread"``, ``"process"`` or an existing
            :class:`~concurrent.futures.Executor` instance.
        max_workers: Worker count for the string selectors (defaults to the
            executor's own default).
        generator: Optional pre-built trace generator (serial/thread only
            benefit; process workers rebuild their own).
        campaigns: Optional pre-built stimulus schedule.

    Returns:
        A :class:`LeakageAssessment` with ``n_shards`` recorded.

    Raises:
        ValueError: for invalid shard counts or executor selectors, and
            for schedule/configuration mismatches.
    """
    config = config if config is not None else TvlaConfig()
    pool, ship_netlist, owned = _make_executor(executor, max_workers)
    with _pool_lifecycle(pool, owned):
        design = _submit_design(netlist, config, n_shards, pool, ship_netlist,
                                generator, campaigns)
        return _collect_design(design)


def assess_many(
    netlists: Sequence[Netlist],
    config: Optional[TvlaConfig] = None,
    n_shards: int = 1,
    executor: ExecutorLike = "thread",
    max_workers: Optional[int] = None,
    store: Optional[object] = None,
) -> Dict[str, LeakageAssessment]:
    """Assess several designs in one sharded campaign fan-out.

    Every (design, shard) task is submitted to a single pool up front, so
    the pool stays saturated across designs of different sizes; each
    design's shard partials are then merged exactly as in
    :func:`assess_leakage_sharded`.

    Args:
        netlists: Designs to assess (names must be unique).
        config: Shared campaign configuration.
        n_shards: Trace shards per design.
        executor: ``"serial"``, ``"thread"``, ``"process"`` or an existing
            :class:`~concurrent.futures.Executor` instance (including
            :class:`repro.campaign.queue.QueueExecutor` for cross-process
            workers).
        max_workers: Worker count for the string selectors.
        store: Optional :class:`repro.campaign.store.ResultStore` (or its
            root path).  Designs whose
            :class:`~repro.campaign.spec.CampaignSpec` content hash is
            already stored are served from the cache **bit-identically**
            without simulating a single trace; fresh results are stored on
            the way out.

    Returns:
        Mapping design name -> :class:`LeakageAssessment`, in input order.

    Raises:
        ValueError: for duplicate design names or invalid selectors.
    """
    config = config if config is not None else TvlaConfig()
    names = [netlist.name for netlist in netlists]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate design names in assess_many: {names}")
    hashes: Dict[str, str] = {}
    cached: Dict[str, LeakageAssessment] = {}
    to_run = list(netlists)
    if store is not None:
        # Function-level import: repro.campaign sits on top of this module,
        # so the dependency must stay call-time only.
        from ..campaign.spec import CampaignSpec
        from ..campaign.store import as_result_store
        store = as_result_store(store)
        to_run = []
        for netlist in netlists:
            spec = CampaignSpec.from_netlist(netlist, config,
                                             n_shards=n_shards,
                                             force_streaming=True)
            hashes[netlist.name] = spec.content_hash
            hit = store.get(spec.content_hash)
            if hit is not None:
                cached[netlist.name] = hit
            else:
                to_run.append(netlist)
    pool, ship_netlist, owned = _make_executor(executor, max_workers)
    with _pool_lifecycle(pool, owned):
        submitted = [
            _submit_design(netlist, config, n_shards, pool, ship_netlist,
                           generator=None, campaigns=None)
            for netlist in to_run
        ]
        fresh = {design.netlist.name: _collect_design(design)
                 for design in submitted}
    if store is not None:
        for name, assessment in fresh.items():
            store.put(hashes[name], assessment)
    return {name: cached[name] if name in cached else fresh[name]
            for name in names}
