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
* **One in-process driver** — with ``executor=None`` (the default) a
  sharded campaign runs through the chunk-task engine of
  :func:`~repro.tvla.assessment.assess_leakage`, which already spreads its
  ``(class, group, chunk)`` tasks over every CPU; the shard layout is
  validated and recorded but does not change the work.  A caller-owned
  :class:`~concurrent.futures.Executor` (a process pool, a
  :class:`~repro.campaign.queue.QueueExecutor`, any other) is the only
  remote path: each shard ships the netlist and its stimulus slice to
  :func:`_shard_moments_rebuilt`, which rebuilds the trace generator
  wherever it runs.

:func:`assess_many` extends the same machinery to *multiple designs*;
under a caller executor all (design, shard) tasks are submitted up front,
so small designs do not serialise behind large ones.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.netlist import Netlist
from ..power.traces import PowerTraceGenerator
from .assessment import (
    CampaignPair,
    LeakageAssessment,
    TvlaConfig,
    _streamed_class_results,
    accumulate_campaign_chunks,
    aggregate_class_results,
    campaign_schedule,
    resolve_generator,
    results_from_accumulators,
    validate_campaigns,
)
from .moments import OnePassMoments, fold_moments
from .welch import WelchResult

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
    accumulators (see :func:`merge_shard_partials`); the durable runner's
    shard entry, sharing the worker's generator."""
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
    """One design's schedule, shard layout and in-flight shard tasks."""

    netlist: Netlist
    campaigns: Sequence[CampaignPair]
    ranges: Tuple[Tuple[int, int], ...]
    generator: PowerTraceGenerator
    started_at: float
    futures: List["Future[ShardChunkMoments]"] = field(default_factory=list)


def _prepare_design(netlist: Netlist, config: TvlaConfig, n_shards: int,
                    generator: Optional[PowerTraceGenerator],
                    campaigns: Optional[Sequence[CampaignPair]]
                    ) -> _ShardedDesign:
    """Build (or validate) the schedule and the shard layout of a design.

    The generator is resolved on both paths: remote shards rebuild their
    own, but the gate order is a pure function of the netlist and power
    plan, so it is derived locally once.
    """
    started_at = time.perf_counter()
    if campaigns is None:
        campaigns = campaign_schedule(netlist, config)
    else:
        validate_campaigns(netlist, config, campaigns)
    ranges = shard_trace_ranges(config.n_traces, n_shards,
                                config.chunk_traces)
    return _ShardedDesign(netlist=netlist, campaigns=campaigns,
                          ranges=ranges,
                          generator=resolve_generator(netlist, config,
                                                      generator),
                          started_at=started_at)


def merge_shard_partials(shard_results: Sequence[ShardChunkMoments],
                         config: TvlaConfig) -> List[Dict[int, WelchResult]]:
    """Merge per-shard accumulator sets into per-class Welch results.

    The single definition of the campaign merge, shared by the
    caller-executor path of :func:`assess_leakage_sharded`, the durable
    runner (:mod:`repro.campaign.runner`) and the service.  Shard ranges
    are contiguous and ascending, so concatenating the per-chunk
    accumulators in shard order lists every chunk in global chunk order,
    and the left-fold below reproduces the serial run's association
    exactly — the same :func:`~repro.tvla.moments.fold_moments`
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


def _finish_design(design: _ShardedDesign,
                   class_results: List[Dict[int, WelchResult]],
                   config: TvlaConfig) -> LeakageAssessment:
    """Aggregate one design's per-class results into its assessment."""
    elapsed = time.perf_counter() - design.started_at
    return aggregate_class_results(class_results, design.netlist.name,
                                   design.generator.gate_names, config,
                                   elapsed, n_shards=len(design.ranges))


def _assess_in_process(netlist: Netlist, config: TvlaConfig, n_shards: int,
                       generator: Optional[PowerTraceGenerator],
                       campaigns: Optional[Sequence[CampaignPair]]
                       ) -> LeakageAssessment:
    """The ``executor=None`` path: the serial driver's chunk-task engine."""
    design = _prepare_design(netlist, config, n_shards, generator, campaigns)
    return _finish_design(
        design,
        _streamed_class_results(design.generator, design.campaigns, config),
        config)


def _assess_remote(netlists: Sequence[Netlist], config: TvlaConfig,
                   n_shards: int, executor: Executor,
                   campaigns: Optional[Sequence[CampaignPair]] = None
                   ) -> Dict[str, LeakageAssessment]:
    """Run every (design, shard) task on a caller-owned executor.

    All shards are submitted before any result is awaited.  If preparing,
    submitting or running one of them raises, this call's still-pending
    futures are cancelled before the exception propagates, so no sibling
    shard is left burning CPU; the executor itself stays running, because
    its lifecycle belongs to the caller.
    """
    designs: List[_ShardedDesign] = []
    try:
        for netlist in netlists:
            design = _prepare_design(netlist, config, n_shards, None,
                                     campaigns)
            designs.append(design)
            for start, stop in design.ranges:
                sliced = tuple(
                    (pair[0].slice(start, stop), pair[1].slice(start, stop))
                    for pair in design.campaigns)
                design.futures.append(executor.submit(
                    _shard_moments_rebuilt, netlist, sliced, config,
                    start // config.chunk_traces))
        return {
            design.netlist.name: _finish_design(
                design,
                merge_shard_partials(
                    [future.result() for future in design.futures], config),
                config)
            for design in designs
        }
    except BaseException:
        for design in designs:
            for future in design.futures:
                future.cancel()
        raise


def assess_leakage_sharded(
    netlist: Netlist,
    config: Optional[TvlaConfig] = None,
    n_shards: int = 2,
    executor: Optional[Executor] = None,
    generator: Optional[PowerTraceGenerator] = None,
    campaigns: Optional[Sequence[CampaignPair]] = None,
) -> LeakageAssessment:
    """Run one TVLA campaign split into ``n_shards`` chunk-aligned shards.

    Produces bitwise the same t-values as the streaming
    :func:`~repro.tvla.assessment.assess_leakage` for any shard count,
    because trace randomness is keyed to global chunk indices rather than
    to a shared sequential stream and per-chunk partials fold in the
    serial order; see the module docstring.

    Args:
        netlist: The design to assess.
        config: Campaign configuration; defaults to :class:`TvlaConfig`.
            The campaign always streams.
        n_shards: Number of chunk-aligned trace shards (capped at the
            number of chunks).
        executor: ``None`` (default) runs the in-process chunk-task engine
            on every CPU.  A caller-owned
            :class:`~concurrent.futures.Executor` runs one task per shard,
            each rebuilding its generator from the shipped netlist; the
            executor is never shut down here.
        generator: Optional pre-built trace generator (``executor=None``
            only).
        campaigns: Optional pre-built stimulus schedule.

    Returns:
        A :class:`LeakageAssessment` with ``n_shards`` recorded.

    Raises:
        ValueError: for invalid shard counts, for ``generator=`` together
            with an ``executor`` (shipped shards rebuild their own), and
            for schedule/configuration mismatches.
    """
    config = config if config is not None else TvlaConfig()
    if executor is None:
        return _assess_in_process(netlist, config, n_shards, generator,
                                  campaigns)
    if generator is not None:
        raise ValueError(
            "generator= applies only to executor=None: shards shipped to an "
            "executor rebuild their own generator from the netlist")
    return _assess_remote([netlist], config, n_shards, executor,
                          campaigns)[netlist.name]


def assess_many(
    netlists: Sequence[Netlist],
    config: Optional[TvlaConfig] = None,
    n_shards: int = 1,
    executor: Optional[Executor] = None,
    store: Optional[object] = None,
) -> Dict[str, LeakageAssessment]:
    """Assess several designs in one sharded campaign fan-out.

    With ``executor=None`` each design runs through the in-process
    chunk-task engine in turn (every design already uses every CPU).
    With a caller executor every (design, shard) task is submitted up
    front, so the executor stays saturated across designs of different
    sizes; each design's shard partials are then merged exactly as in
    :func:`assess_leakage_sharded`.

    Args:
        netlists: Designs to assess (names must be unique).
        config: Shared campaign configuration.
        n_shards: Trace shards per design.
        executor: ``None`` or a caller-owned
            :class:`~concurrent.futures.Executor` (for example a
            :class:`repro.campaign.queue.QueueExecutor` for cross-process
            workers).
        store: Optional :class:`repro.campaign.store.ResultStore` (or its
            root path).  Designs whose
            :class:`~repro.campaign.spec.CampaignSpec` content hash is
            already stored are served from the cache **bit-identically**
            without simulating a single trace; fresh results are stored on
            the way out.

    Returns:
        Mapping design name -> :class:`LeakageAssessment`, in input order.

    Raises:
        ValueError: for duplicate design names or invalid shard counts.
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
                                             n_shards=n_shards)
            hashes[netlist.name] = spec.content_hash
            hit = store.get(spec.content_hash)
            if hit is not None:
                cached[netlist.name] = hit
            else:
                to_run.append(netlist)
    if executor is None:
        fresh = {netlist.name: _assess_in_process(netlist, config, n_shards,
                                                  None, None)
                 for netlist in to_run}
    else:
        fresh = _assess_remote(to_run, config, n_shards, executor)
    if store is not None:
        for name, assessment in fresh.items():
            store.put(hashes[name], assessment)
    return {name: cached[name] if name in cached else fresh[name]
            for name in names}
