"""Chunk-aligned shards of a TVLA campaign and their exact merge.

:func:`repro.tvla.assessment.assess_leakage` streams chunked traces into
:class:`~repro.tvla.moments.OnePassMoments` accumulators that merge
losslessly.  The durable campaign runner (:mod:`repro.campaign.runner`)
builds on that: a campaign's trace range is split into **chunk-aligned
shards** (:func:`shard_trace_ranges`), each worker folds one shard's
chunks into per-chunk accumulators (:func:`_shard_moments`) and seals
them in a checkpoint, and the partials are merged back into the final
Welch verdict for all configured TVLA orders
(:func:`merge_shard_partials`).

Two properties make the result trustworthy:

* **Shard-layout invariance** — every chunk's mask/noise randomness is
  read off Philox counter blocks addressed by its ``(seed, class, group,
  chunk)`` coordinates (see :mod:`repro.power.ctrsample`).  Shards
  therefore generate exactly the traces the serial run would.
* **Exact merge** — shards return **per-chunk** accumulators unmerged and
  the merge left-folds them in global chunk order with the pairwise
  Chan/Pébay formulas (:meth:`OnePassMoments.merge`) — the serial run's
  exact association — so sharded t-values are **bitwise equal** to
  :func:`~repro.tvla.assessment.assess_leakage`'s for any shard count.

In process, :func:`~repro.tvla.assessment.assess_leakage` is the one
driver (its chunk-task engine already uses every CPU); shards leave the
process only through the campaign queue (``run_campaign``, or
``submit_campaign`` plus ``polaris-campaign work``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..power.traces import PowerTraceGenerator
from .assessment import (
    CampaignPair,
    LeakageAssessment,
    TvlaConfig,
    accumulate_campaign_chunks,
    aggregate_class_results,
    results_from_accumulators,
)
from .moments import OnePassMoments, fold_moments

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
    draws exactly as the serial run does).  Chunks are distributed as
    evenly as possible; when there are fewer chunks than requested shards
    the surplus shards are dropped, so the returned tuple may be shorter
    than ``n_shards`` but never contains an empty range.

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


def merge_shard_partials(shard_results: Sequence[ShardChunkMoments],
                         config: TvlaConfig, design_name: str,
                         gate_names: Tuple[str, ...], elapsed_seconds: float,
                         n_shards: int) -> LeakageAssessment:
    """Merge per-shard accumulator sets into one design's assessment.

    The single definition of the campaign merge, shared by the durable
    runner (:mod:`repro.campaign.runner`) and the service's interim fold.
    Shard ranges are contiguous and ascending, so concatenating the
    per-chunk accumulators in shard order lists every chunk in global chunk
    order, and the left-fold below reproduces the serial run's association
    exactly — the same :func:`~repro.tvla.moments.fold_moments` the serial
    driver folds its chunks with — so the merged accumulator (and every
    t-value) is **bitwise equal** to the serial run's, independent of shard
    layout.  The per-class Welch results are then aggregated exactly as the
    serial driver aggregates them (:func:`aggregate_class_results`).

    Args:
        shard_results: Each shard's partials, in shard order (a subset of
            the shards folds the chunks those shards cover).
        config: The campaign configuration.
        design_name: Recorded as :attr:`LeakageAssessment.design_name`.
        gate_names: Column order of the partials' accumulators.
        elapsed_seconds: Recorded as the assessment's wall-clock time.
        n_shards: Shards in the campaign's layout (recorded).
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
    return aggregate_class_results(class_results, design_name, gate_names,
                                   config, elapsed_seconds, n_shards=n_shards)
