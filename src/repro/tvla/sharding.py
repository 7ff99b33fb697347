"""Chunk-aligned shards of a TVLA campaign.

The durable campaign runner (:mod:`repro.campaign.runner`) splits a
campaign's trace range into **chunk-aligned shards**
(:func:`shard_trace_ranges`).  Each worker folds one shard's range into
per-chunk accumulators with
:func:`~repro.tvla.assessment.fold_trace_range` and seals them in a
checkpoint; the collector merges the partials with
:func:`~repro.tvla.assessment.merge_shard_partials` (re-exported here).
Both are the functions :func:`~repro.tvla.assessment.assess_leakage`
runs, which is a one-shard campaign.

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

Shards leave the process only through the campaign queue
(``run_campaign``, or ``submit_campaign`` plus ``polaris-campaign work``).
"""

from __future__ import annotations

from typing import List, Tuple

from .assessment import merge_shard_partials

__all__ = ["merge_shard_partials", "shard_trace_ranges"]


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

