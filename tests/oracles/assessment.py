"""Running-fold reference of the per-chunk TVLA folds.

:func:`accumulate_campaign_slice` folds every chunk of one class's campaign
pair into one running accumulator per group.
:func:`repro.tvla.assessment.fold_trace_range` — the chunk fold of both
:func:`repro.tvla.assess_leakage` and a campaign shard — folds each chunk
into a fresh accumulator, and
:func:`repro.tvla.assessment.merge_shard_partials` left-folds those
instead; tests compare the two, which associate the same chunk moments in
the same order.
"""

from __future__ import annotations

from typing import Tuple

from repro.power.ctrsample import CounterStream
from repro.power.traces import PowerTraceGenerator
from repro.tvla.assessment import CampaignPair, TvlaConfig
from repro.tvla.moments import OnePassMoments


def accumulate_campaign_slice(
    generator: PowerTraceGenerator,
    pair: CampaignPair,
    config: TvlaConfig,
    class_index: int,
    first_chunk: int = 0,
) -> Tuple[OnePassMoments, OnePassMoments]:
    """Running-fold reference of ``fold_trace_range``.

    Folds every chunk of :meth:`PowerTraceGenerator.generate_stream` into
    one running accumulator pair.  ``assess_leakage`` left-folds per-chunk
    accumulators instead; tests compare the two, which associate the
    same chunk moments in the same order.
    """
    shape = (generator.n_gates,)
    max_order = config.moment_order()
    accumulators = (OnePassMoments(max_order=max_order, shape=shape),
                    OnePassMoments(max_order=max_order, shape=shape))
    for group_index, campaign in enumerate(pair):
        stream = CounterStream(config.seed, class_index, group_index)
        for traces in generator.generate_stream(campaign, config.chunk_traces,
                                                stream, first_chunk):
            accumulators[group_index].update_batch(traces.per_gate)
    return accumulators
