"""The campaign runner's shard path, run in one process.

:func:`runner_shard_path` folds every shard of a layout with
``fold_trace_range`` (as the worker's shard task does), seals each into
checkpoint bytes and reads it back, then merges the shards with
``merge_shard_partials`` as the collector and the service merge.  Its
assessment must be bitwise equal to ``assess_leakage``.

Used by ``tests/test_tvla_sharding.py`` and ``tests/test_ctrsample.py``.
"""

from repro.campaign import pack_shard_moments, unpack_shard_moments
from repro.tvla import (
    campaign_schedule,
    merge_shard_partials,
    shard_trace_ranges,
)
from repro.tvla.assessment import fold_trace_range, resolve_generator


def runner_shard_path(netlist, config, n_shards):
    """Assess ``netlist`` through the runner's shard path at ``n_shards``."""
    generator = resolve_generator(netlist, config, None)
    campaigns = campaign_schedule(netlist, config)
    ranges = shard_trace_ranges(config.n_traces, n_shards,
                                config.chunk_traces)
    partials = [
        unpack_shard_moments(pack_shard_moments(
            fold_trace_range(generator, campaigns, config, start, stop)))
        for start, stop in ranges
    ]
    return merge_shard_partials(partials, config, netlist.name,
                                generator.gate_names, 0.0, len(ranges))
