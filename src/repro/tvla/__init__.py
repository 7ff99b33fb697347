"""Test Vector Leakage Assessment (TVLA) engine."""

from .moments import OnePassMoments
from .welch import (
    TVLA_THRESHOLD,
    WelchResult,
    moment_order_for_tvla,
    welch_from_accumulators,
    welch_from_moments,
    welch_higher_order,
    welch_t_test,
)
from .assessment import (
    LeakageAssessment,
    SUPPORTED_TVLA_ORDERS,
    TvlaConfig,
    assess_leakage,
    campaign_schedule,
    compare_assessments,
    merge_shard_partials,
)
from .sharding import shard_trace_ranges

__all__ = [
    "OnePassMoments",
    "TVLA_THRESHOLD",
    "WelchResult",
    "moment_order_for_tvla",
    "welch_from_accumulators",
    "welch_from_moments",
    "welch_higher_order",
    "welch_t_test",
    "LeakageAssessment",
    "SUPPORTED_TVLA_ORDERS",
    "TvlaConfig",
    "assess_leakage",
    "campaign_schedule",
    "compare_assessments",
    "merge_shard_partials",
    "shard_trace_ranges",
]
