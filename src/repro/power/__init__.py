"""Power modelling: per-gate traces, noise, and area/power/delay analysis."""

from .bitops import popcount16, words_for_units
from .ctrsample import CounterDraws, CounterStream
from .model import GatePowerModel, PowerModelConfig
from .traces import PowerTraceGenerator, PowerTraces
from .overhead import (
    DEFAULT_ACTIVITY,
    DesignMetrics,
    analyze_design,
    critical_path_delay,
    overhead_report,
)

__all__ = [
    "popcount16",
    "words_for_units",
    "CounterDraws",
    "CounterStream",
    "GatePowerModel",
    "PowerModelConfig",
    "PowerTraceGenerator",
    "PowerTraces",
    "DEFAULT_ACTIVITY",
    "DesignMetrics",
    "analyze_design",
    "critical_path_delay",
    "overhead_report",
]
