"""Workload suites for training and evaluation."""

from .suites import (
    WorkloadConfig,
    evaluation_designs,
    suite_summary,
    training_designs,
)

__all__ = [
    "WorkloadConfig",
    "evaluation_designs",
    "suite_summary",
    "training_designs",
]
