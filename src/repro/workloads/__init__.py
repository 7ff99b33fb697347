"""Workload suites for training and evaluation."""

from .suites import (
    WorkloadConfig,
    evaluation_designs,
    training_designs,
)

__all__ = [
    "WorkloadConfig",
    "evaluation_designs",
    "training_designs",
]
