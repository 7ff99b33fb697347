"""POLARIS core: configuration, cognition generation, masking, pipeline."""

from .config import ModelConfig, PolarisConfig, SUPPORTED_MODELS, paper_configuration
from .cognition import (
    CognitionReport,
    build_model,
    generate_cognition,
    leakage_reduction_ratio,
    train_masking_model,
)
from .masking import GateScore, PolarisMaskingOutcome, polaris_mask, rank_gates
from .pipeline import (
    ProtectionReport,
    TrainedPolaris,
    protect_design,
    train_polaris,
)
from .reporting import (
    ExperimentRecord,
    ExperimentRecorder,
    format_table,
)

__all__ = [
    "ModelConfig",
    "PolarisConfig",
    "SUPPORTED_MODELS",
    "paper_configuration",
    "CognitionReport",
    "build_model",
    "generate_cognition",
    "leakage_reduction_ratio",
    "train_masking_model",
    "GateScore",
    "PolarisMaskingOutcome",
    "polaris_mask",
    "rank_gates",
    "ProtectionReport",
    "TrainedPolaris",
    "protect_design",
    "train_polaris",
    "ExperimentRecord",
    "ExperimentRecorder",
    "format_table",
]
