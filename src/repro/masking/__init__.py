"""Masking substrate: masked composite gates and the masking transform."""

from .masked_gates import masked_type_for, needs_output_inverter
from .transform import (
    MaskingResult,
    apply_masking,
    mask_fraction,
    maskable_gates,
)

__all__ = [
    "masked_type_for",
    "needs_output_inverter",
    "MaskingResult",
    "apply_masking",
    "mask_fraction",
    "maskable_gates",
]
