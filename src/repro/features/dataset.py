"""Labelled dataset container for POLARIS model training.

Algorithm 1 of the paper appends ``(structural feature vector, good/bad
label)`` pairs to ``{X_data, Y_data}``; this module is that container,
built from those rows, with its class-balance summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Dataset:
    """A labelled feature matrix.

    Attributes:
        features: Matrix of shape ``(n_samples, n_features)``.
        labels: Integer labels of shape ``(n_samples,)`` (0 = bad masking
            candidate, 1 = good masking candidate).
        feature_names: Column names, used by SHAP explanations and rules.
        metadata: Free-form provenance (design names, parameters, ...).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: Tuple[str, ...]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.feature_names = tuple(self.feature_names)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match number of feature rows")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length must match feature columns")

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of labelled samples."""
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return int(self.features.shape[1])

    def class_counts(self) -> Dict[int, int]:
        """Histogram of labels (useful for monitoring the θr imbalance)."""
        unique, counts = np.unique(self.labels, return_counts=True)
        return {int(u): int(c) for u, c in zip(unique, counts)}

    def positive_fraction(self) -> float:
        """Fraction of samples labelled 1 ('good masking')."""
        if self.n_samples == 0:
            return 0.0
        return float(np.mean(self.labels == 1))

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[np.ndarray, int]],
                  feature_names: Sequence[str],
                  metadata: Optional[Dict[str, object]] = None) -> "Dataset":
        """Build a dataset from an iterable of ``(feature_vector, label)``."""
        rows = list(rows)
        if not rows:
            return cls(np.zeros((0, len(feature_names))), np.zeros(0, dtype=int),
                       tuple(feature_names), metadata or {})
        features = np.vstack([np.asarray(r[0], dtype=float) for r in rows])
        labels = np.array([int(r[1]) for r in rows], dtype=int)
        return cls(features, labels, tuple(feature_names), metadata or {})
