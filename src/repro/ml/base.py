"""Common estimator interface for the from-scratch ML substrate.

The offline environment provides only numpy/scipy, so the models the paper
uses (Random Forest, XGBoost-style gradient boosting, AdaBoost, plus SMOTE
and SHAP) are implemented in this package.  All estimators follow a small
scikit-learn-like protocol so the POLARIS pipeline, the SHAP explainers and
the benches can treat them interchangeably.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when ``predict`` is called before ``fit``."""


def check_features(features: np.ndarray) -> np.ndarray:
    """Validate and coerce a feature matrix to 2-D float."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features.reshape(1, -1)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    return features


def check_labels(labels: np.ndarray, n_samples: int) -> np.ndarray:
    """Validate integer labels against the number of samples."""
    labels = np.asarray(labels)
    if labels.shape != (n_samples,):
        raise ValueError("labels must be a vector matching the feature rows")
    return labels


def check_fit_rows(n_samples: int) -> None:
    """Reject fitting on a feature matrix without rows."""
    if n_samples == 0:
        raise ValueError("cannot fit on an empty feature matrix (0 rows)")


def check_learning_rate(learning_rate: float) -> None:
    """Reject a boosting learning rate that is not finite or is <= 0."""
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError("learning_rate must be finite and positive")


def check_sample_weight(sample_weight: Optional[np.ndarray],
                        n_samples: int) -> np.ndarray:
    """Return validated sample weights (uniform when ``None``) for fitting
    on ``n_samples`` rows."""
    check_fit_rows(n_samples)
    if sample_weight is None:
        return np.full(n_samples, 1.0 / n_samples)
    sample_weight = np.asarray(sample_weight, dtype=float)
    if sample_weight.shape != (n_samples,):
        raise ValueError("sample_weight must match the number of samples")
    if np.any(sample_weight < 0):
        raise ValueError("sample_weight must be non-negative")
    total = sample_weight.sum()
    if total <= 0:
        raise ValueError("sample_weight must not sum to zero")
    return sample_weight / total


class BaseClassifier(abc.ABC):
    """Minimal binary/multi-class classifier protocol."""

    classes_: np.ndarray

    @abc.abstractmethod
    def fit(self, features: np.ndarray, labels: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "BaseClassifier":
        """Fit the model and return ``self``."""

    @abc.abstractmethod
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, n_classes)``."""

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most probable class per sample."""
        probabilities = self.predict_proba(features)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean accuracy on the given data."""
        predictions = self.predict(features)
        labels = np.asarray(labels)
        return float(np.mean(predictions == labels))

    def positive_score(self, features: np.ndarray) -> np.ndarray:
        """Probability of the positive class (label 1, or the last class)."""
        probabilities = self.predict_proba(features)
        classes = list(self.classes_)
        column = classes.index(1) if 1 in classes else len(classes) - 1
        return probabilities[:, column]
