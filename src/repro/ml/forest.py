"""Random forest classifier (bagged CART trees with feature subsampling)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import (
    BaseClassifier,
    NotFittedError,
    check_features,
    check_labels,
    check_sample_weight,
)
from .tree import DecisionTreeClassifier, _check_max_features, _fit_lockstep


class RandomForestClassifier(BaseClassifier):
    """Bootstrap-aggregated decision trees.

    Each tree is trained on a bootstrap resample of the training data and
    considers a random subset of features at every split (``max_features``,
    default ``sqrt(n_features)``), the standard Breiman recipe.  Predicted
    probabilities are the average of the per-tree leaf distributions.

    ``fit`` draws every bootstrap first (the forest's generator draws
    nothing else), then grows all trees together with the lockstep builder
    of :mod:`repro.ml.tree`: one step searches one node of every
    unfinished tree, the class counts at every candidate threshold come
    from one ``bincount`` over rank-coded features, and each weight sum is
    looked up by integer count in a ``sequential`` (running-sum) or a
    ``pairwise`` (numpy ``sum``) table.  Every tree is bitwise the one
    ``DecisionTreeClassifier.fit`` grows on its bootstrap.

    Args:
        n_estimators: Number of trees.
        max_depth: Depth limit per tree.
        min_samples_leaf: Minimum samples per leaf.
        max_features: Features per split (``>= 1``); ``None`` selects
            ``sqrt``.
        random_state: Seed controlling bootstraps and feature subsampling.
    """

    def __init__(self, n_estimators: int = 50, max_depth: Optional[int] = None,
                 min_samples_leaf: int = 1, max_features: Optional[int] = None,
                 random_state: int = 0) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        _check_max_features(max_features)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.estimators_: List[DecisionTreeClassifier] = []
        self.classes_: np.ndarray = np.array([])
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, labels: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "RandomForestClassifier":
        features = check_features(features)
        labels = check_labels(labels, features.shape[0])
        n_samples = features.shape[0]
        self.classes_ = np.unique(labels)
        self.n_features_ = features.shape[1]
        rng = np.random.default_rng(self.random_state)
        max_features = self.max_features
        if max_features is None:
            max_features = max(1, int(np.sqrt(self.n_features_)))

        # check_sample_weight rejects negative and zero-sum weights with a
        # clear error (a raw zero-sum vector used to surface as NaN
        # bootstrap probabilities inside rng.choice) and returns the
        # normalised vector, which is exactly the bootstrap distribution.
        probabilities = None
        if sample_weight is not None:
            probabilities = check_sample_weight(sample_weight, n_samples)

        bootstraps = np.array([
            rng.choice(n_samples, size=n_samples, replace=True,
                       p=probabilities)
            for _ in range(self.n_estimators)])
        self.estimators_ = [
            DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                random_state=self.random_state + index + 1)
            for index in range(self.n_estimators)]
        _fit_lockstep(self.estimators_, features, labels, bootstraps)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise NotFittedError("RandomForestClassifier is not fitted")
        features = check_features(features)
        total = np.zeros((features.shape[0], len(self.classes_)))
        for tree in self.estimators_:
            proba = tree.predict_proba(features)
            # Align tree classes (a bootstrap may miss a class entirely);
            # classes_ is sorted (np.unique), so searchsorted maps each
            # tree column to its forest column in one shot.
            aligned = np.zeros_like(total)
            aligned[:, np.searchsorted(self.classes_, tree.classes_)] = proba
            total += aligned
        return total / len(self.estimators_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-based importances across the forest."""
        if not self.estimators_:
            raise NotFittedError("RandomForestClassifier is not fitted")
        return np.mean([tree.feature_importances_ for tree in self.estimators_],
                       axis=0)
