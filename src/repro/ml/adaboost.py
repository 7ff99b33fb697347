"""AdaBoost classifier (SAMME) over shallow CART trees.

AdaBoost is the model family the paper ultimately selects for POLARIS
(Table III: best average leakage reduction).  This implementation follows
the discrete SAMME algorithm with a configurable ``learning_rate`` (the
paper sets alpha = 0.01) and supports per-sample weights for the weighted
training used to counter the theta_r class imbalance.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import (
    BaseClassifier,
    NotFittedError,
    check_features,
    check_labels,
    check_learning_rate,
    check_sample_weight,
)
from .tree import DecisionTreeClassifier, _PresortedColumns


class AdaBoostClassifier(BaseClassifier):
    """Discrete SAMME AdaBoost with decision-tree weak learners.

    Args:
        n_estimators: Maximum number of boosting rounds.
        learning_rate: Shrinkage applied to each estimator's weight.
        max_depth: Depth of each weak learner (1 = decision stumps).
        random_state: Seed (forwarded to the weak learners).
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.01,
                 max_depth: int = 2, random_state: int = 0) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        check_learning_rate(learning_rate)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state
        self.estimators_: List[DecisionTreeClassifier] = []
        self.estimator_weights_: List[float] = []
        self.classes_: np.ndarray = np.array([])
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, labels: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "AdaBoostClassifier":
        features = check_features(features)
        labels = check_labels(labels, features.shape[0])
        weights = check_sample_weight(sample_weight, features.shape[0]).copy()
        self.classes_ = np.unique(labels)
        self.n_features_ = features.shape[1]
        n_classes = len(self.classes_)
        if n_classes < 2:
            # Degenerate training set: always predict the single class.
            self.estimators_ = []
            self.estimator_weights_ = []
            return self

        self.estimators_ = []
        self.estimator_weights_ = []
        # Low-learning-rate rounds regrow nearly the same trees: share one
        # presort (and its node memo) across them for this fit only.
        presorted = _PresortedColumns(features, min_samples_leaf=1,
                                      shared=True)
        for round_index in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                random_state=self.random_state + round_index,
            )
            tree._fit_presorted(presorted, labels, sample_weight=weights)
            predictions = tree.predict(features)
            incorrect = predictions != labels
            error = float(np.sum(weights * incorrect))
            error = min(max(error, 1e-12), 1.0 - 1e-12)
            if error >= 1.0 - 1.0 / n_classes:
                # Weak learner no better than chance: stop boosting.
                if not self.estimators_:
                    self.estimators_.append(tree)
                    self.estimator_weights_.append(1.0)
                break
            alpha = self.learning_rate * (
                np.log((1.0 - error) / error) + np.log(n_classes - 1.0))
            self.estimators_.append(tree)
            self.estimator_weights_.append(float(alpha))
            weights = weights * np.exp(alpha * incorrect.astype(float))
            total = weights.sum()
            if total <= 0:
                break
            weights = weights / total
            if error <= 1e-10:
                break
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Per-class weighted vote matrix ``(n_samples, n_classes)``."""
        if self.classes_.size == 0:
            raise NotFittedError("AdaBoostClassifier is not fitted")
        features = check_features(features)
        if not self.estimators_:
            # Degenerate single-class training: unanimous vote for that class.
            return np.ones((features.shape[0], len(self.classes_)))
        votes = np.zeros((features.shape[0], len(self.classes_)))
        rows = np.arange(features.shape[0])
        for tree, alpha in zip(self.estimators_, self.estimator_weights_):
            # Each weak learner's vote depends only on which leaf a sample
            # lands in, so resolve argmax + label -> vote-column on the
            # tiny per-node table once (classes_ is sorted, np.unique) and
            # gather it by leaf index, instead of materialising the full
            # probability matrix and mapping every sample's label.
            flat = tree.tree_.flat
            node_votes = np.searchsorted(self.classes_, tree.classes_)[
                np.argmax(flat.value, axis=1)]
            votes[rows, node_votes[tree.tree_.leaf_indices(features)]] += alpha
        return votes

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        votes = self.decision_function(features)
        total = votes.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        return votes / total

    @property
    def feature_importances_(self) -> np.ndarray:
        """Weight-averaged importances of the weak learners (zeros after a
        single-class fit, which grows no tree)."""
        if self.classes_.size == 0:
            raise NotFittedError("AdaBoostClassifier is not fitted")
        if not self.estimators_:
            return np.zeros(self.n_features_)
        weights = np.asarray(self.estimator_weights_, dtype=float)
        weights = weights / weights.sum() if weights.sum() > 0 else weights
        stacked = np.vstack([tree.feature_importances_ for tree in self.estimators_])
        return (weights[:, None] * stacked).sum(axis=0)
