"""Gradient-boosted decision trees (the "XGBoost" model of Table III).

The offline environment has no xgboost, so this module implements binary
gradient boosting with logistic loss over CART regression trees, including
the features the paper's configuration relies on: a configurable learning
rate (alpha = 0.01), per-sample weights (used for the weighted training
that counters the theta_r class imbalance) and second-order (Newton) leaf
estimates in the XGBoost style.

Every round fits on all rows with the same sample weights, so the rounds
share one presort (``_PresortedColumns`` in :mod:`repro.ml.tree`) that
holds those weights: its split-path memo caches each node's rows, sorted
order and candidate splits, and also its weight state (the node's row
weights and their total, and the weight prefix sums and totals at its
candidates).  A round that regrows a node gathers and sums only its
gradient.  The trees are bitwise those of ``DecisionTreeRegressor.fit``
on each round's gradient and the same weights.
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
from .tree import DecisionTreeRegressor, _PresortedColumns


def _sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(values, -60.0, 60.0)))


class GradientBoostingClassifier(BaseClassifier):
    """Binary gradient boosting with logistic loss.

    Each round fits a regression tree to the negative gradient (residuals)
    of the logistic loss and applies a Newton step per leaf, matching the
    additive-model formulation popularised by XGBoost.

    Args:
        n_estimators: Boosting rounds.
        learning_rate: Shrinkage per round.
        max_depth: Depth of each regression tree.
        min_samples_leaf: Minimum samples per leaf in the trees.
        random_state: Seed of the trees' feature selection.
    """

    def __init__(self, n_estimators: int = 150, learning_rate: float = 0.01,
                 max_depth: int = 3, min_samples_leaf: int = 1,
                 random_state: int = 0) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        check_learning_rate(learning_rate)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.estimators_: List[DecisionTreeRegressor] = []
        self.initial_score_: float = 0.0
        #: Explicit not-fitted flag: ``initial_score_`` legitimately stays
        #: 0.0 after a perfectly balanced fit, so it cannot double as the
        #: sentinel.
        self.fitted_: bool = False
        self.classes_: np.ndarray = np.array([])
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, labels: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "GradientBoostingClassifier":
        features = check_features(features)
        labels = check_labels(labels, features.shape[0])
        weights = check_sample_weight(sample_weight, features.shape[0])
        self.classes_ = np.unique(labels)
        self.n_features_ = features.shape[1]
        if len(self.classes_) > 2:
            raise ValueError("GradientBoostingClassifier supports binary labels only")
        if len(self.classes_) == 1:
            self.initial_score_ = 20.0 if self.classes_[0] == 1 else -20.0
            self.estimators_ = []
            self.fitted_ = True
            return self
        # Map labels to {0, 1}; the positive class is the larger label value.
        positive = labels == self.classes_[-1]
        targets = positive.astype(float)

        base_rate = float(np.clip(np.average(targets, weights=weights), 1e-6, 1 - 1e-6))
        self.initial_score_ = float(np.log(base_rate / (1.0 - base_rate)))

        scores = np.full(features.shape[0], self.initial_score_)
        self.estimators_ = []
        # Every round searches the same rows with the same weights, so the
        # rounds share one presort, its node memo and the memo's weight
        # cache for this fit.  The presort re-validates the weights as
        # ``DecisionTreeRegressor.fit`` would.
        presorted = _PresortedColumns(features, self.min_samples_leaf,
                                      shared=True, weights=weights)
        for round_index in range(self.n_estimators):
            probabilities = _sigmoid(scores)
            gradient = targets - probabilities
            hessian = probabilities * (1.0 - probabilities)

            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=self.random_state + round_index,
            )
            tree._fit_fixed_weights(presorted, gradient)
            self._newton_adjust_leaves(tree, features, gradient, hessian,
                                       weights)
            update = tree.predict(features)
            scores = scores + self.learning_rate * update
            self.estimators_.append(tree)
        self.fitted_ = True
        return self

    def _newton_adjust_leaves(self, tree: DecisionTreeRegressor,
                              features: np.ndarray, gradient: np.ndarray,
                              hessian: np.ndarray, weights: np.ndarray) -> None:
        """Replace leaf means with Newton steps ``sum(g) / sum(h)``."""
        assert tree.tree_ is not None
        leaf_for_sample = tree.tree_.leaf_indices(features)
        for leaf_index in np.unique(leaf_for_sample):
            mask = leaf_for_sample == leaf_index
            numerator = float(np.sum(weights[mask] * gradient[mask]))
            denominator = float(np.sum(weights[mask] * hessian[mask])) + 1e-12
            tree.tree_.set_node_value(int(leaf_index),
                                      np.array([numerator / denominator]))

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds of the positive class)."""
        if not self.fitted_:
            raise NotFittedError("GradientBoostingClassifier is not fitted")
        features = check_features(features)
        scores = np.full(features.shape[0], self.initial_score_)
        for tree in self.estimators_:
            scores = scores + self.learning_rate * tree.predict(features)
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        scores = self.decision_function(features)
        positive = _sigmoid(scores)
        if len(self.classes_) == 1:
            return np.ones((features.shape[0] if features.ndim > 1 else 1, 1))
        return np.column_stack([1.0 - positive, positive])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-based importances over all boosting rounds (zeros
        after a single-class fit, which grows no tree)."""
        if not self.fitted_:
            raise NotFittedError("GradientBoostingClassifier is not fitted")
        if not self.estimators_:
            return np.zeros(self.n_features_)
        return np.mean([tree.feature_importances_ for tree in self.estimators_], axis=0)
