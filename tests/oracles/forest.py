"""Per-tree oracle of the lockstep random forest.

``RandomForestClassifier.fit`` grows all its trees together
(``repro.ml.tree._fit_lockstep``).  :func:`fit_forest_per_tree` fits the
same forest the way it was fitted before that: it redraws the bootstraps
from the forest's seed and fits each tree on its own with
``DecisionTreeClassifier.fit(features[bootstrap], labels[bootstrap])``,
every node searched by :func:`~oracles.tree.best_split_loop`.  The
fitted trees must match the lockstep ones bit for bit (PL002 pair
``forest-lockstep``).

Used by ``tests/test_ml_vectorised.py`` and by the ``random_forest`` row of
``microbench_ml_fit`` (``benchmarks/test_microbenchmarks.py``).
"""

from __future__ import annotations

from typing import Optional
from unittest import mock

import numpy as np

from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.base import check_sample_weight
from repro.ml.tree import _TreeBuilder

from .tree import best_split_loop


def fit_forest_per_tree(forest: RandomForestClassifier, features: np.ndarray,
                        labels: np.ndarray,
                        sample_weight: Optional[np.ndarray] = None
                        ) -> RandomForestClassifier:
    """Fit ``forest`` one tree at a time with the loop split search."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    n_samples, n_features = features.shape
    probabilities = None
    if sample_weight is not None:
        probabilities = check_sample_weight(sample_weight, n_samples)
    max_features = forest.max_features
    if max_features is None:
        max_features = max(1, int(np.sqrt(n_features)))
    rng = np.random.default_rng(forest.random_state)
    bootstraps = [rng.choice(n_samples, size=n_samples, replace=True,
                             p=probabilities)
                  for _ in range(forest.n_estimators)]
    trees = []
    with mock.patch.object(_TreeBuilder, "_best_split", best_split_loop):
        for index, bootstrap in enumerate(bootstraps):
            tree = DecisionTreeClassifier(
                max_depth=forest.max_depth,
                min_samples_leaf=forest.min_samples_leaf,
                max_features=max_features,
                random_state=forest.random_state + index + 1)
            trees.append(tree.fit(features[bootstrap], labels[bootstrap]))
    forest.estimators_ = trees
    forest.classes_ = np.unique(labels)
    forest.n_features_ = n_features
    return forest
