"""Per-sample Tree SHAP engine: the oracle of the leaf-path engine.

* :func:`explain_per_sample` explains one sample tree by tree, enumerating
  every coalition of the features the tree splits on; each coalition's
  value is a recursive walk of the tree (:meth:`_TreeWalk.expectation`).
  It is the oracle of ``TreeShapExplainer.explain_matrix`` and its engine
  ``_LeafTable.shap_block`` (PL002 pair ``tree-shap-explain``), whose rows
  must match it to round-off (1e-10).  Its prediction is the model's own
  output (``decision_function`` / ``predict`` / the trees' walks).
* :func:`base_value` is the explainer's base value from the walk, added
  tree by tree onto the offset.

The walks read Python lists made once per tree from its ``FlatTree``
arrays, so each node visit costs list lookups and Python float
arithmetic, not numpy scalar operations.  Enumeration costs ``2^k``
walks for a tree that splits on ``k`` features, so tests keep ``k`` small
(at most 13).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Dict, Tuple

import numpy as np

from repro.ml.tree import LEAF
from repro.xai.explain import Explanation
from repro.xai.tree_shap import TreeShapExplainer, _WeightedTree

from .tree import NodeLists


class _TreeWalk(NodeLists):
    """One weighted tree as Python lists, walked one sample at a time."""

    def __init__(self, tree: _WeightedTree) -> None:
        super().__init__(tree.flat)
        self.cover = tree.flat.cover.tolist()
        self.output = tree.output.tolist()

    def expectation(self, sample: np.ndarray, known: frozenset) -> float:
        """E[tree(x)] when the features in ``known`` follow ``sample``;
        the others are marginalised with the per-branch training cover."""
        def recurse(index: int) -> float:
            feature = self.feature[index]
            if feature == LEAF:
                return self.output[index]
            left, right = self.left[index], self.right[index]
            if feature in known:
                if sample[feature] <= self.threshold[index]:
                    return recurse(left)
                return recurse(right)
            total = self.cover[left] + self.cover[right]
            if total <= 0:
                return 0.5 * (recurse(left) + recurse(right))
            return (self.cover[left] / total * recurse(left)
                    + self.cover[right] / total * recurse(right))

        return recurse(0)


def base_value(explainer: TreeShapExplainer) -> float:
    """The explainer's offset plus every tree's weighted root expectation
    with no known feature, added one tree at a time."""
    total = explainer._offset
    dummy = np.zeros(explainer._n_features)
    for tree in explainer._trees:
        total += tree.weight * _TreeWalk(tree).expectation(dummy, frozenset())
    return float(total)


def _exact_shapley(walk: _TreeWalk, sample: np.ndarray,
                   used: Tuple[int, ...]) -> Dict[int, float]:
    n_used = len(used)
    cache: Dict[frozenset, float] = {}

    def value(subset: frozenset) -> float:
        if subset not in cache:
            cache[subset] = walk.expectation(sample, subset)
        return cache[subset]

    contributions = {feature: 0.0 for feature in used}
    others = {feature: tuple(f for f in used if f != feature)
              for feature in used}
    factorials = [factorial(k) for k in range(n_used + 1)]
    denominator = factorials[n_used]
    for feature in used:
        for size in range(n_used):
            weight = factorials[size] * factorials[n_used - size - 1] / denominator
            for subset in combinations(others[feature], size):
                base = frozenset(subset)
                contributions[feature] += weight * (
                    value(base | {feature}) - value(base))
    return contributions


def _predict_output(explainer: TreeShapExplainer, sample: np.ndarray,
                    walks) -> float:
    """Model output in the explainer's output space for one sample."""
    row = sample.reshape(1, -1)
    if explainer.link == "logit":
        return float(explainer.model.decision_function(row)[0])
    if explainer.link == "identity":
        return float(explainer.model.predict(row)[0])
    total = explainer._offset
    known = frozenset(range(explainer._n_features))
    for tree, walk in zip(explainer._trees, walks):
        total += tree.weight * walk.expectation(sample, known)
    return float(total)


def explain_per_sample(explainer: TreeShapExplainer,
                       sample: np.ndarray) -> Explanation:
    """Shapley values, base value and prediction of one sample, tree by
    tree and coalition by coalition; equal to the sample's row of
    ``explainer.explain_matrix`` to round-off."""
    sample = np.asarray(sample, dtype=float).ravel()
    if sample.shape[0] != explainer._n_features:
        raise ValueError("sample length does not match the model")
    walks = [_TreeWalk(tree) for tree in explainer._trees]
    phi = np.zeros(explainer._n_features)
    for tree, walk in zip(explainer._trees, walks):
        tree_phi = np.zeros(explainer._n_features)
        used = tuple(np.unique(tree.flat.feature[tree.flat.feature != LEAF])
                     .tolist())
        for feature, value in _exact_shapley(walk, sample, used).items():
            tree_phi[feature] = value
        phi += tree.weight * tree_phi
    return Explanation(
        base_value=base_value(explainer),
        shap_values=phi,
        data=sample,
        feature_names=explainer.feature_names,
        prediction=_predict_output(explainer, sample, walks),
    )
