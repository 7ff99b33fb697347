"""Per-sample Tree SHAP engine: the oracle of the batched sweep.

* :func:`expectation` walks one tree recursively for one sample: the
  oracle of ``repro.xai.tree_shap._WeightedTree.expectation_batch``
  (PL002 pair ``tree-shap-expectation``).
* :func:`explain_per_sample` explains one sample with that walk, coalition
  by coalition: the oracle of ``TreeShapExplainer.explain_matrix`` (PL002
  pair ``tree-shap-explain``), whose rows must match it bit for bit.
* :func:`base_value` is the explainer's base value from the walk, added
  tree by tree onto the offset.

The walks read Python lists made once per tree from its ``FlatTree``
arrays, so each node visit costs list lookups and Python float
arithmetic, not numpy scalar operations.
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


def expectation(tree: _WeightedTree, sample: np.ndarray,
                known: frozenset) -> float:
    """Recursive conditional expectation of one tree for one sample."""
    return _TreeWalk(tree).expectation(sample, known)


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


def _sampled_shapley(walk: _TreeWalk, sample: np.ndarray,
                     used: Tuple[int, ...], n_permutations: int,
                     seed: int) -> Dict[int, float]:
    rng = np.random.default_rng(seed)
    contributions = {feature: 0.0 for feature in used}
    used_array = np.array(used)
    for _ in range(n_permutations):
        order = rng.permutation(used_array)
        current: frozenset = frozenset()
        previous_value = walk.expectation(sample, current)
        for feature in order:
            current = current | {int(feature)}
            new_value = walk.expectation(sample, current)
            contributions[int(feature)] += new_value - previous_value
            previous_value = new_value
    for feature in used:
        contributions[feature] /= n_permutations
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
    """Shapley values of one sample, tree by tree and coalition by
    coalition; bitwise equal to the sample's row of
    ``explainer.explain_matrix``."""
    sample = np.asarray(sample, dtype=float).ravel()
    if sample.shape[0] != explainer._n_features:
        raise ValueError("sample length does not match the model")
    walks = [_TreeWalk(tree) for tree in explainer._trees]
    phi = np.zeros(explainer._n_features)
    for tree, walk in zip(explainer._trees, walks):
        tree_phi = np.zeros(explainer._n_features)
        used = tree.used_features()
        if used:
            if len(used) <= explainer.max_exact_features:
                contributions = _exact_shapley(walk, sample, used)
            else:
                contributions = _sampled_shapley(
                    walk, sample, used, explainer.n_permutations,
                    explainer.seed)
            for feature, value in contributions.items():
                tree_phi[feature] = value
        phi += tree.weight * tree_phi
    return Explanation(
        base_value=explainer.base_value,
        shap_values=phi,
        data=sample,
        feature_names=explainer.feature_names,
        prediction=_predict_output(explainer, sample, walks),
    )
