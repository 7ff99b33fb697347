"""Tree SHAP: Shapley values for the tree ensembles of :mod:`repro.ml`.

The paper highlights SHAP's model-specific Tree SHAP variant as one reason
for choosing SHAP over LIME/Captum.  This implementation computes exact
Shapley values per tree under the *path-dependent* value function used by
Tree SHAP: the value of a feature coalition ``S`` is the expectation of the
tree output when features in ``S`` follow the explained sample and all other
split decisions are marginalised according to the training cover of each
branch.  Shapley values of an ensemble are the sum of the per-tree values
(linearity).

Exactness is achieved by enumerating coalitions over only the features a
tree actually splits on (for POLARIS's shallow AdaBoost learners that is at
most a handful per tree); when a single tree uses more features than
``max_exact_features`` the explainer falls back to an unbiased permutation-
sampling estimate for that tree.

There is one engine: each coalition expectation is one bottom-up sweep
over a tree's :class:`~repro.ml.tree.FlatTree` arrays for a whole sample
matrix (:meth:`TreeShapExplainer.explain_matrix`), and
:meth:`TreeShapExplainer.explain` is its one-row case.  The recursive
per-sample engine it replaced is the tests' oracle
(``tests/oracles/tree_shap.py``).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ml.adaboost import AdaBoostClassifier
from ..ml.forest import RandomForestClassifier
from ..ml.gradient_boosting import GradientBoostingClassifier
from ..ml.tree import (LEAF, DecisionTreeClassifier, DecisionTreeRegressor,
                       FlatTree)
from .explain import Explanation


class _WeightedTree:
    """A single tree's :class:`FlatTree`, its weight and its output.

    ``output`` holds the tree's scalar output per node in the explainer's
    output convention, which :meth:`expectation_batch` sweeps bottom-up
    for a whole sample matrix at once.  Node indices are topologically
    ordered (children after parents), so one reverse pass visits every
    child before its parent.
    """

    def __init__(self, flat: FlatTree, weight: float,
                 output: np.ndarray) -> None:
        self.flat = flat
        self.weight = weight
        self.output = output

    def used_features(self) -> Tuple[int, ...]:
        """The features the tree splits on, ascending."""
        return tuple(np.unique(self.flat.feature[self.flat.feature != LEAF])
                     .tolist())

    def expectation_batch(self, samples: np.ndarray,
                          known: frozenset) -> np.ndarray:
        """E[tree(x)] for every row ``x`` of ``samples`` when the features
        in ``known`` follow the row.

        Unknown split features are marginalised with the per-branch
        training cover, which is the path-dependent Tree SHAP convention.
        One bottom-up pass over the flat node arrays: each node's
        conditional expectation is an ``(n_samples,)`` vector computed from
        its children's vectors.  Bit-identical per row to the tests'
        recursive ``expectation`` (oracle pair ``tree-shap-expectation``,
        polaris-lint PL002): same cover ratios, same operation order.
        The node loop reads the arrays as Python lists (float64 values
        either way), which spares a numpy scalar per read.
        """
        flat = self.flat
        features, thresholds = flat.feature.tolist(), flat.threshold.tolist()
        lefts, rights = flat.left.tolist(), flat.right.tolist()
        cover, output = flat.cover.tolist(), self.output.tolist()
        values = np.empty((flat.n_nodes, samples.shape[0]))
        for index in range(flat.n_nodes - 1, -1, -1):
            feature = features[index]
            if feature < 0:
                values[index] = output[index]
                continue
            left = lefts[index]
            right = rights[index]
            if feature in known:
                go_left = samples[:, feature] <= thresholds[index]
                values[index] = np.where(go_left, values[left], values[right])
                continue
            total = cover[left] + cover[right]
            if total <= 0:
                values[index] = 0.5 * (values[left] + values[right])
            else:
                values[index] = (cover[left] / total * values[left]
                                 + cover[right] / total * values[right])
        return values[0]


def _column_output(flat: FlatTree, column: int) -> np.ndarray:
    """Node outputs of a classification tree: its ``column`` of class
    probabilities, 0.0 where the tree has no such column."""
    if column >= flat.value.shape[1]:
        return np.zeros(flat.n_nodes)
    return flat.value[:, column]


def _extract_trees(model: object, positive_class: int = 1) -> Tuple[List[_WeightedTree], float, str]:
    """Pull (tree, weight) pairs out of a supported ensemble.

    Returns:
        ``(trees, offset, link)`` where ``offset`` is an additive constant
        (e.g. the boosting initial score) and ``link`` names the output
        space (``"probability"`` or ``"logit"``).
    """
    trees: List[_WeightedTree] = []
    if isinstance(model, DecisionTreeClassifier):
        flat = model.tree_.flat
        column = _class_column(model, positive_class)
        trees.append(_WeightedTree(flat, 1.0, _column_output(flat, column)))
        return trees, 0.0, "probability"
    if isinstance(model, DecisionTreeRegressor):
        flat = model.tree_.flat
        trees.append(_WeightedTree(flat, 1.0, flat.value[:, 0]))
        return trees, 0.0, "identity"
    if isinstance(model, RandomForestClassifier):
        weight = 1.0 / len(model.estimators_)
        for tree in model.estimators_:
            flat = tree.tree_.flat
            column = _class_column(tree, positive_class)
            trees.append(_WeightedTree(flat, weight,
                                       _column_output(flat, column)))
        return trees, 0.0, "probability"
    if isinstance(model, AdaBoostClassifier):
        # AdaBoost's probability is the normalised weighted *hard* vote, so
        # each weak learner's node outputs are its 0/1 vote for the class;
        # the weighted sum of those trees then equals ``predict_proba``
        # exactly.
        total_alpha = float(sum(model.estimator_weights_)) or 1.0
        for tree, alpha in zip(model.estimators_, model.estimator_weights_):
            flat = tree.tree_.flat
            column = _class_column(tree, positive_class)
            hardened = (np.argmax(flat.value, axis=1) == column).astype(float)
            trees.append(_WeightedTree(flat, alpha / total_alpha, hardened))
        return trees, 0.0, "probability"
    if isinstance(model, GradientBoostingClassifier):
        for tree in model.estimators_:
            flat = tree.tree_.flat
            trees.append(_WeightedTree(flat, model.learning_rate,
                                       flat.value[:, 0]))
        return trees, model.initial_score_, "logit"
    raise TypeError(f"unsupported model type {type(model).__name__} for Tree SHAP")


def _class_column(tree: DecisionTreeClassifier, positive_class: int) -> int:
    classes = list(tree.classes_)
    if positive_class in classes:
        return classes.index(positive_class)
    return len(classes) - 1


class TreeShapExplainer:
    """Shapley-value explainer for the tree models of :mod:`repro.ml`.

    The explained quantity is the model's positive-class score in its
    natural output space: probabilities for AdaBoost / Random Forest /
    single trees, raw log-odds for gradient boosting (where probabilities
    are not additive across trees).

    Args:
        model: A fitted tree-based model.
        feature_names: Column names for the explanations.
        max_exact_features: Per-tree limit on exact coalition enumeration.
        n_permutations: Sampling budget for trees exceeding the exact limit.
        positive_class: Label treated as the positive class.
        seed: RNG seed for the sampling fallback.
    """

    def __init__(self, model: object,
                 feature_names: Optional[Sequence[str]] = None,
                 max_exact_features: int = 12,
                 n_permutations: int = 128,
                 positive_class: int = 1,
                 seed: int = 0) -> None:
        if max_exact_features < 0:
            raise ValueError("max_exact_features must be >= 0")
        if n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")
        self.model = model
        self.max_exact_features = max_exact_features
        self.n_permutations = n_permutations
        self.seed = seed
        self._trees, self._offset, self.link = _extract_trees(model, positive_class)
        if not self._trees:
            raise ValueError("model has no fitted trees to explain")
        self._n_features = self._infer_n_features()
        if feature_names is None:
            feature_names = [f"f{i}" for i in range(self._n_features)]
        if len(feature_names) != self._n_features:
            raise ValueError("feature_names length does not match the model")
        self.feature_names = tuple(feature_names)
        self._base_value = self._compute_base_value()

    # ------------------------------------------------------------------
    @property
    def base_value(self) -> float:
        """Expected model output (cover-weighted root expectation)."""
        return self._base_value

    def _infer_n_features(self) -> int:
        model = self.model
        for attribute in ("n_features_",):
            if hasattr(model, attribute) and getattr(model, attribute):
                return int(getattr(model, attribute))
        if hasattr(model, "estimators_") and model.estimators_:
            return int(model.estimators_[0].n_features_)
        raise ValueError("cannot determine the model's feature count")

    def _compute_base_value(self) -> float:
        # ``total = offset; total += ...`` per tree: summing the trees
        # first and adding the offset last rounds differently.
        total = self._offset
        empty = frozenset()
        dummy = np.zeros((1, self._n_features))
        for tree in self._trees:
            total += tree.weight * tree.expectation_batch(dummy, empty)[0]
        return float(total)

    # ------------------------------------------------------------------
    def explain(self, sample: np.ndarray) -> Explanation:
        """Compute Shapley values for one sample (one row of
        :meth:`explain_matrix`)."""
        sample = np.asarray(sample, dtype=float).ravel()
        if sample.shape[0] != self._n_features:
            raise ValueError("sample length does not match the model")
        return self.explain_matrix(sample[None])[0]

    def explain_matrix(self, samples: np.ndarray) -> List[Explanation]:
        """Explain every row of ``samples`` in one batched pass.

        Coalition expectations are evaluated once per (tree, coalition)
        for the whole matrix via :meth:`_WeightedTree.expectation_batch`
        instead of once per row, which collapses the dominant cost of
        explaining a gate-feature matrix.  Every row is bit-identical to
        the tests' per-sample engine, ``explain_per_sample`` (oracle pair
        ``tree-shap-explain``, polaris-lint PL002).
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples.reshape(1, -1)
        if samples.shape[1] != self._n_features:
            raise ValueError("sample length does not match the model")
        phi = np.zeros((samples.shape[0], self._n_features))
        for tree in self._trees:
            phi += tree.weight * self._tree_shapley_batch(tree, samples)
        predictions = self._predict_output_batch(samples)
        return [
            Explanation(
                base_value=self._base_value,
                shap_values=phi[index],
                data=samples[index],
                feature_names=self.feature_names,
                prediction=float(predictions[index]),
            )
            for index in range(samples.shape[0])
        ]

    def _predict_output_batch(self, samples: np.ndarray) -> np.ndarray:
        """Model output in the explainer's output space, per row."""
        if self.link == "logit":
            return np.asarray(self.model.decision_function(samples), dtype=float)
        if self.link == "identity":
            return np.asarray(self.model.predict(samples), dtype=float)
        total = np.full(samples.shape[0], self._offset)
        known = frozenset(range(self._n_features))
        for tree in self._trees:
            total += tree.weight * tree.expectation_batch(samples, known)
        return total

    # ------------------------------------------------------------------
    def _tree_shapley_batch(self, tree: _WeightedTree,
                            samples: np.ndarray) -> np.ndarray:
        """One tree's Shapley values, an ``(n_samples, n_features)``
        matrix: exact when the tree splits on at most
        ``max_exact_features`` features, sampled otherwise."""
        used = tree.used_features()
        phi = np.zeros((samples.shape[0], self._n_features))
        if not used:
            return phi
        if len(used) <= self.max_exact_features:
            contributions = self._exact_shapley_batch(tree, samples, used)
        else:
            contributions = self._sampled_shapley_batch(tree, samples, used)
        for feature, values in contributions.items():
            phi[:, feature] = values
        return phi

    def _exact_shapley_batch(self, tree: _WeightedTree, samples: np.ndarray,
                             used: Tuple[int, ...]) -> Dict[int, np.ndarray]:
        """Exact Shapley values by coalition enumeration.

        Each coalition's expectation is cached, keyed by frozenset, as an
        ``(n_samples,)`` vector; the per-sample oracle runs the same
        subset order and factorial weights on one row's scalars.
        """
        n_used = len(used)
        cache: Dict[frozenset, np.ndarray] = {}

        def value(subset: frozenset) -> np.ndarray:
            if subset not in cache:
                cache[subset] = tree.expectation_batch(samples, subset)
            return cache[subset]

        contributions = {feature: np.zeros(samples.shape[0]) for feature in used}
        others: Dict[int, Tuple[int, ...]] = {
            feature: tuple(f for f in used if f != feature) for feature in used
        }
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

    def _sampled_shapley_batch(self, tree: _WeightedTree, samples: np.ndarray,
                               used: Tuple[int, ...]) -> Dict[int, np.ndarray]:
        """Permutation-sampling estimate of the Shapley values.

        A fresh ``default_rng(self.seed)`` per tree draws the permutations,
        so every row sees the same sequence and a row's estimate does not
        depend on the other rows of ``samples``.
        """
        rng = np.random.default_rng(self.seed)
        contributions = {feature: np.zeros(samples.shape[0]) for feature in used}
        used_array = np.array(used)
        for _ in range(self.n_permutations):
            order = rng.permutation(used_array)
            current: frozenset = frozenset()
            previous_value = tree.expectation_batch(samples, current)
            for feature in order:
                current = current | {int(feature)}
                new_value = tree.expectation_batch(samples, current)
                contributions[int(feature)] += new_value - previous_value
                previous_value = new_value
        for feature in used:
            contributions[feature] /= self.n_permutations
        return contributions
