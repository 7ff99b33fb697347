"""Tree SHAP: Shapley values for the tree ensembles of :mod:`repro.ml`.

The paper highlights SHAP's model-specific Tree SHAP variant as one reason
for choosing SHAP over LIME/Captum.  This implementation computes exact
Shapley values under the *path-dependent* value function used by Tree
SHAP: the value of a feature coalition ``S`` is the expectation of the
model output when features in ``S`` follow the explained sample and all
other split decisions are marginalised according to the training cover of
each branch.

Under that value function each leaf ``l`` of each tree adds
``v_l · Π_j (o_lj if j ∈ S else z_lj)`` to the value of ``S``, with ``j``
running over the distinct features split on along the leaf's path:

* ``z_lj`` is the product of the feature's cover fractions along the path
  (0.5/0.5 where the children's cover sums to 0);
* ``o_lj ∈ {0, 1}`` says whether the sample satisfies every split on
  ``j`` along the path (``x <= threshold`` goes left, anything else,
  NaN included, goes right).

For a path of ``D`` features, the Shapley value of feature ``i`` at leaf
``l`` is therefore ``v_l (o_li − z_li) Σ_s s!(D−1−s)!/D! · e_s``, where
``e_s`` sums ``Π_S o · Π_rest z`` over the size-``s`` subsets ``S`` of the
other path features (Lundberg, Erion & Lee, arXiv:1802.03888).  The
Shapley weight is the Beta integral ``∫_0^1 t^s (1−t)^(D−1−s) dt``, so the
sum equals ``∫_0^1 Π_{j≠i} ((1−t) z_lj + t o_lj) dt``: a polynomial of
degree below ``D`` in ``t``, which ``⌈D/2⌉``-point Gauss–Legendre
quadrature integrates exactly (the identity behind Linear TreeShap, Yu et
al., NeurIPS 2022).  Shapley values of an ensemble are the sum over its
leaves (linearity), and the base value and prediction come from the same
leaf table: ``Σ v·Πz`` and ``Σ v·Πo``.

There is one engine, :class:`_LeafTable`, for every tree family: all
leaves of the ensemble share one ``(rows, leaves, path slots)`` array,
shorter paths padded with null slots (``o = z = 1``, which leave every
other value unchanged).  :meth:`TreeShapExplainer.explain` is the one-row
case of :meth:`TreeShapExplainer.explain_matrix`.  The coalition
enumeration it replaced is the tests' oracle
(``tests/oracles/tree_shap.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..ml.adaboost import AdaBoostClassifier
from ..ml.forest import RandomForestClassifier
from ..ml.gradient_boosting import GradientBoostingClassifier
from ..ml.tree import (LEAF, DecisionTreeClassifier, DecisionTreeRegressor,
                       FlatTree)
from .explain import Explanation

#: Entries of one ``(rows, leaves, path slots)`` float64 block array
#: (1 MiB).  Rows are explained in blocks of as many rows as fit, at least
#: one, so memory stays bounded however many rows are asked for.
_BLOCK_ENTRIES = 1 << 17


class _WeightedTree(NamedTuple):
    """A single tree's :class:`FlatTree`, its weight in the ensemble and
    its per-node output in the explainer's output convention."""

    flat: FlatTree
    weight: float
    output: np.ndarray


#: One feature of a leaf's path: the smallest threshold of its left turns
#: and the largest of its right turns (None without such a turn), and the
#: product of its cover fractions.
_PathFeature = Tuple[Optional[float], Optional[float], float]


def _leaf_paths(tree: _WeightedTree
                ) -> Iterator[Tuple[float, Dict[int, _PathFeature]]]:
    """``(weighted leaf output, {feature: path record})`` per leaf."""
    flat = tree.flat
    features, thresholds = flat.feature.tolist(), flat.threshold.tolist()
    lefts, rights = flat.left.tolist(), flat.right.tolist()
    cover, output = flat.cover.tolist(), tree.output.tolist()
    # A subtree whose leaves all output the same value is that value for
    # every coalition: it is explained as one leaf, so its splits give
    # exact zeros rather than round-off.  Children follow their parents.
    constant: List[Optional[float]] = [None] * flat.n_nodes
    for node in range(flat.n_nodes - 1, -1, -1):
        if features[node] == LEAF:
            constant[node] = output[node]
        elif constant[lefts[node]] == constant[rights[node]]:
            constant[node] = constant[lefts[node]]
    stack: List[Tuple[int, Dict[int, _PathFeature]]] = [(0, {})]
    while stack:
        node, path = stack.pop()
        feature = features[node]
        if constant[node] is not None:
            yield tree.weight * constant[node], path
            continue
        left, right = lefts[node], rights[node]
        total = cover[left] + cover[right]
        if total <= 0:
            left_share = right_share = 0.5
        else:
            left_share, right_share = cover[left] / total, cover[right] / total
        upper, lower, share = path.get(feature, (None, None, 1.0))
        threshold = thresholds[node]
        stack.append((left, {**path, feature: (
            threshold if upper is None else min(upper, threshold),
            lower, share * left_share)}))
        stack.append((right, {**path, feature: (
            upper, threshold if lower is None else max(lower, threshold),
            share * right_share)}))


class _LeafTable:
    """Every leaf of an ensemble as one row of padded path arrays.

    Row ``l`` holds the leaf's weighted output ``value[l]`` and, per path
    slot, the feature, its bounds and its cover product ``z``.  An open
    bound is NaN, which ``~(x <= lower)`` passes; an open upper bound is
    also flagged in ``open_upper``, since ``x <= NaN`` is False.  Padding
    slots have open bounds, ``z = 1`` and the sink feature
    ``n_features``, whose column is dropped.
    """

    def __init__(self, trees: Sequence[_WeightedTree],
                 n_features: int) -> None:
        leaves = [leaf for tree in trees for leaf in _leaf_paths(tree)]
        depth = max(len(path) for _, path in leaves)
        shape = (len(leaves), depth)
        self.n_features = n_features
        self.value = np.array([value for value, _ in leaves])
        self.feature = np.full(shape, n_features)
        self.upper = np.full(shape, np.nan)
        self.lower = np.full(shape, np.nan)
        self.cover = np.ones(shape)
        for index, (_, path) in enumerate(leaves):
            for slot, (feature, (upper, lower, share)) in enumerate(
                    path.items()):
                self.feature[index, slot] = feature
                self.upper[index, slot] = np.nan if upper is None else upper
                self.lower[index, slot] = np.nan if lower is None else lower
                self.cover[index, slot] = share
        self.open_upper = np.isnan(self.upper)
        # Gauss–Legendre points and weights moved from [-1, 1] to [0, 1].
        points, weights = np.polynomial.legendre.leggauss(max(1, -(-depth // 2)))
        self.quadrature = list(zip(((points + 1.0) / 2.0).tolist(),
                                   (weights / 2.0).tolist()))
        self.rows_per_block = max(1, _BLOCK_ENTRIES // max(1, shape[0] * depth))

    def base_value(self) -> float:
        """``Σ_l v_l Π_j z_lj``: the output with no feature known."""
        return float(np.sum(self.value * self.cover.prod(axis=1)))

    def shap_block(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Shapley values ``(n_rows, n_features)`` and ``Σ_l v_l Π_j o_lj``
        ``(n_rows,)`` of a block of rows.

        Every step is elementwise per row or reduces one row's own slots
        or leaves, so a row's values do not depend on the other rows.
        """
        # Padding slots gather the last column (clipped); their open
        # bounds make o = 1 whatever it holds.
        values = rows.take(self.feature, axis=1, mode="clip")
        inside = (((values <= self.upper) | self.open_upper)
                  & ~(values <= self.lower))
        prediction = np.where(inside.all(axis=2), self.value, 0.0).sum(axis=1)
        step = inside - self.cover  # o - z
        integral = np.zeros_like(step)
        for point, weight in self.quadrature:
            factors = self.cover + point * step  # (1 - t) z + t o
            # Π_{j≠i} as the product over all slots divided by slot i's
            # factor.  Factors are >= 0, and 0 only where o = z = 0, whose
            # (o - z) zeroes the contribution anyway.
            others = (factors.prod(axis=2, keepdims=True)
                      / np.where(factors > 0.0, factors, 1.0))
            integral += weight * others
        phi = np.zeros((rows.shape[0], self.n_features + 1))
        np.add.at(phi, (np.arange(rows.shape[0])[:, None, None], self.feature),
                  self.value[:, None] * step * integral)
        return phi[:, :-1], prediction


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
    """Exact Shapley-value explainer for the tree models of
    :mod:`repro.ml`.

    The explained quantity is the model's positive-class score in its
    natural output space: probabilities for AdaBoost / Random Forest /
    single trees, raw log-odds for gradient boosting (where probabilities
    are not additive across trees).

    Args:
        model: A fitted tree-based model.
        feature_names: Column names for the explanations.
        positive_class: Label treated as the positive class.
    """

    def __init__(self, model: object,
                 feature_names: Optional[Sequence[str]] = None,
                 positive_class: int = 1) -> None:
        self.model = model
        self._trees, self._offset, self.link = _extract_trees(model, positive_class)
        if not self._trees:
            raise ValueError("model has no fitted trees to explain")
        self._n_features = self._infer_n_features()
        if feature_names is None:
            feature_names = [f"f{i}" for i in range(self._n_features)]
        if len(feature_names) != self._n_features:
            raise ValueError("feature_names length does not match the model")
        self.feature_names = tuple(feature_names)
        self._leaves = _LeafTable(self._trees, self._n_features)
        self._base_value = self._offset + self._leaves.base_value()

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

    # ------------------------------------------------------------------
    def explain(self, sample: np.ndarray) -> Explanation:
        """Compute Shapley values for one sample (one row of
        :meth:`explain_matrix`)."""
        sample = np.asarray(sample, dtype=float).ravel()
        if sample.shape[0] != self._n_features:
            raise ValueError("sample length does not match the model")
        return self.explain_matrix(sample[None])[0]

    def explain_matrix(self, samples: np.ndarray) -> List[Explanation]:
        """Explain every row of ``samples``, one block of rows at a time
        (:meth:`_LeafTable.shap_block`).

        A row's values are bitwise independent of the other rows; they
        agree with the tests' coalition enumeration,
        ``explain_per_sample``, to round-off (oracle pair
        ``tree-shap-explain``, polaris-lint PL002).
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples.reshape(1, -1)
        if samples.shape[1] != self._n_features:
            raise ValueError("sample length does not match the model")
        phi = np.empty(samples.shape)
        predictions = np.empty(samples.shape[0])
        step = self._leaves.rows_per_block
        for start in range(0, samples.shape[0], step):
            block = slice(start, start + step)
            phi[block], predictions[block] = self._leaves.shap_block(
                samples[block])
        predictions += self._offset
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
