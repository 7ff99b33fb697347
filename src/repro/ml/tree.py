"""CART decision trees (classification and regression).

The trees are grown with the classic CART procedure: at every node the best
axis-aligned split is chosen by exhaustive search over features and
thresholds, scoring candidate splits with the weighted Gini impurity
(classification) or weighted variance (regression).

Fitting sorts once: :class:`_TreeBuilder` stable-argsorts every column at
the start of ``build`` and hands each child a stable partition of its
parent's sorted order.  Its split search, :meth:`_TreeBuilder._best_split`,
scores all features of a node in a few whole-matrix passes.  The
per-feature argsort-and-scan search it replaced is kept as
:meth:`_TreeBuilder._best_split_loop`, with the same signature so tests can
swap it in; the fitted trees are bitwise identical either way.

A fitted tree carries two synchronised representations:

* a ``List[TreeNode]`` of dataclasses — the builder's output and the
  structure the *per-sample oracles* (:meth:`_FittedTree.predict_value`,
  :meth:`_FittedTree.decision_path`) walk one row at a time, and
* a :class:`FlatTree` — parallel ``feature``/``threshold``/``left``/
  ``right``/``value``/``cover`` numpy node arrays built once at the end of
  ``fit``, which the vectorised batch paths (:meth:`_FittedTree.predict_batch`,
  :meth:`_FittedTree.leaf_indices`) descend frontier-by-frontier over the
  whole ``(n_samples, n_features)`` matrix, and which the Tree SHAP
  explainer (:mod:`repro.xai.tree_shap`) traverses.

The batch paths are bit-identical to the per-sample oracles (same float64
comparisons, same leaf values).  Both pairings (``tree-split`` and
``tree-predict``) are pinned by ``tests/test_ml_vectorised.py`` and
enforced by polaris-lint PL002.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .base import (
    BaseClassifier,
    NotFittedError,
    check_features,
    check_labels,
    check_sample_weight,
)

#: Sentinel feature index marking a leaf node.
LEAF = -1


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Attributes:
        feature: Split feature index, or :data:`LEAF` for leaves.
        threshold: Split threshold (samples with ``x <= threshold`` go left).
        left: Index of the left child (or -1).
        right: Index of the right child (or -1).
        value: Node prediction — class-probability vector for classifiers,
            single-element array with the mean target for regressors.
        cover: Total sample weight that reached the node.
        impurity: Node impurity (Gini or variance).
        depth: Node depth (root = 0).
    """

    feature: int
    threshold: float
    left: int
    right: int
    value: np.ndarray
    cover: float
    impurity: float
    depth: int

    @property
    def is_leaf(self) -> bool:
        """Whether the node is a leaf."""
        return self.feature == LEAF


@dataclass
class _SplitCandidate:
    feature: int
    threshold: float
    score: float


def _midpoint(lower: float, upper: float) -> float:
    """Split threshold between two adjacent distinct sorted values.

    ``0.5 * (lower + upper)`` can round onto ``upper`` (or overflow) when
    the two values are adjacent floats; the split would then send every
    sample left and the node would be split again forever.  Falling back
    to ``lower`` keeps ``x <= threshold`` separating the two values.
    """
    threshold = 0.5 * (lower + upper)
    return float(lower if threshold >= upper else threshold)


def _gini_scores(left_counts: np.ndarray, total_counts: np.ndarray,
                 total_weight) -> np.ndarray:
    """Weighted child Gini of candidate splits (``inf`` where a child is
    weightless).

    ``left_counts`` is ``(n_candidates, n_classes)`` cumulative class
    weight left of each split; ``total_counts`` the node's class totals,
    broadcastable to it.
    """
    right_counts = total_counts - left_counts
    left_weight = left_counts.sum(axis=1)
    right_weight = right_counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - np.sum(
            (left_counts / np.maximum(left_weight[:, None], 1e-300)) ** 2,
            axis=1)
        gini_right = 1.0 - np.sum(
            (right_counts / np.maximum(right_weight[:, None], 1e-300)) ** 2,
            axis=1)
    score = (left_weight * gini_left + right_weight * gini_right) / total_weight
    return np.where((left_weight > 0) & (right_weight > 0), score, np.inf)


def _mse_scores(cum_weight: np.ndarray, cum_target: np.ndarray,
                cum_square: np.ndarray, total_weight, total_target,
                total_square) -> np.ndarray:
    """Weighted child variance of candidate splits (``inf`` where a child
    is weightless), from cumulative weight / weighted-target / weighted-
    square sums left of each split and the node totals."""
    right_weight = total_weight - cum_weight
    with np.errstate(divide="ignore", invalid="ignore"):
        var_left = cum_square - cum_target ** 2 / np.maximum(cum_weight, 1e-300)
        var_right = ((total_square - cum_square)
                     - (total_target - cum_target) ** 2
                     / np.maximum(right_weight, 1e-300))
    score = (var_left + var_right) / total_weight
    return np.where((cum_weight > 0) & (right_weight > 0), score, np.inf)


class _TreeBuilder:
    """Shared CART growing logic for classification and regression.

    ``build`` transposes the feature matrix to ``(n_features, n_samples)``
    and stable-argsorts every column once.  Each node owns a column range
    of two buffers: ``_rows`` (its rows, ascending) and ``_order`` (per
    feature, its rows in sorted order).  A split stably partitions the
    range into left then right; a stable partition of a stable sort equals
    a stable sort of the subset, so every node sees the same sorted columns
    (ties included) that a per-node argsort would give.
    """

    def __init__(self, criterion: str, max_depth: Optional[int],
                 min_samples_split: int, min_samples_leaf: int,
                 max_features: Optional[int],
                 rng: Optional[np.random.Generator]) -> None:
        if criterion not in ("gini", "mse"):
            raise ValueError("criterion must be 'gini' or 'mse'")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.nodes: List[TreeNode] = []
        self._columns = np.zeros((0, 0))
        self._targets = np.zeros(0)
        self._weights = np.zeros(0)
        self._n_classes = 0
        self._tiled_targets = np.zeros(0)
        self._tiled_weights = np.zeros(0)
        self._rows = np.zeros(0, dtype=np.intp)
        self._order = np.zeros((0, 0), dtype=np.intp)

    # -- impurity ------------------------------------------------------
    def _node_value(self, targets: np.ndarray, weights: np.ndarray,
                    n_classes: int) -> np.ndarray:
        if self.criterion == "gini":
            value = np.zeros(n_classes)
            for k in range(n_classes):
                value[k] = weights[targets == k].sum()
            total = value.sum()
            return value / total if total > 0 else np.full(n_classes, 1.0 / n_classes)
        total = weights.sum()
        mean = float(np.average(targets, weights=weights)) if total > 0 else 0.0
        return np.array([mean])

    def _impurity(self, targets: np.ndarray, weights: np.ndarray,
                  n_classes: int) -> float:
        total = weights.sum()
        if total <= 0:
            return 0.0
        if self.criterion == "gini":
            probabilities = np.array(
                [weights[targets == k].sum() for k in range(n_classes)]) / total
            return float(1.0 - np.sum(probabilities ** 2))
        mean = np.average(targets, weights=weights)
        return float(np.average((targets - mean) ** 2, weights=weights))

    # -- split search --------------------------------------------------
    def _feature_subset(self, n_features: int) -> np.ndarray:
        """Features scanned at a node, in scan order (a random forest draws
        a ``max_features`` subset here, once per searched node)."""
        if self.max_features is not None and self.max_features < n_features:
            return self.rng.choice(n_features, size=self.max_features,
                                   replace=False)
        return np.arange(n_features)

    def _best_split(self, rows: np.ndarray,
                    order: np.ndarray) -> Optional[_SplitCandidate]:
        """All-features split search over the node's presorted columns.

        Scores every feature in a few whole-matrix passes and evaluates
        impurity only at the candidate ``(feature, position)`` pairs (a
        distinct-value boundary whose children satisfy
        ``min_samples_leaf``).  Bit-identical to :meth:`_best_split_loop`
        (oracle pair ``tree-split``, polaris-lint PL002): the running sums
        are the same sequential ``cumsum`` over each full sorted column, the
        per-feature totals reduce along the contiguous axis as the 1-D scan
        does, and a row-major ``argmin`` over the candidates picks the
        loop's winner (first feature in scan order, then first position).
        """
        feature_indices = self._feature_subset(order.shape[0])
        if feature_indices.size < order.shape[0]:
            order = order[feature_indices]
        n_samples = rows.size
        sorted_values = self._columns.take(order)
        positions = np.arange(n_samples - 1)
        # Split at position p sends samples [0, p] left and (p, n) right.
        leaf_ok = ((positions + 1 >= self.min_samples_leaf)
                   & (n_samples - positions - 1 >= self.min_samples_leaf))
        features, splits = np.divmod(np.flatnonzero(
            (np.diff(sorted_values, axis=1) > 1e-12) & leaf_ok), n_samples - 1)
        if features.size == 0:
            return None
        sorted_weights = self._tiled_weights.take(order)
        sorted_targets = self._tiled_targets.take(order)
        total_weight = sorted_weights.sum(axis=1)[features]
        if self.criterion == "gini":
            left_counts = np.empty((features.size, self._n_classes))
            total_counts = np.empty_like(left_counts)
            weight_bits = sorted_weights.view(np.int64)
            for k in range(self._n_classes):
                # np.where(sorted_targets == k, sorted_weights, 0.0) bit for
                # bit (an all-ones or all-zeros mask), at a third of its cost.
                class_weights = (weight_bits & -(sorted_targets == k).astype(
                    np.int64)).view(np.float64)
                cumulative = np.cumsum(class_weights, axis=1)
                left_counts[:, k] = cumulative[features, splits]
                total_counts[:, k] = cumulative[:, -1][features]
            score = _gini_scores(left_counts, total_counts, total_weight)
        else:
            weighted = sorted_weights * sorted_targets
            squared = sorted_weights * sorted_targets ** 2
            score = _mse_scores(
                np.cumsum(sorted_weights, axis=1)[features, splits],
                np.cumsum(weighted, axis=1)[features, splits],
                np.cumsum(squared, axis=1)[features, splits],
                total_weight, weighted.sum(axis=1)[features],
                squared.sum(axis=1)[features])
        # A NaN score needs the node's weighted square total to overflow,
        # which leaves no finite score in any feature, so both searches
        # return None there.
        best = int(np.argmin(score))
        if not np.isfinite(score[best]):
            return None
        row, position = features[best], splits[best]
        return _SplitCandidate(
            int(feature_indices[row]),
            _midpoint(sorted_values[row, position],
                      sorted_values[row, position + 1]),
            float(score[best]))

    def _best_split_loop(self, rows: np.ndarray,
                         order: np.ndarray) -> Optional[_SplitCandidate]:
        """Reference split search: argsort and scan one feature at a time.

        The oracle of :meth:`_best_split` (same signature so tests can swap
        it in; ``order`` is ignored).  Each feature's column is re-sorted
        for the node and scanned on its own; a later feature wins only with
        a strictly lower score.
        """
        feature_indices = self._feature_subset(self._columns.shape[0])
        targets = self._targets[rows]
        weights = self._weights[rows]
        n_samples = rows.size
        best: Optional[_SplitCandidate] = None
        for feature in feature_indices:
            column = self._columns[feature, rows]
            column_order = np.argsort(column, kind="mergesort")
            sorted_values = column[column_order]
            sorted_weights = weights[column_order]
            sorted_targets = targets[column_order]
            # Candidate split positions: between distinct consecutive values.
            positions = np.nonzero(np.diff(sorted_values) > 1e-12)[0]
            if positions.size == 0:
                continue
            leaf_ok = ((positions + 1 >= self.min_samples_leaf)
                       & (n_samples - positions - 1 >= self.min_samples_leaf))
            total_weight = sorted_weights.sum()
            if self.criterion == "gini":
                one_hot = np.zeros((n_samples, self._n_classes))
                one_hot[np.arange(n_samples), sorted_targets] = sorted_weights
                score = _gini_scores(np.cumsum(one_hot, axis=0)[positions],
                                     one_hot.sum(axis=0), total_weight)
            else:
                weighted = sorted_weights * sorted_targets
                squared = sorted_weights * sorted_targets ** 2
                score = _mse_scores(
                    np.cumsum(sorted_weights)[positions],
                    np.cumsum(weighted)[positions],
                    np.cumsum(squared)[positions], total_weight,
                    float(np.sum(weighted)), float(np.sum(squared)))
            score = np.where(leaf_ok, score, np.inf)
            index = int(np.argmin(score))
            if not np.isfinite(score[index]):
                continue
            if best is None or score[index] < best.score:
                position = positions[index]
                best = _SplitCandidate(
                    int(feature),
                    _midpoint(sorted_values[position],
                              sorted_values[position + 1]),
                    float(score[index]))
        return best

    # -- recursion ------------------------------------------------------
    def build(self, features: np.ndarray, targets: np.ndarray,
              weights: np.ndarray, n_classes: int) -> List[TreeNode]:
        n_samples, n_features = features.shape
        self.nodes = []
        self._columns = np.ascontiguousarray(features.T)
        self._targets = targets
        self._weights = weights
        self._n_classes = n_classes
        # ``_order`` holds flat indices f * n_samples + row, which address
        # (feature, row) in ``_columns`` and in the per-feature tiled
        # targets/weights, so every per-node gather is a single ``take``.
        self._tiled_targets = np.tile(targets, n_features)
        self._tiled_weights = np.tile(weights, n_features)
        self._rows = np.arange(n_samples)
        self._order = (np.argsort(self._columns, axis=1, kind="mergesort")
                       + (np.arange(n_features) * n_samples)[:, None])
        self._grow(0, n_samples, depth=0)
        return self.nodes

    def _grow(self, start: int, end: int, depth: int) -> int:
        rows = self._rows[start:end]
        targets = self._targets[rows]
        weights = self._weights[rows]
        node_index = len(self.nodes)
        value = self._node_value(targets, weights, self._n_classes)
        impurity = self._impurity(targets, weights, self._n_classes)
        node = TreeNode(feature=LEAF, threshold=0.0, left=-1, right=-1,
                        value=value, cover=float(weights.sum()),
                        impurity=impurity, depth=depth)
        self.nodes.append(node)

        stop = (
            rows.size < self.min_samples_split
            or impurity <= 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        )
        if stop:
            return node_index
        order = self._order[:, start:end]
        split = self._best_split(rows, order)
        if split is None or split.score >= impurity - 1e-12:
            return node_index

        # Stable partition of the node's range: left rows first, each side
        # keeping its order.  Both sides are copied out before the writes
        # because ``order.ravel()`` is a view when the range is contiguous.
        left_mask = self._columns[split.feature, rows] <= split.threshold
        n_features, n_left = order.shape[0], int(np.count_nonzero(left_mask))
        goes_left = np.zeros(self._rows.size, dtype=bool)
        goes_left[rows[left_mask]] = True
        keep = np.tile(goes_left, n_features).take(order).ravel()
        left_order = np.compress(keep, order.ravel())
        right_order = np.compress(~keep, order.ravel())
        rows[:] = np.concatenate([rows[left_mask], rows[~left_mask]])
        order[:, :n_left] = left_order.reshape(n_features, n_left)
        order[:, n_left:] = right_order.reshape(n_features, -1)
        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._grow(start, start + n_left, depth + 1)
        node.right = self._grow(start + n_left, end, depth + 1)
        return node_index


@dataclass
class FlatTree:
    """Structure-of-arrays form of a fitted tree (one entry per node).

    Attributes:
        feature: Split feature per node (:data:`LEAF` for leaves).
        threshold: Split threshold per node (``x <= threshold`` goes left).
        left: Left-child index per node (-1 for leaves).
        right: Right-child index per node (-1 for leaves).
        value: ``(n_nodes, n_outputs)`` node predictions.
        cover: Total sample weight that reached each node.
        step_feature: Like ``feature`` but 0 at leaves — safe to gather.
        step_threshold: Like ``threshold`` but ``+inf`` at leaves.
        step_left: Like ``left`` but leaves point back at themselves.
        step_right: Like ``right`` but leaves point back at themselves.
        max_depth: Depth of the deepest node (descent iteration count).

    The ``step_*`` views make leaves self-looping: a row already on its
    leaf compares ``x <= +inf``, goes "left" and stays put, so the batch
    descent can sweep all rows level-synchronously for ``max_depth``
    iterations with no per-level active-set bookkeeping.

    Children always have larger indices than their parent (the builder
    appends parents before recursing), so index order is a topological
    order — the vectorised Tree SHAP expectation relies on this.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray
    step_feature: np.ndarray
    step_threshold: np.ndarray
    step_left: np.ndarray
    step_right: np.ndarray
    max_depth: int

    @classmethod
    def from_nodes(cls, nodes: List[TreeNode]) -> "FlatTree":
        """Flatten a builder node list into parallel arrays."""
        feature = np.array([node.feature for node in nodes], dtype=np.intp)
        threshold = np.array([node.threshold for node in nodes], dtype=float)
        left = np.array([node.left for node in nodes], dtype=np.intp)
        right = np.array([node.right for node in nodes], dtype=np.intp)
        leaf = feature == LEAF
        self_index = np.arange(len(nodes), dtype=np.intp)
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=np.vstack([node.value for node in nodes]).astype(float),
            cover=np.array([node.cover for node in nodes], dtype=float),
            step_feature=np.where(leaf, 0, feature),
            step_threshold=np.where(leaf, np.inf, threshold),
            step_left=np.where(leaf, self_index, left),
            step_right=np.where(leaf, self_index, right),
            max_depth=max(node.depth for node in nodes),
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self.feature.shape[0]


class _FittedTree:
    """Prediction and introspection over a fitted tree.

    Holds both representations: the :class:`TreeNode` list walked by the
    per-sample oracles and the :class:`FlatTree` arrays descended by the
    vectorised batch paths.  :meth:`set_node_value` keeps the two in sync
    (gradient boosting rewrites leaf values with Newton steps after
    fitting).
    """

    def __init__(self, nodes: List[TreeNode], n_features: int) -> None:
        self.nodes = nodes
        self.n_features = n_features
        self.flat = FlatTree.from_nodes(nodes)

    def set_node_value(self, index: int, value: np.ndarray) -> None:
        """Replace one node's prediction in both representations."""
        value = np.asarray(value, dtype=float)
        self.nodes[index].value = value
        self.flat.value[index] = value

    def predict_value(self, features: np.ndarray) -> np.ndarray:
        """Per-sample oracle: walk the node list one row at a time.

        Bit-identical to :meth:`predict_batch`, which replaces it on the
        hot path (oracle pair ``tree-predict``, polaris-lint PL002).
        """
        features = check_features(features)
        outputs = np.zeros((features.shape[0], self.nodes[0].value.shape[0]))
        for row in range(features.shape[0]):
            node = self.nodes[0]
            while not node.is_leaf:
                if features[row, node.feature] <= node.threshold:
                    node = self.nodes[node.left]
                else:
                    node = self.nodes[node.right]
            outputs[row] = node.value
        return outputs

    def _descend(self, features: np.ndarray) -> np.ndarray:
        """Level-synchronous descent: leaf index reached by every row.

        Rows that reach a leaf early self-loop via the ``step_*`` arrays
        (see :class:`FlatTree`), so the sweep runs exactly ``max_depth``
        full-width iterations — for the shallow trees on the scoring hot
        path that beats filtering a shrinking active set every level.
        """
        flat = self.flat
        indices = np.zeros(features.shape[0], dtype=np.intp)
        rows = np.arange(features.shape[0])
        for _ in range(flat.max_depth):
            go_left = (features[rows, flat.step_feature[indices]]
                       <= flat.step_threshold[indices])
            indices = np.where(go_left, flat.step_left[indices],
                               flat.step_right[indices])
        return indices

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Leaf value per sample via iterative descent over the flat arrays.

        One ``(n_samples,)``-wide comparison per tree level instead of a
        Python loop per row; bit-identical to :meth:`predict_value`.
        """
        features = check_features(features)
        return self.flat.value[self._descend(features)]

    def leaf_indices(self, features: np.ndarray) -> np.ndarray:
        """Leaf node index reached by every row (batched
        ``decision_path(row)[-1]``)."""
        return self._descend(check_features(features))

    def decision_path(self, sample: np.ndarray) -> List[int]:
        """Indices of the nodes visited by ``sample`` (root to leaf).

        Per-sample oracle for :meth:`leaf_indices` (its last element is the
        leaf the batch descent returns for the same row).
        """
        sample = np.asarray(sample, dtype=float).ravel()
        path = [0]
        node = self.nodes[0]
        while not node.is_leaf:
            if sample[node.feature] <= node.threshold:
                next_index = node.left
            else:
                next_index = node.right
            path.append(next_index)
            node = self.nodes[next_index]
        return path

    def feature_importances(self) -> np.ndarray:
        """Impurity-decrease feature importances (normalised to sum to 1)."""
        importances = np.zeros(self.n_features)
        for node in self.nodes:
            if node.is_leaf:
                continue
            left = self.nodes[node.left]
            right = self.nodes[node.right]
            decrease = (node.cover * node.impurity
                        - left.cover * left.impurity
                        - right.cover * right.impurity)
            importances[node.feature] += max(0.0, decrease)
        total = importances.sum()
        return importances / total if total > 0 else importances

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the tree."""
        return len(self.nodes)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node."""
        return max(node.depth for node in self.nodes)


class DecisionTreeClassifier(BaseClassifier):
    """CART classification tree with Gini impurity.

    Args:
        max_depth: Maximum tree depth (``None`` = unlimited).
        min_samples_split: Minimum samples required to attempt a split.
        min_samples_leaf: Minimum samples required in each child.
        max_features: Features considered per split (``None`` = all); used
            by the random forest for decorrelation.
        random_state: Seed for the per-split feature subsampling.
    """

    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: Optional[int] = None,
                 random_state: int = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[_FittedTree] = None
        self.classes_: np.ndarray = np.array([])
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, labels: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeClassifier":
        features = check_features(features)
        labels = check_labels(labels, features.shape[0])
        weights = check_sample_weight(sample_weight, features.shape[0])
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = features.shape[1]
        builder = _TreeBuilder("gini", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        nodes = builder.build(features, encoded, weights, len(self.classes_))
        self.tree_ = _FittedTree(nodes, self.n_features_)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeClassifier is not fitted")
        return self.tree_.predict_batch(features)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-based feature importances."""
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeClassifier is not fitted")
        return self.tree_.feature_importances()


class DecisionTreeRegressor:
    """CART regression tree with variance (MSE) splitting."""

    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: Optional[int] = None,
                 random_state: int = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[_FittedTree] = None
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, targets: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeRegressor":
        features = check_features(features)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (features.shape[0],):
            raise ValueError("targets must match the number of feature rows")
        weights = check_sample_weight(sample_weight, features.shape[0])
        self.n_features_ = features.shape[1]
        builder = _TreeBuilder("mse", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        nodes = builder.build(features, targets, weights, n_classes=1)
        self.tree_ = _FittedTree(nodes, self.n_features_)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        return self.tree_.predict_batch(features)[:, 0]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-based feature importances."""
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        return self.tree_.feature_importances()
