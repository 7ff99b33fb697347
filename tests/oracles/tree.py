"""Per-feature split search and per-sample node walks of the CART trees.

* :func:`best_split_loop` argsorts and scans one feature at a time: the
  oracle of the presorted all-features search
  ``repro.ml.tree._TreeBuilder._best_split`` (PL002 pair ``tree-split``).
  Tests patch it in as ``_TreeBuilder._best_split``, and the fitted trees
  must match bit for bit.
* :func:`predict_value` walks a fitted tree's node arrays one row at a
  time: the oracle of ``_FittedTree.predict_batch`` (PL002 pair
  ``tree-predict``).  :func:`decision_path` lists the nodes one row
  visits: the oracle of ``_FittedTree.leaf_indices``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.base import check_features
from repro.ml.tree import (
    LEAF,
    FlatTree,
    _FittedTree,
    _gini_scores,
    _midpoint,
    _mse_scores,
    _NodeEntry,
    _SplitCandidate,
    _TreeBuilder,
)


def best_split_loop(builder: _TreeBuilder,
                    node: _NodeEntry) -> Optional[_SplitCandidate]:
    """Reference split search: argsort and scan one feature at a time.

    The oracle of :meth:`_TreeBuilder._best_split` (same signature, so
    tests patch it in as that method; only ``node.rows`` is read).  Each
    feature's column is re-sorted for the node and scanned on its own; a
    later feature wins only with a strictly lower score.
    """
    rows = node.rows
    feature_indices = builder._feature_subset(builder._columns.shape[0])
    targets = builder._targets[rows]
    weights = builder._weights[rows]
    n_samples = rows.size
    best: Optional[_SplitCandidate] = None
    for feature in feature_indices:
        column = builder._columns[feature, rows]
        column_order = np.argsort(column, kind="mergesort")
        sorted_values = column[column_order]
        sorted_weights = weights[column_order]
        sorted_targets = targets[column_order]
        # Candidate split positions: between distinct consecutive values.
        positions = np.nonzero(np.diff(sorted_values) > 1e-12)[0]
        if positions.size == 0:
            continue
        leaf_ok = ((positions + 1 >= builder.min_samples_leaf)
                   & (n_samples - positions - 1 >= builder.min_samples_leaf))
        total_weight = sorted_weights.sum()
        if builder.criterion == "gini":
            one_hot = np.zeros((n_samples, builder._n_classes))
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


class NodeLists:
    """A :class:`~repro.ml.tree.FlatTree`'s structure as Python lists,
    made once, so a walk reads list items rather than numpy scalars."""

    def __init__(self, flat: FlatTree) -> None:
        self.feature = flat.feature.tolist()
        self.threshold = flat.threshold.tolist()
        self.left = flat.left.tolist()
        self.right = flat.right.tolist()


def decision_path(tree: _FittedTree, sample: np.ndarray) -> List[int]:
    """Indices of the nodes ``sample`` visits, root to leaf.

    Per-sample oracle for :meth:`_FittedTree.leaf_indices`: its last
    element is the leaf the batch descent returns for the same row.
    """
    nodes = NodeLists(tree.flat)
    sample = np.asarray(sample, dtype=float).ravel()
    path = [0]
    while nodes.feature[path[-1]] != LEAF:
        index = path[-1]
        if sample[nodes.feature[index]] <= nodes.threshold[index]:
            path.append(nodes.left[index])
        else:
            path.append(nodes.right[index])
    return path


def predict_value(tree: _FittedTree, features: np.ndarray) -> np.ndarray:
    """Per-sample oracle: walk the node arrays one row at a time.

    Bit-identical to :meth:`_FittedTree.predict_batch`, which replaces it
    on the hot path (oracle pair ``tree-predict``, polaris-lint PL002).
    """
    features = check_features(features)
    nodes = NodeLists(tree.flat)
    outputs = np.zeros((features.shape[0], tree.flat.value.shape[1]))
    for row in range(features.shape[0]):
        index = 0
        while nodes.feature[index] != LEAF:
            if features[row, nodes.feature[index]] <= nodes.threshold[index]:
                index = nodes.left[index]
            else:
                index = nodes.right[index]
        outputs[row] = tree.flat.value[index]
    return outputs
