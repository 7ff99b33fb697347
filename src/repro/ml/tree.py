"""CART decision trees (classification and regression).

The trees are grown with the classic CART procedure: at every node the best
axis-aligned split is chosen by exhaustive search over features and
thresholds, scoring candidate splits with the weighted Gini impurity
(classification) or weighted variance (regression).

Fitting sorts once per ensemble fit: :class:`_PresortedColumns` stable-
argsorts every column and memoises, per split path, each node's rows, its
sorted order (a stable filter of its parent's) and its candidate splits.
AdaBoost and gradient boosting share one across their rounds, which at a
low learning rate regrow nearly the same nodes; a single tree builds its
own.  Gradient boosting's sample weights are the same in every round, so
its presort holds them, and the memo also caches each node's weight state:
the node's row weights and their total, and the weight prefix sums and
weight totals at its candidates.  Only a tree fitted on exactly those
weights (:meth:`DecisionTreeRegressor._fit_fixed_weights`) reads that
cache; its trees are bitwise those of ``DecisionTreeRegressor.fit`` on
the same weights.  :class:`_TreeBuilder` grows a tree over it, and its
split search, :meth:`_TreeBuilder._best_split`, scores all features of a
node in a few whole-matrix passes.  The per-feature argsort-and-scan search
it replaced is the tests' ``best_split_loop`` (``tests/oracles/tree.py``),
with the same signature so tests can swap it in; the fitted trees are
bitwise identical either way.

The random forest does not use :class:`_TreeBuilder`: :func:`_fit_lockstep`
grows all its trees together (:class:`_LockstepForest`).  Each feature is
coded once by rank over its distinct values, and at step *s* every
unfinished tree searches its *s*-th searched node in depth-first order, so
each tree draws the feature subsets a recursive build would.  One
``bincount`` over ``(search, scanned feature, code, class)`` bins gives the
exact class counts at every candidate threshold of every node searched in
the step.  Forest trees weigh each drawn sample ``1 / n``, so every weight
sum is looked up by integer count in one of two tables: ``sequential``
(running ``cumsum`` sums: class weight left of a split and node class
totals) and ``pairwise`` (numpy ``sum`` sums: node weight, values and
cover).  The trees are bitwise those of ``DecisionTreeClassifier.fit`` on
each bootstrap, which stays the single-tree path; the tests'
``fit_forest_per_tree`` fits the forest that way as the lockstep
forest's oracle.

A fitted tree is one :class:`FlatTree`: parallel ``feature``/``threshold``/
``left``/``right``/``value``/``cover``/``impurity`` numpy node arrays,
flattened once from the builder's :class:`TreeNode` records at the end of
``fit``.  The vectorised batch paths (:meth:`_FittedTree.predict_batch`,
:meth:`_FittedTree.leaf_indices`) descend them frontier-by-frontier over
the whole ``(n_samples, n_features)`` matrix, and the Tree SHAP explainer
(:mod:`repro.xai.tree_shap`) flattens them into one table of leaf paths.
The tests' per-sample oracles (``predict_value`` and ``decision_path`` in
``tests/oracles/tree.py``) walk the same arrays one row at a time, and the
batch paths are bit-identical to them (same float64 comparisons, same leaf
values).  The four pairings (``tree-split``, ``forest-lockstep``,
``boosting-fixed-weights`` and ``tree-predict``) are pinned by
``tests/test_ml_vectorised.py`` and enforced by polaris-lint PL002.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .base import (
    BaseClassifier,
    NotFittedError,
    check_features,
    check_fit_rows,
    check_labels,
    check_sample_weight,
)

#: Sentinel feature index marking a leaf node.
LEAF = -1


@dataclass
class TreeNode:
    """One node as a builder grows it (:class:`_TreeBuilder`,
    :class:`_LockstepForest`); :meth:`FlatTree.from_nodes` flattens the
    finished list into the fitted tree.

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


@dataclass
class _SplitCandidate:
    feature: int
    threshold: float
    score: float


def _midpoint(lower: float, upper: float) -> float:
    """Split threshold between two adjacent distinct sorted values.

    ``0.5 * (lower + upper)`` can round onto ``upper`` (or overflow) when
    the two values are adjacent floats, and is NaN for ``-inf`` and
    ``inf``; the split would then send every sample to one side and the
    node would be split again forever.  Falling back to ``lower`` keeps
    ``x <= threshold`` separating the two values.  (Python floats: the
    NaN sum raises no numpy warning.)
    """
    threshold = 0.5 * (float(lower) + float(upper))
    return threshold if threshold < upper else float(lower)


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


def _feature_subset(rng: np.random.Generator, max_features: Optional[int],
                    n_features: int) -> np.ndarray:
    """Features scanned at a node, in scan order (a random forest draws a
    ``max_features`` subset here, once per searched node)."""
    if max_features is not None and max_features < n_features:
        return rng.choice(n_features, size=max_features, replace=False)
    return np.arange(n_features)


def _check_max_features(max_features: Optional[int]) -> None:
    if max_features is not None and max_features < 1:
        raise ValueError("max_features must be >= 1 (or None for all)")


#: A node's split path: one ``(feature, threshold, side)`` per split from
#: the root (``side`` 0 for ``x <= threshold``, 1 for the rest).
_SplitPath = Tuple[Tuple[int, float, int], ...]


@dataclass
class _Scan:
    """Candidate splits of a node over the features it scans.

    ``features`` lists the scanned features that have a candidate, in scan
    order; candidate ``i`` splits ``features[cand_row[i]]`` after sorted
    position ``cand_split[i]`` (sorted rows ``[0, p]`` go left).
    Candidates are row-major: by scan order, then by position.
    """

    features: np.ndarray
    cand_row: np.ndarray
    cand_split: np.ndarray


class _NodeEntry:
    """One node's row set and the split-search data derived from it.

    All of it is a function of the node's split path, so one entry serves
    every tree of an ensemble fit that grows the node.  ``rows``
    (ascending) is set when the parent splits; ``order`` (per feature, the
    rows in stable sorted order, ``int32``) is derived from the parent's
    order the first time the node is searched, and ``scan`` caches the
    all-features candidate scan.

    In a fit whose weights are fixed (the presort's ``weights``), the
    weight state is a function of the split path too: ``weights`` holds
    the node rows' weights and ``total_weight`` their sum, and
    ``candidate_weights`` the weight prefix sums at the cached scan's
    candidates and the candidates' weight totals.  Every cached array is
    rows- or candidate-sized; none is ``(features, rows)``.
    """

    def __init__(self, path: _SplitPath, rows: np.ndarray,
                 parent_order: Optional[np.ndarray]) -> None:
        self.path = path
        self.rows = rows
        self.parent_order = parent_order
        self.order: Optional[np.ndarray] = None
        self.scan: Optional[_Scan] = None
        self.weights: Optional[np.ndarray] = None
        self.total_weight: Optional[np.floating] = None
        self.candidate_weights: Optional[Tuple[np.ndarray, np.ndarray]] = None


class _PresortedColumns:
    """Feature columns sorted once for the trees of one fit.

    Holds the ``(n_features, n_samples)`` transposed columns, one stable
    argsort of every column as an ``int32`` row order (the root's), and,
    when ``shared``, a memo of :class:`_NodeEntry` keyed by split path.
    AdaBoost shares one across the rounds of a ``fit``, and so does
    gradient boosting: a later round that regrows a node only gathers its
    new weights or targets through the cached order and scores the cached
    candidates.  A single tree builds an unshared one, which memoises
    nothing and lets each node's order go once its children have derived
    theirs.  No estimator keeps a reference to it once ``fit`` returns.

    ``weights`` are the sample weights of a fit that uses the same weights
    in every round (gradient boosting), validated here as ``fit`` validates
    them and frozen.  The memo then also caches each node's weight state
    (see :class:`_NodeEntry`), which only a tree fitted on this very array
    reads: the cache belongs to the fit, never to array contents.
    AdaBoost, whose weights change every round, passes none.
    """

    def __init__(self, features: np.ndarray, min_samples_leaf: int,
                 shared: bool = False,
                 weights: Optional[np.ndarray] = None) -> None:
        self.columns = np.ascontiguousarray(features.T)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.root = _NodeEntry((), np.arange(self.n_samples), None)
        self.root.order = np.argsort(self.columns, axis=1,
                                     kind="stable").astype(np.int32)
        self.memo: Optional[dict] = {} if shared else None
        self.weights: Optional[np.ndarray] = None
        if weights is not None:
            self.weights = check_sample_weight(weights, self.n_samples)
            self.weights.setflags(write=False)
        self._scratch: Optional[Tuple[np.ndarray, ...]] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_scratch"] = None  # the fit's gather buffers never travel
        return state

    def gini_scratch(self) -> Tuple[np.ndarray, ...]:
        """The Gini split scan's gather buffers: the node order as
        ``intp``, gathered weights and running sums, each as long as the
        root's ``(features, rows)``.

        Allocated on first use and shared by every tree of the fit, so an
        AdaBoost fit allocates them once rather than once per round or
        per node: a fresh 1 MB buffer per allocation can cost page faults
        whenever glibc serves it from new mmapped pages.
        """
        if self._scratch is None:
            size = self.n_features * self.n_samples
            self._scratch = (np.empty(size, dtype=np.intp),
                             np.empty(size), np.empty(size))
        return self._scratch

    @property
    def n_features(self) -> int:
        return self.columns.shape[0]

    @property
    def n_samples(self) -> int:
        return self.columns.shape[1]

    def children(self, node: _NodeEntry, feature: int,
                 threshold: float) -> Tuple[_NodeEntry, _NodeEntry]:
        """The entries of ``node``'s two sides when split at
        ``x[feature] <= threshold`` (memo lookups after the first time)."""
        paths = [node.path + ((feature, threshold, side),) for side in (0, 1)]
        if self.memo is not None and paths[0] in self.memo:
            return self.memo[paths[0]], self.memo[paths[1]]
        left = self.columns[feature, node.rows] <= threshold
        entries = tuple(_NodeEntry(path, rows, node.order) for path, rows
                        in zip(paths, (node.rows[left], node.rows[~left])))
        if self.memo is None:
            node.order = None  # never searched again; the children hold it
        else:
            self.memo.update(zip(paths, entries))
        return entries

    def scan(self, node: _NodeEntry, features: np.ndarray) -> _Scan:
        """Candidate splits of ``node`` over ``features`` (scan order).

        Derives the node's sorted order on first use: a stable filter of
        the parent's stable order to the node's rows is the stable sort of
        those rows, ties included, so every node sees exactly the columns
        a per-node argsort would give.  A shared memo caches the scan of
        all features (in index order).
        """
        if node.order is None:
            member = np.zeros(self.n_samples, dtype=bool)
            member[node.rows] = True
            node.order = np.compress(
                member.take(node.parent_order).ravel(),
                node.parent_order).reshape(self.n_features, -1)
            node.parent_order = None
        every = features.size == self.n_features
        if every and node.scan is not None:
            return node.scan
        n_rows = node.rows.size
        order = node.order if every else node.order[features]
        sorted_values = self.columns.take(
            order + (features * self.n_samples)[:, None])
        positions = np.arange(n_rows - 1)
        leaf_ok = ((positions + 1 >= self.min_samples_leaf)
                   & (n_rows - positions - 1 >= self.min_samples_leaf))
        # Equal infinities give ``inf - inf = NaN``, which compares False,
        # so no split is taken between them, as intended: the "invalid
        # value" warning is noise.
        with np.errstate(invalid="ignore"):
            gaps = np.diff(sorted_values, axis=1) > 1e-12
        rows, splits = np.divmod(np.flatnonzero(gaps & leaf_ok), n_rows - 1)
        # ``rows`` is non-decreasing: number the distinct ones in one pass.
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        scan = _Scan(features[rows[first]], np.cumsum(first) - 1, splits)
        if every and self.memo is not None:
            node.scan = scan
        return scan


class _TreeBuilder:
    """Shared CART growing logic for classification and regression.

    ``build`` grows one tree over a :class:`_PresortedColumns`: each node
    is a :class:`_NodeEntry` searched through its presorted order, and a
    split asks the presort for the two child entries (memo lookups when it
    is shared).  The order and candidates belong to the split path; only
    the weights and targets are the tree's own, except in a tree built on
    the shared presort's fixed ``weights``, whose node weight state is
    cached on the entries too.
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
        self._presorted: Optional[_PresortedColumns] = None
        self._columns = np.zeros((0, 0))
        self._targets = np.zeros(0)
        self._weights = np.zeros(0)
        self._fixed_weights = False
        self._n_classes = 0
        self._class_weights: List[np.ndarray] = []
        self._weighted = np.zeros(0)
        self._squared = np.zeros(0)

    # -- impurity ------------------------------------------------------
    def _node_weights(self, entry: _NodeEntry
                      ) -> Tuple[np.ndarray, np.floating]:
        """The node rows' weights and their total, cached on the entry in
        a fixed-weight fit."""
        if self._fixed_weights and entry.weights is not None:
            return entry.weights, entry.total_weight
        weights = self._weights[entry.rows]
        total = weights.sum()
        if self._fixed_weights:
            entry.weights, entry.total_weight = weights, total
        return weights, total

    def _node_stats(self, targets: np.ndarray, weights: np.ndarray,
                    total) -> Tuple[np.ndarray, float]:
        """Value and impurity of a node from its rows' targets and weights
        and ``total = weights.sum()``.

        The variance criterion writes out what ``np.average`` evaluates,
        ``np.multiply(a, weights).sum() / weights.sum()``, over the given
        total, so the bits are those of ``np.average``.
        """
        n_classes = self._n_classes
        if self.criterion == "gini":
            class_weights = np.array([weights[targets == k].sum()
                                      for k in range(n_classes)])
            class_total = class_weights.sum()
            value = (class_weights / class_total if class_total > 0
                     else np.full(n_classes, 1.0 / n_classes))
            if total <= 0:
                return value, 0.0
            return value, float(1.0 - np.sum((class_weights / total) ** 2))
        if total <= 0:
            return np.array([0.0]), 0.0
        mean = np.multiply(targets, weights).sum() / total
        impurity = np.multiply((targets - mean) ** 2, weights).sum() / total
        # ``total > 0`` is not ``not total <= 0`` for a NaN total.
        return np.array([float(mean) if total > 0 else 0.0]), float(impurity)

    # -- split search --------------------------------------------------
    def _feature_subset(self, n_features: int) -> np.ndarray:
        return _feature_subset(self.rng, self.max_features, n_features)

    def _best_split(self, node: _NodeEntry) -> Optional[_SplitCandidate]:
        """All-features split search over the node's presorted columns.

        Gathers the tree's score summands through the sorted order of the
        scanned features that have a candidate, runs one ``cumsum`` per
        summand, and evaluates impurity only at the candidate ``(feature,
        position)`` pairs (a distinct-value boundary whose children satisfy
        ``min_samples_leaf``; cached per node for all-features scans).
        Bit-identical to the tests' per-feature ``best_split_loop``
        (oracle pair ``tree-split``, polaris-lint PL002): the running sums
        are the same sequential ``cumsum`` over each full sorted column,
        the per-feature totals reduce along the contiguous axis as the 1-D
        scan does, and a row-major ``argmin`` over the candidates picks the
        loop's winner (first feature in scan order, then first position).
        """
        scan = self._presorted.scan(
            node, self._feature_subset(self._columns.shape[0]))
        if scan.cand_row.size == 0:
            return None
        cand_row, cand_split = scan.cand_row, scan.cand_split
        if self.criterion == "gini":
            # The (features, rows) gathers go through the fit's buffers:
            # views of them have the layout of fresh arrays, so the sums
            # associate as they would.  Indices are valid by construction,
            # so mode="clip" skips the buffered copy of mode="raise".
            size = scan.features.size * node.rows.size
            order, gathered, cumulative = (
                buffer[:size].reshape(scan.features.size, node.rows.size)
                for buffer in self._presorted.gini_scratch())
            np.copyto(order, node.order
                      if scan.features.size == self._columns.shape[0]
                      else node.order[scan.features])
            np.take(self._weights, order, out=gathered, mode="clip")
            total_weight = gathered.sum(axis=1)[cand_row]
            left_counts = np.empty((cand_row.size, self._n_classes))
            total_counts = np.empty_like(left_counts)
            for k, class_weights in enumerate(self._class_weights):
                np.take(class_weights, order, out=gathered, mode="clip")
                np.cumsum(gathered, axis=1, out=cumulative)
                left_counts[:, k] = cumulative[cand_row, cand_split]
                total_counts[:, k] = cumulative[:, -1][cand_row]
            score = _gini_scores(left_counts, total_counts, total_weight)
        else:
            order = node.order[scan.features].astype(np.intp)
            cum_weight, total_weight = self._candidate_weights(node, scan,
                                                               order)
            weighted = self._weighted.take(order)
            squared = self._squared.take(order)
            score = _mse_scores(
                cum_weight,
                np.cumsum(weighted, axis=1)[cand_row, cand_split],
                np.cumsum(squared, axis=1)[cand_row, cand_split],
                total_weight, weighted.sum(axis=1)[cand_row],
                squared.sum(axis=1)[cand_row])
        # A NaN score needs the node's weighted square total to overflow,
        # which leaves no finite score in any feature, so both searches
        # return None there.
        best = int(np.argmin(score))
        if not np.isfinite(score[best]):
            return None
        feature, position = scan.features[cand_row[best]], cand_split[best]
        lower, upper = self._columns[feature,
                                     node.order[feature, position:position + 2]]
        return _SplitCandidate(int(feature), _midpoint(lower, upper),
                               float(score[best]))

    def _candidate_weights(self, node: _NodeEntry, scan: _Scan,
                           order: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Weight prefix sums at the scan's candidates and the candidates'
        weight totals.

        ``order`` is the node's order for the scanned features.  A fixed-
        weight fit caches both on the entry when the scan is the entry's
        cached one, so a regrown node gathers and sums no weights.
        """
        cached = self._fixed_weights and scan is node.scan
        if cached and node.candidate_weights is not None:
            return node.candidate_weights
        sorted_weights = self._weights.take(order)
        result = (np.cumsum(sorted_weights, axis=1)[scan.cand_row,
                                                    scan.cand_split],
                  sorted_weights.sum(axis=1)[scan.cand_row])
        if cached:
            node.candidate_weights = result
        return result

    # -- recursion ------------------------------------------------------
    def build(self, presorted: _PresortedColumns, targets: np.ndarray,
              weights: np.ndarray, n_classes: int) -> List[TreeNode]:
        if presorted.min_samples_leaf != self.min_samples_leaf:
            raise ValueError("the presorted columns were built for "
                             "another min_samples_leaf")
        self.nodes = []
        self._presorted = presorted
        self._columns = presorted.columns
        self._targets = targets
        self._weights = weights
        # The memo's weight state belongs to the presort's own weights.
        self._fixed_weights = (presorted.memo is not None
                               and weights is presorted.weights)
        self._n_classes = n_classes
        # Per-row summands of the split scores, gathered per node through
        # its sorted order: the weight of each class for Gini, the weighted
        # target and squared target for variance.
        if self.criterion == "gini":
            self._class_weights = [np.where(targets == k, weights, 0.0)
                                   for k in range(n_classes)]
        else:
            self._weighted = weights * targets
            self._squared = weights * targets ** 2
        self._grow(presorted.root, depth=0)
        return self.nodes

    def _grow(self, entry: _NodeEntry, depth: int) -> int:
        rows = entry.rows
        weights, total = self._node_weights(entry)
        node_index = len(self.nodes)
        value, impurity = self._node_stats(self._targets[rows], weights, total)
        node = TreeNode(feature=LEAF, threshold=0.0, left=-1, right=-1,
                        value=value, cover=float(total),
                        impurity=impurity, depth=depth)
        self.nodes.append(node)

        stop = (
            rows.size < self.min_samples_split
            or impurity <= 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        )
        if stop:
            return node_index
        split = self._best_split(entry)
        if split is None or split.score >= impurity - 1e-12:
            return node_index
        left, right = self._presorted.children(entry, split.feature,
                                               split.threshold)
        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._grow(left, depth + 1)
        node.right = self._grow(right, depth + 1)
        return node_index


@dataclass
class FlatTree:
    """A fitted tree: structure-of-arrays form, one entry per node.

    Attributes:
        feature: Split feature per node (:data:`LEAF` for leaves).
        threshold: Split threshold per node (``x <= threshold`` goes left).
        left: Left-child index per node (-1 for leaves).
        right: Right-child index per node (-1 for leaves).
        value: ``(n_nodes, n_outputs)`` node predictions.
        cover: Total sample weight that reached each node.
        impurity: Node impurity (Gini or variance).
        step_feature: Like ``feature`` but 0 at leaves — safe to gather.
        step_threshold: Like ``threshold`` but ``+inf`` at leaves.
        step_left: Like ``left`` but leaves point back at themselves.
        step_right: Like ``right`` but leaves point back at themselves.
        max_depth: Depth of the deepest node (descent iteration count).

    The ``step_*`` views make leaves self-looping: a row already on its
    leaf compares ``x <= +inf``, goes "left" and stays put, so the batch
    descent can sweep all rows level-synchronously for ``max_depth``
    iterations with no per-level active-set bookkeeping.

    Children always have larger indices than their parent (the builders
    append parents before their children), so index order is a
    topological order — the vectorised Tree SHAP expectation relies on
    this.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray
    impurity: np.ndarray
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
            impurity=np.array([node.impurity for node in nodes], dtype=float),
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
    """Prediction and introspection over a fitted tree's :class:`FlatTree`.

    Gradient boosting rewrites leaf values with Newton steps after fitting
    (:meth:`set_node_value`).
    """

    def __init__(self, nodes: List[TreeNode], n_features: int) -> None:
        self.n_features = n_features
        self.flat = FlatTree.from_nodes(nodes)

    def set_node_value(self, index: int, value: np.ndarray) -> None:
        """Replace one node's prediction."""
        self.flat.value[index] = np.asarray(value, dtype=float)

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
        Python loop per row; bit-identical to the per-sample walk (the
        tests' ``predict_value``, oracle pair ``tree-predict``).
        """
        features = check_features(features)
        return self.flat.value[self._descend(features)]

    def leaf_indices(self, features: np.ndarray) -> np.ndarray:
        """Leaf node index reached by every row (the last node of the
        tests' per-sample ``decision_path``)."""
        return self._descend(check_features(features))

    def feature_importances(self) -> np.ndarray:
        """Impurity-decrease feature importances (normalised to sum to 1).

        Each split's gain, clipped at 0, is added to its feature in node
        index order.
        """
        flat = self.flat
        split = np.flatnonzero(flat.feature != LEAF)
        weighted = flat.cover * flat.impurity
        decrease = (weighted[split] - weighted[flat.left[split]]
                    - weighted[flat.right[split]])
        # ``decrease > 0`` keeps ``max(0.0, decrease)``'s 0.0 for NaN and -0.0.
        gains = np.where(decrease > 0.0, decrease, 0.0)
        importances = np.bincount(flat.feature[split], weights=gains,
                                  minlength=self.n_features)
        total = importances.sum()
        return importances / total if total > 0 else importances

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the tree."""
        return self.flat.n_nodes

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node."""
        return self.flat.max_depth


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
        _check_max_features(max_features)
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
        presorted = _PresortedColumns(check_features(features),
                                      self.min_samples_leaf)
        return self._fit_presorted(presorted, labels, sample_weight)

    def _fit_presorted(self, presorted: _PresortedColumns, labels: np.ndarray,
                       sample_weight: Optional[np.ndarray] = None
                       ) -> "DecisionTreeClassifier":
        """:meth:`fit` on columns an ensemble presorted for all its trees."""
        labels = check_labels(labels, presorted.n_samples)
        weights = check_sample_weight(sample_weight, presorted.n_samples)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = presorted.n_features
        builder = _TreeBuilder("gini", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        nodes = builder.build(presorted, encoded, weights, len(self.classes_))
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
        _check_max_features(max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[_FittedTree] = None
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, targets: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeRegressor":
        presorted = _PresortedColumns(check_features(features),
                                      self.min_samples_leaf)
        return self._fit_presorted(presorted, targets, sample_weight)

    def _fit_presorted(self, presorted: _PresortedColumns, targets: np.ndarray,
                       sample_weight: Optional[np.ndarray] = None
                       ) -> "DecisionTreeRegressor":
        """:meth:`fit` on columns an ensemble presorted for all its trees."""
        targets = self._check_targets(presorted, targets)
        weights = check_sample_weight(sample_weight, presorted.n_samples)
        return self._build(presorted, targets, weights)

    def _fit_fixed_weights(self, presorted: _PresortedColumns,
                           targets: np.ndarray) -> "DecisionTreeRegressor":
        """:meth:`fit` with the fixed ``weights`` of a shared presort.

        The tree reads and fills the memo's weight cache, so a gradient-
        boosting round that regrows a node gathers and sums only its
        targets.  Its nodes are bitwise those of ``fit(features, targets,
        sample_weight)`` with the weights the presort was given (oracle
        pair ``boosting-fixed-weights``, polaris-lint PL002).
        """
        if presorted.weights is None:
            raise ValueError("the presorted columns hold no fixed weights")
        return self._build(presorted, self._check_targets(presorted, targets),
                           presorted.weights)

    @staticmethod
    def _check_targets(presorted: _PresortedColumns,
                       targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (presorted.n_samples,):
            raise ValueError("targets must match the number of feature rows")
        return targets

    def _build(self, presorted: _PresortedColumns, targets: np.ndarray,
               weights: np.ndarray) -> "DecisionTreeRegressor":
        self.n_features_ = presorted.n_features
        builder = _TreeBuilder("mse", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        nodes = builder.build(presorted, targets, weights, n_classes=1)
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


# ----------------------------------------------------------------------
# Lockstep growth of the trees of a random forest
# ----------------------------------------------------------------------
class _Pending:
    """A created, not yet visited node of a lockstep tree: its distinct
    rows (ascending), integer class counts (bootstrap duplicates
    included) and the parent pointer it fills when visited."""

    __slots__ = ("node", "rows", "counts", "n_rows", "parent", "side")

    def __init__(self, node: TreeNode, rows: np.ndarray, counts: np.ndarray,
                 n_rows: int, parent: Optional[TreeNode], side: int) -> None:
        self.node = node
        self.rows = rows
        self.counts = counts
        self.n_rows = n_rows
        self.parent = parent
        self.side = side


class _GrowingTree:
    """One lockstep tree mid-growth: the classes its bootstrap drew
    (indices into the forest's), its nodes so far, in the preorder a
    recursive build appends them, and a stack of pending nodes."""

    __slots__ = ("index", "rng", "classes", "nodes", "stack", "searched",
                 "features")

    def __init__(self, index: int, rng: np.random.Generator,
                 classes: Tuple[int, ...]) -> None:
        self.index = index
        self.rng = rng
        self.classes = classes
        self.nodes: List[TreeNode] = []
        self.stack: List[_Pending] = []
        self.searched: Optional[_Pending] = None
        self.features = np.zeros(0, dtype=np.intp)


def _by_classes(trees: List[_GrowingTree]) -> list:
    """``(classes, positions)`` of the trees that drew the same classes.

    Weight sums are formed over a tree's own classes only.  ``take`` keeps
    the class columns C-contiguous: numpy sums a row pairwise only along a
    contiguous axis, as the per-tree build does, and from 8 classes on the
    two orders round differently.
    """
    groups: dict = {}
    for position, tree in enumerate(trees):
        groups.setdefault(tree.classes, []).append(position)
    return [(np.array(classes, dtype=np.intp), positions)
            for classes, positions in groups.items()]


class _LockstepForest:
    """The trees of a random forest grown together: at step *s* every
    unfinished tree searches its *s*-th searched node in depth-first order.

    A tree draws a feature subset from its own generator at each node it
    searches, in that order, so it sees the draws a recursive build would.
    Every feature column is coded once by rank over its distinct values,
    which loses nothing; one ``bincount`` over ``(search, scanned feature,
    code, class)`` bins, laid out ragged by each feature's distinct-value
    count, then gives exact class counts at every candidate threshold of
    every node searched in the step.  The trees weigh every drawn sample
    ``1 / n_drawn``, so each weight sum a tree would form is a lookup by
    integer count in one of two tables: ``sequential`` holds the running
    ``cumsum`` sums (class weight left of a split, node class totals) and
    ``pairwise`` numpy's ``sum`` sums (node weight, values and cover).
    """

    def __init__(self, features: np.ndarray, encoded: np.ndarray,
                 n_classes: int, bootstraps: np.ndarray,
                 max_depth: Optional[int], min_samples_split: int,
                 min_samples_leaf: int, max_features: Optional[int]) -> None:
        n_samples, self.n_features = features.shape
        self.encoded = encoded
        self.n_classes = n_classes
        #: How often each sample was drawn for each tree.
        self.multiplicity = np.array([
            np.bincount(drawn, minlength=n_samples) for drawn in bootstraps])
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.codes = np.empty((self.n_features, n_samples), dtype=np.intp)
        distinct = [np.zeros(0)]
        for feature, column in enumerate(features.T):
            values, self.codes[feature] = np.unique(column, return_inverse=True)
            distinct.append(values)
        #: Distinct values of every feature, concatenated in feature order.
        self.distinct = np.concatenate(distinct)
        self.n_codes = np.array([values.size for values in distinct[1:]],
                                dtype=np.intp)
        self.first_code = np.cumsum(self.n_codes) - self.n_codes
        #: Bin of every sample inside its feature's ``(code, class)`` block.
        self.bins = self.codes * n_classes + encoded
        n_drawn = bootstraps.shape[1]
        weight = 1.0 / n_drawn
        self.sequential = np.concatenate(
            ([0.0], np.cumsum(np.full(n_drawn, weight))))
        self.pairwise = np.array([np.full(count, weight).sum()
                                  for count in range(n_drawn + 1)])

    def grow(self, rngs: List[np.random.Generator]) -> List[_GrowingTree]:
        """Grow one tree per bootstrap, tree ``i`` drawing its feature
        subsets from ``rngs[i]``."""
        counts = np.array([np.bincount(self.encoded, weights=drawn,
                                       minlength=self.n_classes)
                           for drawn in self.multiplicity]).astype(np.intp)
        trees = [_GrowingTree(index, rng,
                              tuple(np.flatnonzero(tree_counts).tolist()))
                 for index, (rng, tree_counts) in enumerate(zip(rngs, counts))]
        roots = self._new_nodes(trees, counts, [0] * len(trees))
        for tree, root, tree_counts, drawn in zip(trees, roots, counts,
                                                  self.multiplicity):
            tree.stack.append(_Pending(root, np.flatnonzero(drawn),
                                       tree_counts, int(drawn.sum()), None,
                                       0))
        active = trees
        while active:
            active = [tree for tree in active if self._advance(tree)]
            if active:
                self._split(active, self._search(active))
        return trees

    def _advance(self, tree: _GrowingTree) -> bool:
        """Visit ``tree``'s pending nodes until one needs a split search;
        draw its feature subset.  False once the tree is finished."""
        while tree.stack:
            pending = tree.stack.pop()
            node = pending.node
            if pending.parent is not None:
                if pending.side == 0:
                    pending.parent.left = len(tree.nodes)
                else:
                    pending.parent.right = len(tree.nodes)
            tree.nodes.append(node)
            if (pending.n_rows < self.min_samples_split
                    or node.impurity <= 1e-12
                    or (self.max_depth is not None
                        and node.depth >= self.max_depth)):
                continue
            tree.searched = pending
            tree.features = _feature_subset(tree.rng, self.max_features,
                                            self.n_features)
            return True
        return False

    def _new_nodes(self, trees: List[_GrowingTree], counts: np.ndarray,
                   depths: List[int]) -> List[TreeNode]:
        """Leaf nodes (until split) holding class counts ``counts[i]`` in
        ``trees[i]``; value, impurity and cover as a recursive build forms
        them over each tree's own classes."""
        nodes: List[Optional[TreeNode]] = [None] * len(trees)
        for classes, members in _by_classes(trees):
            weights = self.pairwise[counts[members].take(classes, axis=1)]
            cover = self.pairwise[counts[members].sum(axis=1)]
            value = weights / weights.sum(axis=1)[:, None]
            impurity = 1.0 - np.sum((weights / cover[:, None]) ** 2, axis=1)
            for row, position in enumerate(members):
                nodes[position] = TreeNode(
                    feature=LEAF, threshold=0.0, left=-1, right=-1,
                    value=value[row], cover=float(cover[row]),
                    impurity=float(impurity[row]), depth=depths[position])
        return nodes

    def _search(self, trees: List[_GrowingTree]) -> list:
        """Best split of every tree's searched node, or None.

        Returns ``(score, feature, threshold, left_counts, left_rows,
        right_rows)`` per tree: the first minimum in row-major (scanned
        feature, code) order of the Gini scores of the candidates, which sit
        between adjacent present codes more than ``1e-12`` apart with
        ``min_samples_leaf`` drawn samples on each side, and the node's
        distinct rows on each side of it.
        """
        n_search = len(trees)
        searched = [tree.searched for tree in trees]
        scanned = np.array([tree.features for tree in trees], dtype=np.intp)
        n_scanned = scanned.shape[1]
        rows = np.concatenate([pending.rows for pending in searched])
        search_of_row = np.repeat(np.arange(n_search),
                                  [pending.rows.size for pending in searched])
        n_samples = self.bins.shape[1]
        drawn = self.multiplicity.ravel().take(
            np.array([tree.index for tree in trees])[search_of_row]
            * n_samples + rows)
        # Ragged layout: one (code, class) block per (search, scanned
        # feature) slot, with one code per distinct value of the feature.
        slot_codes = self.n_codes[scanned].ravel()
        code_start = np.cumsum(slot_codes) - slot_codes
        slot_of_code = np.repeat(np.arange(slot_codes.size), slot_codes)
        bins = ((code_start * self.n_classes).reshape(n_search, n_scanned)
                [search_of_row] + self.bins.ravel().take(
                    scanned[search_of_row] * n_samples + rows[:, None]))
        counts = np.bincount(
            bins.ravel(), weights=np.repeat(drawn, n_scanned),
            minlength=int(slot_codes.sum()) * self.n_classes
        ).reshape(-1, self.n_classes)
        at_code = counts.sum(axis=1)
        present = np.flatnonzero(at_code)
        slot = slot_of_code[present]
        value = self.distinct[(self.first_code[scanned.ravel()]
                               - code_start)[slot] + present]
        # Class and sample counts up to each code, from its slot's start.
        before = np.cumsum(counts, axis=0)
        before -= (before - counts)[code_start][slot_of_code]
        node_counts = np.array([pending.counts for pending in searched])
        node_rows = node_counts.sum(axis=1)
        lower = present[:-1]
        left_rows = before[lower].sum(axis=1)
        right_rows = node_rows[slot[:-1] // n_scanned] - left_rows
        with np.errstate(invalid="ignore"):  # inf - inf across slots
            gap = value[1:] - value[:-1]
        candidate = np.flatnonzero(
            (slot[1:] == slot[:-1]) & (gap > 1e-12)
            & (left_rows >= self.min_samples_leaf)
            & (right_rows >= self.min_samples_leaf))
        results: list = [None] * n_search
        if candidate.size == 0:
            return results
        cand_slot = slot[candidate]
        cand_search = cand_slot // n_scanned
        left_counts = before[lower[candidate]].astype(np.intp)
        score = np.empty(candidate.size)
        for classes, members in _by_classes(trees):
            mine = np.isin(cand_search, members)
            owner = cand_search[mine]
            score[mine] = _gini_scores(
                self.sequential[left_counts[mine].take(classes, axis=1)],
                self.sequential[node_counts[owner].take(classes, axis=1)],
                self.pairwise[node_rows[owner]])
        # First minimum per search (candidates are grouped by search).
        starts = np.flatnonzero(np.r_[True, cand_search[1:]
                                      != cand_search[:-1]])
        lowest = np.repeat(np.minimum.reduceat(score, starts),
                           np.diff(np.r_[starts, candidate.size]))
        best = np.flatnonzero(score == lowest)
        best = best[np.r_[True, cand_search[best[1:]]
                          != cand_search[best[:-1]]]]
        # Every row of a searched node against its best split, at once.
        split_feature = np.zeros(n_search, dtype=np.intp)
        split_code = np.full(n_search, -1, dtype=np.intp)
        split_feature[cand_search[best]] = scanned.ravel()[cand_slot[best]]
        split_code[cand_search[best]] = (lower[candidate[best]]
                                         - code_start[cand_slot[best]])
        goes_left = (self.codes.ravel().take(
            split_feature[search_of_row] * n_samples + rows)
                     <= split_code[search_of_row])
        sides = [np.split(rows[side], np.cumsum(np.bincount(
            search_of_row[side], minlength=n_search))[:-1])
                 for side in (goes_left, ~goes_left)]
        for index in best:
            search = cand_search[index]
            results[search] = (
                float(score[index]),
                int(scanned.flat[cand_slot[index]]),
                _midpoint(value[candidate[index]],
                          value[candidate[index] + 1]),
                left_counts[index], sides[0][search], sides[1][search])
        return results

    def _split(self, trees: List[_GrowingTree], results: list) -> None:
        """Split every searched node whose best split lowers its impurity
        by more than ``1e-12`` and push its children, right then left."""
        splits = []
        for tree, result in zip(trees, results):
            pending = tree.searched
            if (result is None or not np.isfinite(result[0])
                    or result[0] >= pending.node.impurity - 1e-12):
                continue
            _, feature, threshold, left_counts, left, right = result
            pending.node.feature = feature
            pending.node.threshold = threshold
            splits.append((tree, pending, left_counts, (left, right)))
        if not splits:
            return
        sides = [tree for tree, *_ in splits for _ in range(2)]
        counts = np.array([side for _, pending, left_counts, _ in splits
                           for side in (left_counts,
                                        pending.counts - left_counts)])
        depths = [pending.node.depth + 1 for _, pending, *_ in splits
                  for _ in range(2)]
        children = self._new_nodes(sides, counts, depths)
        n_rows = counts.sum(axis=1).tolist()
        for position, (tree, pending, _, rows) in enumerate(splits):
            for side in (1, 0):
                child = 2 * position + side
                tree.stack.append(_Pending(children[child], rows[side],
                                           counts[child], n_rows[child],
                                           pending.node, side))


def _fit_lockstep(trees: List[DecisionTreeClassifier], features: np.ndarray,
                  labels: np.ndarray, bootstraps: np.ndarray) -> None:
    """Fit every ``trees[i]`` as ``trees[i].fit(features[bootstraps[i]],
    labels[bootstraps[i]])`` would, growing all of them together.

    ``features`` is a checked float matrix, ``labels`` its label vector
    and ``bootstraps`` a ``(len(trees), n_drawn)`` integer array.

    The trees must share their growth settings; each draws its feature
    subsets from its own ``random_state``.  Every ``FlatTree`` array and
    each tree's ``classes_`` (the classes its bootstrap drew) are bitwise
    those of the per-tree fits (oracle pair ``forest-lockstep``,
    polaris-lint PL002).
    """
    settings = {(tree.max_depth, tree.min_samples_split,
                 tree.min_samples_leaf, tree.max_features) for tree in trees}
    if len(settings) != 1:
        raise ValueError("lockstep trees must share their growth settings")
    (max_depth, min_samples_split, min_samples_leaf, max_features), = settings
    check_fit_rows(bootstraps.shape[1])
    classes, encoded = np.unique(labels, return_inverse=True)
    grower = _LockstepForest(features, encoded, classes.size, bootstraps,
                             max_depth, min_samples_split, min_samples_leaf,
                             max_features)
    grown = grower.grow([np.random.default_rng(tree.random_state)
                         for tree in trees])
    for tree, growing in zip(trees, grown):
        tree.classes_ = classes[list(growing.classes)]
        tree.n_features_ = features.shape[1]
        tree.tree_ = _FittedTree(growing.nodes, tree.n_features_)
