"""Bit-identity properties: flat-array fast paths vs their per-sample oracles.

These tests pin the oracle pairs registered in
``tools/polaris_lint/contracts.py`` (rule PL002):

- ``tree-predict``: ``FlatTree``-based ``predict_batch`` /
  ``leaf_indices`` vs the per-row ``predict_value`` / ``decision_path``
  node walks (``oracles.tree``).
- ``tree-shap-explain``: the leaf-path engine ``shap_block`` behind
  ``explain_matrix`` vs the coalition-enumerating per-sample engine
  ``explain_per_sample`` (``oracles.tree_shap``), within 1e-10.
- ``tree-split``: the presorted all-features ``_best_split`` vs the
  per-feature ``best_split_loop`` (whole fits compared, every family,
  including boosting rounds served from a shared node memo).
- ``forest-lockstep``: the random forest's ``_fit_lockstep``, which grows
  all trees together over rank-coded features, vs the per-tree
  ``DecisionTreeClassifier.fit`` on each bootstrap with the loop split
  search (``oracles.forest.fit_forest_per_tree``).
- ``boosting-fixed-weights``: gradient-boosting rounds grown by
  ``DecisionTreeRegressor._fit_fixed_weights`` on the fit's shared,
  fixed-weight presort (node weight state cached on the split-path memo)
  vs every round fitted alone by ``DecisionTreeRegressor.fit`` on the
  same gradient and weights.

Every other assertion is *bitwise* (``np.array_equal`` / ``==`` on
floats is deliberate here): those vectorised paths are required to
reproduce the oracle exactly, not approximately.  Tree SHAP sums the
same Shapley values in another order than coalition enumeration, so it
agrees with its oracle to round-off; bitwise, a row's explanation is the
same however it is batched.
"""

import gc
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    FlatTree,
    GradientBoostingClassifier,
    LEAF,
    RandomForestClassifier,
)
from repro.ml.tree import (
    _LockstepForest,
    _NodeEntry,
    _PresortedColumns,
    _SplitCandidate,
    _TreeBuilder,
    _fit_lockstep,
)
from repro.xai.tree_shap import TreeShapExplainer, _extract_trees

from oracles.forest import fit_forest_per_tree
from oracles.tree import best_split_loop, decision_path, predict_value
from oracles.tree_shap import base_value, explain_per_sample

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

MODEL_FACTORIES = {
    "tree": lambda depth: DecisionTreeClassifier(max_depth=depth,
                                                 random_state=0),
    "forest": lambda depth: RandomForestClassifier(n_estimators=4,
                                                   max_depth=depth,
                                                   random_state=1),
    "adaboost": lambda depth: AdaBoostClassifier(n_estimators=5,
                                                 max_depth=depth,
                                                 random_state=2),
    "gboost": lambda depth: GradientBoostingClassifier(n_estimators=5,
                                                       learning_rate=0.2,
                                                       max_depth=depth,
                                                       random_state=3),
}


def _dataset(seed, n_samples, n_features, single_class=False,
             constant_feature=False, weighted=False):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_samples, n_features))
    if constant_feature:
        features[:, 0] = 1.5
    if single_class:
        labels = np.ones(n_samples, dtype=int)
    else:
        labels = (features.sum(axis=1) > 0).astype(int)
        labels[0] = 0  # guarantee both classes when possible
        labels[-1] = 1
    weights = rng.uniform(0.1, 2.0, size=n_samples) if weighted else None
    return features, labels, weights


def _fitted_trees(model):
    """Every fitted ``_FittedTree`` inside ``model``."""
    if hasattr(model, "estimators_"):
        return [tree.tree_ for tree in model.estimators_]
    return [model.tree_]


# ----------------------------------------------------------------------
# Oracle pair tree-predict: predict_batch vs predict_value
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(5, 40),
       n_features=st.integers(1, 6), depth=st.integers(1, 4),
       weighted=st.booleans())
def test_predict_batch_matches_predict_value(family, seed, n_samples,
                                             n_features, depth, weighted):
    features, labels, weights = _dataset(seed, n_samples, n_features,
                                         weighted=weighted)
    model = MODEL_FACTORIES[family](depth)
    model.fit(features, labels, sample_weight=weights)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    for fitted in _fitted_trees(model):
        batch = fitted.predict_batch(queries)
        oracle = np.vstack([predict_value(fitted, row) for row in queries])
        assert np.array_equal(batch, oracle)


@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(5, 40),
       n_features=st.integers(1, 5), depth=st.integers(1, 5))
def test_regressor_predict_batch_matches_predict_value(seed, n_samples,
                                                       n_features, depth):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_samples, n_features))
    targets = rng.normal(size=n_samples)
    model = DecisionTreeRegressor(max_depth=depth, random_state=0)
    model.fit(features, targets)
    queries = rng.normal(size=(n_samples, n_features))
    batch = model.tree_.predict_batch(queries)
    oracle = np.vstack([predict_value(model.tree_, row) for row in queries])
    assert np.array_equal(batch, oracle)
    assert np.array_equal(model.predict(queries), oracle[:, 0])


@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(5, 30),
       n_features=st.integers(1, 5), depth=st.integers(1, 4))
def test_leaf_indices_match_decision_path(seed, n_samples, n_features, depth):
    features, labels, _ = _dataset(seed, n_samples, n_features)
    model = DecisionTreeClassifier(max_depth=depth, random_state=0)
    model.fit(features, labels)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    leaves = model.tree_.leaf_indices(queries)
    for index, row in enumerate(queries):
        assert leaves[index] == decision_path(model.tree_, row)[-1]


@pytest.mark.parametrize("degenerate", ["single_class", "constant_feature"])
def test_predict_batch_degenerate_corners(degenerate):
    features, labels, _ = _dataset(
        0, 12, 3,
        single_class=degenerate == "single_class",
        constant_feature=degenerate == "constant_feature")
    for family, factory in sorted(MODEL_FACTORIES.items()):
        model = factory(3)
        model.fit(features, labels)
        for fitted in _fitted_trees(model):
            batch = fitted.predict_batch(features)
            oracle = np.vstack([predict_value(fitted, row) for row in features])
            assert np.array_equal(batch, oracle), family


def test_flat_tree_mirrors_nodes_topologically():
    features, labels, _ = _dataset(3, 40, 4)
    model = DecisionTreeClassifier(max_depth=4, random_state=0)
    model.fit(features, labels)
    flat = model.tree_.flat
    assert isinstance(flat, FlatTree)
    assert not hasattr(model.tree_, "nodes")
    assert model.tree_.n_nodes == flat.n_nodes > 1
    for name in FLAT_ARRAYS:
        assert getattr(flat, name).shape[0] == flat.n_nodes, name
    split = flat.feature != LEAF
    index = np.arange(flat.n_nodes)
    # Children always sit at larger indices (topological order); the
    # vectorised SHAP sweep relies on this.
    assert np.all(flat.left[split] > index[split])
    assert np.all(flat.right[split] > index[split])
    assert np.all(flat.left[~split] == -1) and np.all(flat.right[~split] == -1)
    # Every node but the root is the child of exactly one split.
    children = np.sort(np.concatenate([flat.left[split], flat.right[split]]))
    assert np.array_equal(children, index[1:])


# ----------------------------------------------------------------------
# Oracle pair tree-shap-explain: explain_matrix (shap_block) vs
# explain_per_sample
# ----------------------------------------------------------------------
def _assert_explanations_identical(batch, other):
    assert np.array_equal(batch.shap_values, other.shap_values)
    assert batch.base_value == other.base_value
    assert batch.prediction == other.prediction
    assert np.array_equal(batch.data, other.data)


def _assert_matches_oracle(batch, oracle, atol=1e-10):
    np.testing.assert_allclose(batch.shap_values, oracle.shap_values,
                               rtol=0, atol=atol)
    assert batch.base_value == pytest.approx(oracle.base_value, rel=0,
                                             abs=atol)
    assert batch.prediction == pytest.approx(oracle.prediction, rel=0,
                                             abs=atol)
    assert np.array_equal(batch.data, oracle.data, equal_nan=True)


@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(2, 10),
       n_features=st.integers(2, 5))
def test_explain_matrix_matches_explain(family, seed, n_samples, n_features):
    features, labels, _ = _dataset(seed, 25, n_features)
    model = MODEL_FACTORIES[family](3).fit(features, labels)
    explainer = TreeShapExplainer(model)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    batch = explainer.explain_matrix(queries)
    assert len(batch) == n_samples
    for index, row in enumerate(queries):
        _assert_matches_oracle(batch[index],
                               explain_per_sample(explainer, row))


def test_explain_matrix_regressor_and_1d_input():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(40, 4))
    targets = features[:, 0] * 2.0 - features[:, 2]
    model = DecisionTreeRegressor(max_depth=4, random_state=0).fit(
        features, targets)
    explainer = TreeShapExplainer(model)
    row = rng.normal(size=4)
    batch = explainer.explain_matrix(row)
    assert len(batch) == 1
    _assert_matches_oracle(batch[0], explain_per_sample(explainer, row))


@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
def test_explain_is_one_row_of_explain_matrix(family):
    features, labels, _ = _dataset(11, 40, 4)
    model = MODEL_FACTORIES[family](3).fit(features, labels)
    explainer = TreeShapExplainer(model)
    assert explainer.base_value == pytest.approx(base_value(explainer),
                                                 rel=0, abs=1e-10)
    for row in features[:4]:
        explanation = explainer.explain(row)
        _assert_explanations_identical(
            explanation, explainer.explain_matrix(row[None])[0])
        _assert_matches_oracle(explanation,
                               explain_per_sample(explainer, row))


@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
def test_row_values_do_not_depend_on_the_batch(family):
    features, labels, _ = _dataset(13, 60, 4)
    model = MODEL_FACTORIES[family](4).fit(features, labels)
    explainer = TreeShapExplainer(model)
    whole = explainer.explain_matrix(features)
    order = np.random.default_rng(0).permutation(len(features))[:17]
    for index, explanation in zip(order,
                                  explainer.explain_matrix(features[order])):
        _assert_explanations_identical(whole[index], explanation)


def test_tree_splitting_on_thirteen_features_matches_the_oracle():
    # Past twelve split features a tree used to be explained by sampling
    # permutations; the leaf-path engine is exact at any width.
    # A staircase: level k has x_j = 1 for j < k, so only feature j
    # separates levels j and j + 1, and alternating labels need every
    # boundary.  Level k appears k + 1 times, giving uneven covers.
    levels = np.repeat(np.arange(14), np.arange(1, 15))
    features = (np.arange(13)[None, :] < levels[:, None]).astype(float)
    model = DecisionTreeClassifier(random_state=0).fit(features, levels % 2)
    flat = model.tree_.flat
    assert np.unique(flat.feature[flat.feature != LEAF]).size == 13
    explainer = TreeShapExplainer(model)
    queries = np.random.default_rng(4).uniform(-0.5, 1.5, size=(3, 13))
    for explanation, row in zip(explainer.explain_matrix(queries), queries):
        _assert_matches_oracle(explanation,
                               explain_per_sample(explainer, row))


@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
def test_infinite_and_nan_rows_match_the_oracle(family):
    # NaN fails every ``x <= threshold`` and goes right, as in the
    # oracle's walk; infinities route like any other value.
    features, labels, _ = _dataset(17, 40, 3)
    model = MODEL_FACTORIES[family](3).fit(features, labels)
    explainer = TreeShapExplainer(model)
    queries = np.array([[np.inf, -np.inf, np.nan],
                        [np.nan, np.nan, np.nan],
                        [-np.inf, 0.0, np.inf],
                        [np.nan, np.inf, -np.inf]])
    for explanation, row in zip(explainer.explain_matrix(queries), queries):
        _assert_matches_oracle(explanation,
                               explain_per_sample(explainer, row))
        assert explanation.additivity_gap < 1e-9


@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
def test_row_blocks_do_not_change_values(family):
    # Seven rows in blocks of three: two full blocks and a partial one.
    features, labels, _ = _dataset(19, 40, 4)
    model = MODEL_FACTORIES[family](3).fit(features, labels)
    whole = TreeShapExplainer(model).explain_matrix(features[:7])
    explainer = TreeShapExplainer(model)
    leaves = explainer._leaves
    leaves.rows_per_block = 3
    assert leaves.rows_per_block < len(whole)
    for explanation, blocked in zip(whole,
                                    explainer.explain_matrix(features[:7])):
        _assert_explanations_identical(explanation, blocked)


def test_split_between_equal_votes_gets_exact_zero():
    # (ones, zeros) per (x0, x1) cell: the tree splits on x0, then on x1
    # in both halves, but each half's leaves vote for the same class, so
    # AdaBoost's hard vote never depends on x1.  With these uneven covers,
    # explaining each leaf on its own leaves about 1e-17 of round-off on
    # x1; an equal-vote subtree is one leaf, whose x1 value is exactly 0.
    cells = {(0, 0): (1, 14), (0, 1): (1, 4), (1, 0): (3, 2), (1, 1): (12, 6)}
    rows, labels = [], []
    for (x0, x1), (ones, zeros) in cells.items():
        rows += [(x0, x1)] * (ones + zeros)
        labels += [1] * ones + [0] * zeros
    features = np.array(rows, dtype=float)
    model = AdaBoostClassifier(n_estimators=1, max_depth=2,
                               random_state=0).fit(features, labels)
    flat = model.estimators_[0].tree_.flat
    assert 1 in flat.feature.tolist()
    explainer = TreeShapExplainer(model)
    for explanation in explainer.explain_matrix(np.array(list(cells),
                                                         dtype=float)):
        assert explanation.shap_values[1] == 0.0
        assert explanation.shap_values[0] != 0.0
        assert explanation.additivity_gap < 1e-12


def test_explain_matrix_rejects_wrong_width():
    features, labels, _ = _dataset(0, 20, 3)
    model = DecisionTreeClassifier(max_depth=2, random_state=0).fit(
        features, labels)
    explainer = TreeShapExplainer(model)
    with pytest.raises(ValueError, match="does not match"):
        explainer.explain_matrix(np.zeros((2, 5)))


# ----------------------------------------------------------------------
# Oracle pair tree-split: presorted _best_split vs per-feature
# best_split_loop
# ----------------------------------------------------------------------
FLAT_ARRAYS = ("feature", "threshold", "left", "right", "value", "cover",
               "impurity")

SPLIT_FAMILIES = {
    "cart_gini": lambda depth, leaf, max_features, seed: DecisionTreeClassifier(
        max_depth=depth, min_samples_leaf=leaf, max_features=max_features,
        random_state=seed),
    "cart_mse": lambda depth, leaf, max_features, seed: DecisionTreeRegressor(
        max_depth=depth, min_samples_leaf=leaf, max_features=max_features,
        random_state=seed),
    "forest": lambda depth, leaf, max_features, seed: RandomForestClassifier(
        n_estimators=3, max_depth=depth, min_samples_leaf=leaf,
        max_features=max_features, random_state=seed),
    "adaboost": lambda depth, leaf, max_features, seed: AdaBoostClassifier(
        n_estimators=4, learning_rate=0.5, max_depth=depth, random_state=seed),
    "gboost": lambda depth, leaf, max_features, seed: GradientBoostingClassifier(
        n_estimators=4, learning_rate=0.3, max_depth=depth,
        min_samples_leaf=leaf, random_state=seed),
}


def _split_problem(family, seed, n_samples, n_features, n_classes, values,
                   weights, bootstrap):
    """Features, targets and sample weights for one builder/oracle fit."""
    rng = np.random.default_rng(seed)
    shape = (n_samples, n_features)
    if values == "grid":
        # Heavy ties, negatives and both signed zeros.
        features = rng.integers(-2, 3, size=shape) * 0.5
        features[features == 0] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[
            features == 0]
    elif values == "adjacent":
        # Adjacent floats whose midpoint rounds onto the upper value.
        lower = 636965317.7045811
        features = np.where(rng.random(shape) < 0.5, lower,
                            np.nextafter(lower, np.inf))
    else:
        features = rng.normal(size=shape)
    features[:, rng.integers(n_features)] = 1.5  # one constant column
    if family == "cart_mse":
        targets = np.round(rng.normal(size=n_samples), 1)
        targets[targets == 0] = -0.0
    else:
        targets = rng.integers(0, 2 if family == "gboost" else n_classes,
                               size=n_samples)
    sample_weight = None
    if weights != "none":
        sample_weight = rng.uniform(0.1, 2.0, size=n_samples)
        if weights == "zeros":
            sample_weight[rng.random(n_samples) < 0.3] = 0.0
            sample_weight[0] = 1.0
    if bootstrap:
        rows = rng.integers(0, n_samples, size=n_samples)
        features, targets = features[rows], targets[rows]
        if sample_weight is not None:
            sample_weight = sample_weight[rows]
            sample_weight[0] = 1.0
    return features, targets, sample_weight


def _split_rows_afresh(presorted, node, feature, threshold):
    """``_PresortedColumns.children`` without the memo: the child rows are
    the node's rows filtered by the split, and nothing else is derived."""
    left = presorted.columns[feature, node.rows] <= threshold
    return (_NodeEntry((), node.rows[left], None),
            _NodeEntry((), node.rows[~left], None))


def _fit_with_split_oracle(model, *args, **kwargs):
    """Fit ``model`` with every node searched by ``best_split_loop`` on
    rows split afresh, so a fault in the node memo cannot reach it.  A
    forest, which grows its trees in lockstep without ``_TreeBuilder``, is
    fitted one tree at a time by :func:`fit_forest_per_tree`."""
    if isinstance(model, RandomForestClassifier):
        return fit_forest_per_tree(model, *args, **kwargs)
    with mock.patch.object(_TreeBuilder, "_best_split", best_split_loop), \
            mock.patch.object(_PresortedColumns, "children",
                              _split_rows_afresh):
        return model.fit(*args, **kwargs)


_PRESORTED_SPLIT = _TreeBuilder._best_split


def _candidate_bits(candidate):
    if candidate is None:
        return None
    return (candidate.feature, np.float64(candidate.threshold).tobytes(),
            np.float64(candidate.score).tobytes())


def _paired_split(builder, node):
    """``_best_split`` that also searches the same node with the loop
    oracle and asserts both candidates match bit for bit, score included
    (a last-bit score slip rarely changes a tree, so compare it here)."""
    state = builder.rng.bit_generator.state
    oracle = best_split_loop(builder, node)
    builder.rng.bit_generator.state = state
    fast = _PRESORTED_SPLIT(builder, node)
    assert _candidate_bits(fast) == _candidate_bits(oracle)
    return fast


def _fit_paired(model, *args, **kwargs):
    if isinstance(model, RandomForestClassifier):
        return _fit_paired_lockstep(model, *args, **kwargs)
    with mock.patch.object(_TreeBuilder, "_best_split", _paired_split):
        return model.fit(*args, **kwargs)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _assert_same_fit(fast, oracle):
    fast_trees, oracle_trees = _fitted_trees(fast), _fitted_trees(oracle)
    assert len(fast_trees) == len(oracle_trees)
    for fast_tree, oracle_tree in zip(fast_trees, oracle_trees):
        for name in FLAT_ARRAYS:
            assert _same_bits(getattr(fast_tree.flat, name),
                              getattr(oracle_tree.flat, name)), name
    assert _same_bits(getattr(fast, "estimator_weights_", []),
                      getattr(oracle, "estimator_weights_", []))


@pytest.mark.parametrize("family", sorted(SPLIT_FAMILIES))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_samples=st.integers(2, 45),
       n_features=st.integers(1, 7), n_classes=st.sampled_from([2, 3, 9, 10]),
       values=st.sampled_from(["normal", "grid", "adjacent"]),
       weights=st.sampled_from(["none", "uniform", "zeros"]),
       bootstrap=st.booleans(), leaf=st.sampled_from([1, 2, 3, 5]),
       depth=st.sampled_from([None, 1, 2, 4]), subset=st.booleans())
def test_presorted_split_matches_loop_oracle(family, seed, n_samples,
                                             n_features, n_classes, values,
                                             weights, bootstrap, leaf, depth,
                                             subset):
    features, targets, sample_weight = _split_problem(
        family, seed, n_samples, n_features, n_classes, values, weights,
        bootstrap)
    max_features = 1 + seed % n_features if subset else None
    factory = SPLIT_FAMILIES[family]
    fast = _fit_paired(factory(depth, leaf, max_features, seed), features,
                       targets, sample_weight=sample_weight)
    oracle = _fit_with_split_oracle(
        factory(depth, leaf, max_features, seed), features, targets,
        sample_weight=sample_weight)
    _assert_same_fit(fast, oracle)


@pytest.mark.parametrize("family", sorted(SPLIT_FAMILIES))
def test_presorted_split_matches_loop_oracle_large_nodes(family):
    # 600 rows: the per-feature weight totals span several of numpy's
    # 128-element pairwise-summation blocks, which the small hypothesis
    # problems above never reach.
    features, targets, sample_weight = _split_problem(
        family, 11, 600, 12, 10, "grid", "zeros", bootstrap=True)
    features[:, 6:] = np.random.default_rng(12).normal(size=(600, 6))
    factory = SPLIT_FAMILIES[family]
    fast = _fit_paired(factory(4, 2, None, 5), features, targets,
                       sample_weight=sample_weight)
    oracle = _fit_with_split_oracle(factory(4, 2, None, 5), features, targets,
                                    sample_weight=sample_weight)
    _assert_same_fit(fast, oracle)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_presorted_split_matches_loop_oracle_on_overflowing_targets():
    # Squared targets overflow to inf, so every candidate scores inf or
    # NaN; both searches must give up on exactly the same nodes.
    rng = np.random.default_rng(3)
    features = rng.normal(size=(30, 4))
    targets = rng.normal(size=30)
    targets[::7] = 1e200
    fast = _fit_paired(DecisionTreeRegressor(), features, targets)
    oracle = _fit_with_split_oracle(DecisionTreeRegressor(), features, targets)
    _assert_same_fit(fast, oracle)


# ----------------------------------------------------------------------
# Oracle pair forest-lockstep: _fit_lockstep vs the per-tree
# DecisionTreeClassifier.fit with the loop split search
# ----------------------------------------------------------------------
def _tied_column(rng, kind, n_samples):
    """One feature column built to tie in the way ``kind`` names."""
    if kind == "grid":
        # An integer grid with negatives and both signed zeros.
        column = rng.integers(-2, 3, size=n_samples) * 1.0
        zeros = column == 0
        column[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    elif kind == "adjacent":
        # Adjacent floats whose midpoint rounds onto the upper value.
        lower = 636965317.7045811
        column = np.where(rng.random(n_samples) < 0.5, lower,
                          np.nextafter(lower, np.inf))
    elif kind == "tolerance":
        # Gaps of 1e-13 to 2e-12 on both sides of the 1e-12 tie tolerance
        # (from 0.0 the first gap is exact).
        gaps = rng.choice([1e-13, 5e-13, 9.9e-13, 1e-12, 1.01e-12, 1.5e-12,
                           2e-12], size=4)
        levels = rng.choice([0.0, 0.25]) + np.concatenate(
            ([0.0], np.cumsum(gaps)))
        column = levels[rng.integers(0, levels.size, size=n_samples)]
    else:
        # NaN and both infinities among a few finite values.
        column = rng.integers(-1, 2, size=n_samples) * 1.0
        draw = rng.random(n_samples)
        column[draw < 0.15] = np.nan
        column[(draw >= 0.15) & (draw < 0.25)] = np.inf
        column[(draw >= 0.25) & (draw < 0.35)] = -np.inf
    return column


def _lockstep_problem(seed, n_samples, n_features, n_classes, minority,
                      weighted):
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["grid", "adjacent", "tolerance", "nonfinite"],
                       size=n_features)
    features = np.column_stack([_tied_column(rng, kind, n_samples)
                                for kind in kinds])
    if minority:
        # One row of class 1 (and one of class 2): many bootstraps miss it.
        codes = np.zeros(n_samples, dtype=int)
        codes[rng.integers(n_samples)] = 1
        if n_classes > 2 and n_samples > 1:
            codes[rng.integers(n_samples)] = 2
    else:
        codes = rng.integers(0, n_classes, size=n_samples)
    # Unsorted, non-contiguous label values exercise classes_.
    labels = np.array([7, -1, 3, 10, 2, 5, 0, 8, 4])[codes]
    sample_weight = None
    if weighted:
        sample_weight = rng.uniform(0.1, 2.0, size=n_samples)
        sample_weight[rng.random(n_samples) < 0.3] = 0.0
        sample_weight[0] = 1.0
    return features, labels, sample_weight


_LOCKSTEP_SEARCH = _LockstepForest._search


def _fit_paired_lockstep(model, features, labels, sample_weight=None):
    """Fit ``model`` with every lockstep node search also run by
    ``best_split_loop`` on the node's drawn rows; feature, threshold and
    score must match bit for bit (a last-bit score slip rarely changes a
    tree, so compare it here)."""
    columns = np.ascontiguousarray(np.asarray(features, dtype=float).T)
    encoded = np.unique(labels, return_inverse=True)[1]

    def paired(grower, trees):
        results = _LOCKSTEP_SEARCH(grower, trees)
        for tree, result in zip(trees, results):
            pending = tree.searched
            drawn = grower.multiplicity[tree.index, pending.rows]
            classes = np.array(tree.classes)
            builder = _TreeBuilder("gini", None, 2, grower.min_samples_leaf,
                                   None, None)
            builder._columns = columns
            builder._targets = np.searchsorted(classes, encoded)
            builder._weights = np.full(encoded.size, grower.pairwise[1])
            builder._n_classes = classes.size
            node = _NodeEntry((), np.repeat(pending.rows, drawn), None)
            with mock.patch.object(builder, "_feature_subset",
                                   return_value=tree.features):
                oracle = best_split_loop(builder, node)
            fast = None if result is None else _SplitCandidate(
                result[1], result[2], result[0])
            assert _candidate_bits(fast) == _candidate_bits(oracle)
        return results

    with mock.patch.object(_LockstepForest, "_search", paired):
        return model.fit(features, labels, sample_weight=sample_weight)


def _assert_same_forest(fast, oracle, features):
    _assert_same_fit(fast, oracle)
    assert _same_bits(fast.classes_, oracle.classes_)
    for fast_tree, oracle_tree in zip(fast.estimators_, oracle.estimators_):
        assert _same_bits(fast_tree.classes_, oracle_tree.classes_)
        assert fast_tree.n_features_ == oracle_tree.n_features_
    queries = np.vstack([features, np.random.default_rng(0).normal(
        size=features.shape)])
    assert _same_bits(fast.predict_proba(queries),
                      oracle.predict_proba(queries))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_samples=st.integers(1, 40),
       n_features=st.integers(1, 6), n_classes=st.sampled_from([2, 3, 9]),
       minority=st.booleans(), weighted=st.booleans(),
       leaf=st.integers(1, 3), depth=st.sampled_from([None, 2, 5]),
       n_trees=st.integers(1, 8),
       max_features=st.sampled_from(["sqrt", "some", "all"]))
def test_lockstep_forest_matches_per_tree_oracle(seed, n_samples, n_features,
                                                 n_classes, minority,
                                                 weighted, leaf, depth,
                                                 n_trees, max_features):
    features, labels, sample_weight = _lockstep_problem(
        seed, n_samples, n_features, n_classes, minority, weighted)
    subset = {"sqrt": None, "some": 1 + seed % n_features,
              "all": n_features}[max_features]

    def forest():
        return RandomForestClassifier(
            n_estimators=n_trees, max_depth=depth, min_samples_leaf=leaf,
            max_features=subset, random_state=seed)

    fast = _fit_paired_lockstep(forest(), features, labels,
                                sample_weight=sample_weight)
    oracle = fit_forest_per_tree(forest(), features, labels,
                                 sample_weight=sample_weight)
    _assert_same_forest(fast, oracle, features)


def test_lockstep_forest_matches_oracle_when_bootstraps_miss_a_class():
    features, labels, _ = _lockstep_problem(31, 24, 4, 3, minority=True,
                                            weighted=False)

    def forest():
        return RandomForestClassifier(n_estimators=8, max_depth=5,
                                      max_features=2, random_state=4)

    fast = _fit_paired_lockstep(forest(), features, labels)
    widths = {tree.classes_.size for tree in fast.estimators_}
    assert min(widths) < fast.classes_.size == max(widths)
    _assert_same_forest(fast, fit_forest_per_tree(forest(), features, labels),
                        features)


def test_forest_fits_through_lockstep_only():
    features, labels, _ = _dataset(5, 60, 4)
    with mock.patch("repro.ml.forest._fit_lockstep",
                    wraps=_fit_lockstep) as lockstep, \
            mock.patch.object(_TreeBuilder, "build",
                              side_effect=AssertionError("per-tree build")):
        RandomForestClassifier(n_estimators=3, random_state=0).fit(
            features, labels)
    assert lockstep.call_count == 1


def test_lockstep_rejects_trees_with_different_settings():
    features, labels, _ = _dataset(6, 20, 3)
    trees = [DecisionTreeClassifier(max_depth=depth) for depth in (2, 3)]
    with pytest.raises(ValueError, match="share their growth settings"):
        _fit_lockstep(trees, features, labels,
                      np.zeros((2, 20), dtype=int))


# ----------------------------------------------------------------------
# tree-split under node-memo reuse: low-learning-rate boosting rounds
# regrow the same nodes from one shared _PresortedColumns
# ----------------------------------------------------------------------
MEMO_FAMILIES = {
    "adaboost": lambda: AdaBoostClassifier(
        n_estimators=30, learning_rate=0.01, max_depth=2, random_state=4),
    "gboost": lambda: GradientBoostingClassifier(
        n_estimators=30, learning_rate=0.01, max_depth=3,
        min_samples_leaf=2, random_state=4),
}


def _fit_paired_counting_hits(model, *args, **kwargs):
    """:func:`_fit_paired`, also counting the searches whose node already
    had its candidate scan cached by an earlier round."""
    hits = []

    def paired(builder, node):
        hits.append(node.scan is not None)
        return _paired_split(builder, node)

    with mock.patch.object(_TreeBuilder, "_best_split", paired):
        model.fit(*args, **kwargs)
    return sum(hits)


@pytest.mark.parametrize("weights", ["none", "zeros"])
# The ids keep their "-1.0" suffix (every round fits all rows) so the
# cases stay comparable with earlier runs of this test.
@pytest.mark.parametrize("family", [pytest.param("adaboost", id="adaboost-1.0"),
                                    pytest.param("gboost", id="gboost-1.0")])
def test_memo_reuse_matches_loop_oracle(family, weights):
    features, targets, sample_weight = _split_problem(
        "gboost", 21, 240, 8, 2, "grid", weights, bootstrap=False)
    factory = MEMO_FAMILIES[family]
    fast = factory()
    hits = _fit_paired_counting_hits(fast, features, targets,
                                     sample_weight=sample_weight)
    assert hits > 0
    oracle = _fit_with_split_oracle(factory(), features, targets,
                                    sample_weight=sample_weight)
    _assert_same_fit(fast, oracle)


def test_shared_memo_serves_feature_subsets():
    # No ensemble shares a presort across trees that draw feature subsets,
    # but the memo must still serve its cached all-features scan to
    # all-features searches only.
    features, targets, sample_weight = _split_problem(
        "cart_gini", 23, 150, 9, 3, "grid", "zeros", bootstrap=False)

    def tree(seed):
        return DecisionTreeClassifier(
            max_depth=3, max_features=None if seed % 2 else 4,
            random_state=seed)

    presorted = _PresortedColumns(features, 1, shared=True)
    with mock.patch.object(_TreeBuilder, "_best_split", _paired_split):
        fast = [tree(seed)._fit_presorted(presorted, targets, sample_weight)
                for seed in range(6)]
    for seed, fitted in enumerate(fast):
        oracle = _fit_with_split_oracle(tree(seed), features, targets,
                                        sample_weight=sample_weight)
        _assert_same_fit(fitted, oracle)


@pytest.mark.parametrize("family", sorted(MEMO_FAMILIES))
def test_fitted_ensemble_keeps_no_presorted_columns(family):
    features, targets, _ = _split_problem("gboost", 22, 120, 5, 2, "grid",
                                          "none", bootstrap=False)
    model = MEMO_FAMILIES[family]().fit(features, targets)
    blob = pickle.dumps(model)
    for name in (b"_PresortedColumns", b"_NodeEntry", b"_Scan"):
        assert name not in blob
    assert pickle.loads(blob).predict(features).tolist() == \
        model.predict(features).tolist()
    # Nothing else keeps the memo alive once ``fit`` has returned.
    gc.collect()
    assert not any(isinstance(obj, _PresortedColumns)
                   for obj in gc.get_objects())


# ----------------------------------------------------------------------
# Oracle pair boosting-fixed-weights: rounds on the fit's fixed-weight
# presort (_fit_fixed_weights) vs DecisionTreeRegressor.fit per round
# ----------------------------------------------------------------------
class _RoundInputs:
    """Stands in for gradient boosting's presort: keeps the matrix and the
    weights the fit hands it, and presorts nothing."""

    def __init__(self, features, min_samples_leaf, shared=False,
                 weights=None):
        self.features = features
        self.sample_weight = weights


def _fit_round_alone(tree, presorted, targets):
    return tree.fit(presorted.features, targets,
                    sample_weight=presorted.sample_weight)


def _fit_boosting_per_round(model, *args, **kwargs):
    """Fit ``model`` with every round's tree fitted by
    ``DecisionTreeRegressor.fit`` on the round's gradient and the fit's
    weights: no presort, memo or weight cache outlives a round."""
    with mock.patch("repro.ml.gradient_boosting._PresortedColumns",
                    _RoundInputs), \
            mock.patch.object(DecisionTreeRegressor, "_fit_fixed_weights",
                              _fit_round_alone):
        return model.fit(*args, **kwargs)


def _assert_same_boosting(fast, oracle):
    """Every ``FlatTree`` array (node impurity, cover and value included)
    and ``initial_score_`` bitwise equal."""
    assert _same_bits(np.float64(fast.initial_score_),
                      np.float64(oracle.initial_score_))
    _assert_same_fit(fast, oracle)


def _weight_cache_hits(model, *args, **kwargs):
    """Fit ``model``, counting the searches served cached candidate
    weights by an earlier round."""
    hits = []
    original = _TreeBuilder._candidate_weights

    def counting(builder, node, scan, order):
        hits.append(node.candidate_weights is not None)
        return original(builder, node, scan, order)

    with mock.patch.object(_TreeBuilder, "_candidate_weights", counting):
        model.fit(*args, **kwargs)
    return sum(hits)


def _paper_cognition(seed):
    """The train flow's config, cognition matrix, labels and class
    weights at ``seed``."""
    from dataclasses import replace

    from repro.core import generate_cognition, paper_configuration
    from repro.core.cognition import _class_weights
    from repro.workloads import WorkloadConfig, training_designs

    config = paper_configuration()
    config = replace(config, tvla=replace(config.tvla, seed=seed))
    dataset, _ = generate_cognition(
        training_designs(WorkloadConfig(scale=1.0, seed=seed)), config)
    return (config, dataset.features, dataset.labels,
            _class_weights(dataset.labels))


@pytest.mark.parametrize("seed", [1, 3])
def test_fixed_weight_boosting_matches_per_round_fit_on_paper_cognition(
        seed):
    from repro.core.cognition import build_model

    config, features, labels, weights = _paper_cognition(seed)

    def model():
        return build_model(config.with_model("xgboost").model)

    fast = model()
    assert _weight_cache_hits(fast, features, labels,
                              sample_weight=weights) > 0
    oracle = _fit_boosting_per_round(model(), features, labels,
                                     sample_weight=weights)
    _assert_same_boosting(fast, oracle)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_samples=st.integers(2, 60),
       n_features=st.integers(1, 6), leaf=st.integers(1, 3),
       depth=st.integers(1, 4), weights=st.sampled_from(["zeros", "none"]),
       learning_rate=st.sampled_from([0.01, 0.3]))
def test_fixed_weight_boosting_matches_per_round_fit(
        seed, n_samples, n_features, leaf, depth, weights, learning_rate):
    features, labels, sample_weight = _split_problem(
        "gboost", seed, n_samples, n_features, 2, "grid", weights,
        bootstrap=False)

    def model():
        return GradientBoostingClassifier(
            n_estimators=6, learning_rate=learning_rate, max_depth=depth,
            min_samples_leaf=leaf, random_state=seed)

    fast = model().fit(features, labels, sample_weight=sample_weight)
    oracle = _fit_boosting_per_round(model(), features, labels,
                                     sample_weight=sample_weight)
    _assert_same_boosting(fast, oracle)


@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(1, 3000),
       zeros=st.booleans())
def test_node_stats_match_np_average(seed, n_samples, zeros):
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=n_samples) * 10.0 ** rng.integers(-3, 4)
    weights = rng.uniform(0.0, 2.0, size=n_samples)
    if zeros:
        weights[rng.random(n_samples) < 0.5] = 0.0
        weights[0] = 0.25
    builder = _TreeBuilder("mse", None, 2, 1, None, None)
    builder._n_classes = 1
    value, impurity = builder._node_stats(targets, weights, weights.sum())
    mean = np.average(targets, weights=weights)
    assert _same_bits(value, np.array([float(mean)]))
    assert _same_bits(np.float64(impurity), np.float64(
        np.average((targets - mean) ** 2, weights=weights)))


def test_weight_cache_belongs_to_the_presort_weights():
    # A shared presort that served one weight vector must not hand its
    # cached weight state to a tree fitted with another.
    features, targets, first = _split_problem(
        "cart_mse", 31, 150, 6, 2, "grid", "zeros", bootstrap=False)
    second = np.roll(first, 37) + np.linspace(0.0, 3.0, first.size)

    def tree():
        return DecisionTreeRegressor(max_depth=3, min_samples_leaf=2)

    presorted = _PresortedColumns(features, 2, shared=True, weights=first)
    assert not presorted.weights.flags.writeable
    cached = tree()._fit_fixed_weights(presorted, targets)
    assert presorted.root.candidate_weights is not None
    other = tree()._fit_presorted(presorted, targets, sample_weight=second)
    # Equal contents, another array: validated anew, so no cache either.
    copy = presorted.weights.copy()
    copied = tree()._fit_presorted(presorted, targets, sample_weight=copy)
    again = tree()._fit_fixed_weights(presorted, targets)
    oracle_first = tree().fit(features, targets, sample_weight=first)
    for fitted, oracle in (
            (cached, oracle_first), (again, oracle_first),
            (other, tree().fit(features, targets, sample_weight=second)),
            (copied, tree().fit(features, targets, sample_weight=copy))):
        _assert_same_fit(fitted, oracle)
    # The second vector really grows another tree, from the root on.
    assert not _same_bits(other.tree_.flat.value[:1],
                          cached.tree_.flat.value[:1])
    # Trees that draw feature subsets search their own candidates, never
    # the cached ones of the all-features scan.
    for seed in range(6):
        def subset_tree():
            return DecisionTreeRegressor(
                max_depth=3, min_samples_leaf=2,
                max_features=None if seed % 2 else 3, random_state=seed)

        _assert_same_fit(
            subset_tree()._fit_fixed_weights(presorted, targets),
            subset_tree().fit(features, targets, sample_weight=first))
    with pytest.raises(ValueError, match="no fixed weights"):
        tree()._fit_fixed_weights(_PresortedColumns(features, 2, shared=True),
                                  targets)


def test_weight_cache_holds_no_feature_by_row_array():
    features, labels, sample_weight = _split_problem(
        "gboost", 32, 400, 60, 2, "grid", "zeros", bootstrap=False)
    kept = []

    class Keeping(_PresortedColumns):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kept.append(self)

    model = GradientBoostingClassifier(n_estimators=30, learning_rate=0.01,
                                       max_depth=3, random_state=5)
    with mock.patch("repro.ml.gradient_boosting._PresortedColumns",
                    Keeping):
        tracemalloc.start()
        try:
            model.fit(features, labels, sample_weight=sample_weight)
            held = tracemalloc.get_traced_memory()[0]
            entries = [kept[0].root, *kept[0].memo.values()]
            for entry in entries:
                # Only the int32 orders are (features, rows).
                for name, value in vars(entry).items():
                    for array in (value if isinstance(value, tuple)
                                  else (value,)):
                        if name not in ("order", "parent_order") \
                                and isinstance(array, np.ndarray):
                            assert array.ndim == 1, name
                entry.weights = entry.total_weight = None
                entry.candidate_weights = None
            gc.collect()
            cache_bytes = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    # Caching each searched node's sorted weights, a (features, rows)
    # float matrix, would take eight bytes per entry of its int32 order.
    sorted_weight_bytes = sum(entry.order.size * 8 for entry in entries
                              if entry.order is not None)
    assert 0 < cache_bytes < sorted_weight_bytes / 4, (cache_bytes,
                                                        sorted_weight_bytes)
