"""Bit-identity properties: flat-array fast paths vs their per-sample oracles.

These tests pin the oracle pairs registered in
``tools/polaris_lint/contracts.py`` (rule PL002):

- ``tree-predict``: ``FlatTree``-based ``predict_batch`` /
  ``leaf_indices`` vs the recursive ``predict_value`` / ``decision_path``
  node walk.
- ``tree-shap-expectation``: the bottom-up ``expectation_batch`` sweep vs
  the recursive ``expectation`` oracle.
- ``tree-shap-explain``: the batched ``explain_matrix`` vs per-sample
  ``explain``.
- ``tree-split``: the presorted all-features ``_best_split`` vs the
  per-feature ``_best_split_loop`` (whole fits compared, every family).

Every assertion is *bitwise* (``np.array_equal`` / ``==`` on floats is
deliberate here): the vectorised paths are required to reproduce the
oracle exactly, not approximately, so the hybrid per-sample/batched code
paths can never disagree.
"""

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
from repro.ml.tree import _TreeBuilder
from repro.xai.tree_shap import TreeShapExplainer, _extract_trees

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
        oracle = np.vstack([fitted.predict_value(row) for row in queries])
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
    oracle = np.vstack([model.tree_.predict_value(row) for row in queries])
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
        assert leaves[index] == model.tree_.decision_path(row)[-1]


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
            oracle = np.vstack([fitted.predict_value(row) for row in features])
            assert np.array_equal(batch, oracle), family


def test_flat_tree_mirrors_nodes_topologically():
    features, labels, _ = _dataset(3, 40, 4)
    model = DecisionTreeClassifier(max_depth=4, random_state=0)
    model.fit(features, labels)
    flat = model.tree_.flat
    nodes = model.tree_.nodes
    assert isinstance(flat, FlatTree)
    assert flat.n_nodes == len(nodes)
    for index, node in enumerate(nodes):
        assert flat.feature[index] == node.feature
        assert np.array_equal(flat.value[index], node.value)
        if node.feature != LEAF:
            # Children always sit at larger indices (topological order);
            # the vectorised SHAP sweep relies on this.
            assert node.left > index and node.right > index
            assert flat.left[index] == node.left
            assert flat.right[index] == node.right


# ----------------------------------------------------------------------
# Oracle pair tree-shap-expectation: expectation_batch vs expectation
# ----------------------------------------------------------------------
@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(3, 20),
       n_features=st.integers(2, 5), known_seed=st.integers(0, 100))
def test_expectation_batch_matches_expectation(seed, n_samples, n_features,
                                               known_seed):
    features, labels, _ = _dataset(seed, max(n_samples, 8), n_features)
    model = RandomForestClassifier(n_estimators=3, max_depth=3,
                                   random_state=0).fit(features, labels)
    trees, _, _ = _extract_trees(model)
    known_rng = np.random.default_rng(known_seed)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    for tree in trees:
        n_known = int(known_rng.integers(0, n_features + 1))
        known = frozenset(
            int(f) for f in known_rng.choice(n_features, size=n_known,
                                             replace=False))
        batch = tree.expectation_batch(queries, known)
        for index, row in enumerate(queries):
            assert batch[index] == tree.expectation(row, known)


# ----------------------------------------------------------------------
# Oracle pair tree-shap-explain: explain_matrix vs explain
# ----------------------------------------------------------------------
def _assert_explanations_identical(batch, oracle):
    assert np.array_equal(batch.shap_values, oracle.shap_values)
    assert batch.base_value == oracle.base_value
    assert batch.prediction == oracle.prediction
    assert np.array_equal(batch.data, oracle.data)


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
        _assert_explanations_identical(batch[index], explainer.explain(row))


@SETTINGS
@given(seed=st.integers(0, 10_000), n_features=st.integers(2, 4))
def test_explain_matrix_matches_explain_sampled_fallback(seed, n_features):
    features, labels, _ = _dataset(seed, 30, n_features)
    model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(
        features, labels)
    # max_exact_features=1 forces the permutation-sampling path whenever a
    # tree splits on more than one feature.
    explainer = TreeShapExplainer(model, max_exact_features=1,
                                  n_permutations=12, seed=7)
    queries = np.random.default_rng(seed + 1).normal(size=(6, n_features))
    batch = explainer.explain_matrix(queries)
    for index, row in enumerate(queries):
        _assert_explanations_identical(batch[index], explainer.explain(row))


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
    _assert_explanations_identical(batch[0], explainer.explain(row))


def test_explain_matrix_rejects_wrong_width():
    features, labels, _ = _dataset(0, 20, 3)
    model = DecisionTreeClassifier(max_depth=2, random_state=0).fit(
        features, labels)
    explainer = TreeShapExplainer(model)
    with pytest.raises(ValueError, match="does not match"):
        explainer.explain_matrix(np.zeros((2, 5)))


# ----------------------------------------------------------------------
# Oracle pair tree-split: presorted _best_split vs per-feature
# _best_split_loop
# ----------------------------------------------------------------------
FLAT_ARRAYS = ("feature", "threshold", "left", "right", "value", "cover")

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
        subsample=0.7 if seed % 2 else 1.0, min_samples_leaf=leaf,
        random_state=seed),
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


def _fit_with_split_oracle(model, *args, **kwargs):
    """Fit ``model`` with every node searched by ``_best_split_loop``."""
    with mock.patch.object(_TreeBuilder, "_best_split",
                           _TreeBuilder._best_split_loop):
        return model.fit(*args, **kwargs)


_PRESORTED_SPLIT = _TreeBuilder._best_split


def _candidate_bits(candidate):
    if candidate is None:
        return None
    return (candidate.feature, np.float64(candidate.threshold).tobytes(),
            np.float64(candidate.score).tobytes())


def _paired_split(builder, rows, order):
    """``_best_split`` that also searches the same node with the loop
    oracle and asserts both candidates match bit for bit, score included
    (a last-bit score slip rarely changes a tree, so compare it here)."""
    state = builder.rng.bit_generator.state
    oracle = _TreeBuilder._best_split_loop(builder, rows, order)
    builder.rng.bit_generator.state = state
    fast = _PRESORTED_SPLIT(builder, rows, order)
    assert _candidate_bits(fast) == _candidate_bits(oracle)
    return fast


def _fit_paired(model, *args, **kwargs):
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
