"""Tests for the CART decision trees (classifier and regressor)."""

import hashlib

import numpy as np
import pytest

from oracles.tree import decision_path
from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    LEAF,
    NotFittedError,
    RandomForestClassifier,
)


def _xor_dataset(rng, n=400):
    features = rng.integers(0, 2, size=(n, 2)).astype(float)
    labels = (features[:, 0].astype(int) ^ features[:, 1].astype(int))
    return features, labels


class TestDecisionTreeClassifier:
    def test_learns_xor(self, rng):
        features, labels = _xor_dataset(rng)
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert tree.score(features, labels) == 1.0

    def test_predict_proba_rows_sum_to_one(self, rng):
        features = rng.normal(size=(200, 5))
        labels = (features[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        proba = tree.predict_proba(features)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert proba.shape == (200, 2)

    def test_max_depth_respected(self, rng):
        features = rng.normal(size=(300, 6))
        labels = (features[:, 0] * features[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        assert tree.tree_.max_depth <= 2

    def test_min_samples_leaf_respected(self, rng):
        features = rng.normal(size=(100, 3))
        labels = (features[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(features, labels)
        flat = tree.tree_.flat
        leaf_covers = flat.cover[flat.feature == LEAF]
        assert min(leaf_covers) * 100 >= 20 - 1e-9  # weights are normalised

    def test_min_samples_leaf_does_not_discard_feature(self):
        # Regression: when a feature's *best* split violated
        # min_samples_leaf, the whole feature was silently skipped even
        # though a slightly worse split on it was legal.  Here the optimal
        # split (x <= 0.5) strands one sample, but x <= 1.5 still reduces
        # impurity and must be chosen instead of growing no tree at all.
        features = np.arange(8, dtype=float).reshape(-1, 1)
        labels = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        tree = DecisionTreeClassifier(min_samples_leaf=2).fit(features, labels)
        assert tree.tree_.n_nodes == 3
        assert tree.tree_.flat.threshold[0] == pytest.approx(1.5)

    def test_pure_node_becomes_leaf(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([1, 1, 1, 1])
        tree = DecisionTreeClassifier().fit(features, labels)
        assert tree.tree_.n_nodes == 1
        assert tree.tree_.flat.feature[0] == LEAF

    def test_sample_weight_changes_decision(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        # Heavily weight the first sample as class 1 -> prediction shifts.
        weights = np.array([10.0, 0.1, 0.1, 0.1])
        tree = DecisionTreeClassifier(max_depth=1).fit(
            features, np.array([1, 0, 1, 1]), sample_weight=weights)
        assert tree.predict(np.array([[0.0]]))[0] == 1

    def test_feature_importances_sum_to_one(self, rng):
        features = rng.normal(size=(300, 4))
        labels = (features[:, 2] > 0.3).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        importances = tree.feature_importances_
        assert importances.sum() == pytest.approx(1.0)
        assert importances.argmax() == 2

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict_proba(np.zeros((1, 2)))

    def test_non_binary_labels_supported(self, rng):
        features = rng.normal(size=(300, 2))
        labels = np.digitize(features[:, 0], [-0.5, 0.5])
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert set(np.unique(tree.predict(features))) <= {0, 1, 2}
        assert tree.score(features, labels) > 0.9

    def test_decision_path_starts_at_root_ends_at_leaf(self, rng):
        features, labels = _xor_dataset(rng)
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        path = decision_path(tree.tree_, features[0])
        assert path[0] == 0
        assert tree.tree_.flat.feature[path[-1]] == LEAF


class TestDecisionTreeRegressor:
    def test_fits_piecewise_constant_target(self, rng):
        features = rng.uniform(-1, 1, size=(500, 1))
        targets = np.where(features[:, 0] > 0, 2.0, -1.0)
        reg = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        predictions = reg.predict(features)
        assert np.abs(predictions - targets).max() < 0.2

    def test_reduces_error_with_depth(self, rng):
        features = rng.uniform(-2, 2, size=(600, 2))
        targets = features[:, 0] ** 2 + features[:, 1]
        shallow = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        deep = DecisionTreeRegressor(max_depth=6).fit(features, targets)
        err_shallow = np.mean((shallow.predict(features) - targets) ** 2)
        err_deep = np.mean((deep.predict(features) - targets) ** 2)
        assert err_deep < err_shallow

    def test_target_shape_validated(self, rng):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(rng.normal(size=(10, 2)), np.zeros(5))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_feature_importances_identify_informative_column(self, rng):
        features = rng.normal(size=(400, 3))
        targets = 3.0 * features[:, 1]
        reg = DecisionTreeRegressor(max_depth=4).fit(features, targets)
        assert reg.feature_importances_.argmax() == 1


@pytest.mark.parametrize("model", [DecisionTreeClassifier,
                                   DecisionTreeRegressor])
def test_adjacent_float_split_keeps_the_threshold_below_upper(model):
    # Regression: 0.5 * (a + b) rounds onto b for adjacent floats more
    # than 1e-12 apart, so every sample went left and the same node was
    # split again until RecursionError.  The threshold falls back to a.
    lower = 636965317.7045811
    upper = np.nextafter(lower, np.inf)
    features = np.array([[lower], [lower], [upper], [upper]])
    tree = model().fit(features, np.array([0, 0, 1, 1]))
    assert tree.tree_.n_nodes == 3
    assert tree.tree_.flat.threshold[0] == lower
    np.testing.assert_array_equal(
        tree.predict(np.array([[lower], [upper]])).ravel(), [0, 1])


@pytest.mark.parametrize("model", [DecisionTreeClassifier,
                                   DecisionTreeRegressor])
@pytest.mark.parametrize("max_features", [0, -1])
def test_max_features_below_one_rejected(model, max_features):
    # Regression: 0 scanned no feature and fitted a root-only tree; -1
    # failed inside fit with numpy's "negative dimensions are not allowed".
    with pytest.raises(ValueError, match="max_features"):
        model(max_features=max_features)


@pytest.mark.parametrize("model", [DecisionTreeClassifier,
                                   DecisionTreeRegressor])
def test_fit_on_empty_matrix_raises_value_error(model):
    # Regression: the uniform sample weights divided by zero rows and
    # raised a bare ZeroDivisionError.
    with pytest.raises(ValueError, match="empty feature matrix"):
        model().fit(np.zeros((0, 3)), np.zeros(0))


def test_predict_on_zero_rows_keeps_the_output_width(rng):
    features = rng.normal(size=(40, 3))
    labels = np.digitize(features[:, 0], [-0.5, 0.5])
    tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
    assert tree.predict_proba(np.zeros((0, 3))).shape == (0, 3)
    reg = DecisionTreeRegressor(max_depth=3).fit(features, features[:, 1])
    assert reg.predict(np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("model", [DecisionTreeClassifier,
                                   DecisionTreeRegressor])
def test_infinite_split_keeps_both_sides(model):
    # Regression: the midpoint of -inf and inf is NaN, so ``x <= NaN``
    # sent every sample right, leaving an empty left leaf and a right
    # child that repeated its parent.  The threshold falls back to -inf.
    features = np.array([[-np.inf], [-np.inf], [np.inf], [np.inf]])
    tree = model().fit(features, np.array([0, 0, 1, 1]))
    assert tree.tree_.n_nodes == 3
    assert tree.tree_.flat.threshold[0] == -np.inf
    np.testing.assert_array_equal(
        tree.predict(np.array([[-np.inf], [np.inf]])).ravel(), [0, 1])


#: sha256 prefixes of ``feature_importances_.tobytes()`` for the fits in
#: :func:`test_feature_importances_are_pinned`.
PINNED_IMPORTANCES = {
    "tree": "b75df38e35726a2f",
    "regressor": "86ead44cfb96e9a7",
    "random_forest": "830f2349d6cba985",
    "adaboost": "5e03dcd44fcc550a",
    "gradient_boosting": "f06334554a5a9a87",
}


@pytest.mark.parametrize("family", sorted(PINNED_IMPORTANCES))
def test_feature_importances_are_pinned(family):
    # The importances sum each split's gain into its feature in node
    # index order; any reordering of those float additions changes bits.
    rng = np.random.default_rng(2024)
    features = rng.normal(size=(160, 6))
    features[:, 5] = np.round(features[:, 5])
    labels = (features[:, 0] + 0.5 * features[:, 1] * features[:, 2]
              + 0.3 * rng.normal(size=160) > 0).astype(int)
    model, target = {
        "tree": (DecisionTreeClassifier(max_depth=6, random_state=1), labels),
        "regressor": (DecisionTreeRegressor(max_depth=5, random_state=1),
                      features[:, 0] * 2 - features[:, 3]),
        "random_forest": (RandomForestClassifier(
            n_estimators=12, max_depth=5, max_features=3, random_state=3),
            labels),
        "adaboost": (AdaBoostClassifier(n_estimators=20, learning_rate=0.5,
                                        max_depth=2, random_state=3), labels),
        "gradient_boosting": (GradientBoostingClassifier(
            n_estimators=20, learning_rate=0.1, max_depth=3, random_state=3),
            labels),
    }[family]
    importances = model.fit(features, target).feature_importances_
    assert np.count_nonzero(importances) >= 2
    digest = hashlib.sha256(importances.tobytes()).hexdigest()[:16]
    assert digest == PINNED_IMPORTANCES[family]
