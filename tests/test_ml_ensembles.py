"""Tests for the ensemble models: Random Forest, AdaBoost, gradient boosting."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    NotFittedError,
    RandomForestClassifier,
    accuracy_score,
    roc_auc_score,
)


@pytest.fixture
def nonlinear_data(rng):
    features = rng.normal(size=(600, 6))
    labels = (((features[:, 0] > 0) & (features[:, 1] < 0.5))
              | (features[:, 2] * features[:, 3] > 0.4)).astype(int)
    split = 450
    return (features[:split], labels[:split], features[split:], labels[split:])


class TestRandomForest:
    def test_beats_chance_on_nonlinear_data(self, nonlinear_data):
        Xtr, ytr, Xte, yte = nonlinear_data
        model = RandomForestClassifier(n_estimators=25, max_depth=7,
                                       random_state=1).fit(Xtr, ytr)
        assert accuracy_score(yte, model.predict(Xte)) > 0.8

    def test_probabilities_valid(self, nonlinear_data):
        Xtr, ytr, Xte, _ = nonlinear_data
        model = RandomForestClassifier(n_estimators=10, max_depth=5).fit(Xtr, ytr)
        proba = model.predict_proba(Xte)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_deterministic_given_seed(self, nonlinear_data):
        Xtr, ytr, Xte, _ = nonlinear_data
        a = RandomForestClassifier(n_estimators=8, random_state=3).fit(Xtr, ytr)
        b = RandomForestClassifier(n_estimators=8, random_state=3).fit(Xtr, ytr)
        np.testing.assert_allclose(a.predict_proba(Xte), b.predict_proba(Xte))

    def test_feature_importances_shape(self, nonlinear_data):
        Xtr, ytr, _, _ = nonlinear_data
        model = RandomForestClassifier(n_estimators=5, max_depth=4).fit(Xtr, ytr)
        assert model.feature_importances_.shape == (Xtr.shape[1],)

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_single_class_fit_has_zero_importances(self, rng):
        features = rng.normal(size=(20, 3))
        model = RandomForestClassifier(n_estimators=3).fit(
            features, np.ones(20, dtype=int))
        assert np.array_equal(model.feature_importances_, np.zeros(3))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(np.zeros((1, 3)))

    def test_zero_sum_sample_weight_rejected(self, nonlinear_data):
        # Regression: all-zero weights used to propagate NaN bootstrap
        # probabilities into rng.choice instead of failing loudly.
        Xtr, ytr, _, _ = nonlinear_data
        with pytest.raises(ValueError, match="sample_weight"):
            RandomForestClassifier(n_estimators=3).fit(
                Xtr, ytr, sample_weight=np.zeros(len(ytr)))

    def test_negative_sample_weight_rejected(self, nonlinear_data):
        Xtr, ytr, _, _ = nonlinear_data
        weights = np.ones(len(ytr))
        weights[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            RandomForestClassifier(n_estimators=3).fit(
                Xtr, ytr, sample_weight=weights)

    @pytest.mark.parametrize("max_features", [0, -1])
    def test_max_features_below_one_rejected(self, max_features):
        # Regression: 0 fitted root-only trees (accuracy 0.5 on a separable
        # set); -1 failed inside fit with numpy's "negative dimensions".
        with pytest.raises(ValueError, match="max_features"):
            RandomForestClassifier(max_features=max_features)

    def test_fit_on_empty_matrix_raises_value_error(self):
        # Regression: a bare ZeroDivisionError from the uniform weights.
        with pytest.raises(ValueError, match="empty feature matrix"):
            RandomForestClassifier(n_estimators=2).fit(
                np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_predict_proba_on_zero_rows(self, nonlinear_data):
        Xtr, ytr, _, _ = nonlinear_data
        model = RandomForestClassifier(n_estimators=3, max_depth=3).fit(
            Xtr, ytr)
        assert model.predict_proba(np.zeros((0, Xtr.shape[1]))).shape == (0, 2)


class TestAdaBoost:
    def test_boosting_improves_over_single_stump(self, nonlinear_data):
        Xtr, ytr, Xte, yte = nonlinear_data
        stump = AdaBoostClassifier(n_estimators=1, learning_rate=1.0,
                                   max_depth=1).fit(Xtr, ytr)
        boosted = AdaBoostClassifier(n_estimators=80, learning_rate=0.5,
                                     max_depth=1).fit(Xtr, ytr)
        assert (accuracy_score(yte, boosted.predict(Xte))
                > accuracy_score(yte, stump.predict(Xte)))

    def test_auc_reasonable(self, nonlinear_data):
        Xtr, ytr, Xte, yte = nonlinear_data
        model = AdaBoostClassifier(n_estimators=60, learning_rate=0.5,
                                   max_depth=2).fit(Xtr, ytr)
        assert roc_auc_score(yte, model.positive_score(Xte)) > 0.85

    def test_small_learning_rate_matches_paper_configuration(self, nonlinear_data):
        Xtr, ytr, Xte, yte = nonlinear_data
        model = AdaBoostClassifier(n_estimators=100, learning_rate=0.01,
                                   max_depth=2).fit(Xtr, ytr)
        assert accuracy_score(yte, model.predict(Xte)) > 0.6

    def test_single_class_training_degenerates_gracefully(self):
        features = np.random.default_rng(0).normal(size=(20, 3))
        model = AdaBoostClassifier(n_estimators=5).fit(features, np.ones(20, dtype=int))
        assert (model.predict(features) == 1).all()

    def test_single_class_fit_has_zero_importances(self, rng):
        # Regression: a single-class fit predicts, yet its importances
        # raised NotFittedError.
        features = rng.normal(size=(20, 3))
        model = AdaBoostClassifier(n_estimators=5).fit(
            features, np.ones(20, dtype=int))
        assert np.array_equal(model.feature_importances_, np.zeros(3))

    def test_unfitted_importances_raise(self):
        with pytest.raises(NotFittedError):
            AdaBoostClassifier().feature_importances_

    def test_sample_weight_influences_model(self, rng):
        features = rng.normal(size=(200, 3))
        labels = (features[:, 0] > 0).astype(int)
        weights = np.where(labels == 1, 10.0, 0.1)
        model = AdaBoostClassifier(n_estimators=20, learning_rate=0.5).fit(
            features, labels, sample_weight=weights)
        predictions = model.predict(features)
        # Recall on the heavily weighted class should be near perfect.
        assert (predictions[labels == 1] == 1).mean() > 0.95

    def test_estimator_weights_positive(self, nonlinear_data):
        Xtr, ytr, _, _ = nonlinear_data
        model = AdaBoostClassifier(n_estimators=20, learning_rate=0.3).fit(Xtr, ytr)
        assert all(w > 0 for w in model.estimator_weights_)
        assert len(model.estimators_) == len(model.estimator_weights_)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            AdaBoostClassifier(learning_rate=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            AdaBoostClassifier().predict_proba(np.zeros((1, 2)))


class TestGradientBoosting:
    def test_learns_nonlinear_boundary(self, nonlinear_data):
        Xtr, ytr, Xte, yte = nonlinear_data
        model = GradientBoostingClassifier(n_estimators=60, learning_rate=0.2,
                                           max_depth=3).fit(Xtr, ytr)
        assert accuracy_score(yte, model.predict(Xte)) > 0.85

    def test_probabilities_valid_and_monotone_in_score(self, nonlinear_data):
        Xtr, ytr, Xte, _ = nonlinear_data
        model = GradientBoostingClassifier(n_estimators=30, learning_rate=0.2).fit(
            Xtr, ytr)
        proba = model.predict_proba(Xte)
        scores = model.decision_function(Xte)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        order = np.argsort(scores)
        assert (np.diff(proba[order, 1]) >= -1e-12).all()

    def test_more_rounds_reduce_training_error(self, nonlinear_data):
        Xtr, ytr, _, _ = nonlinear_data
        few = GradientBoostingClassifier(n_estimators=5, learning_rate=0.2).fit(Xtr, ytr)
        many = GradientBoostingClassifier(n_estimators=80, learning_rate=0.2).fit(Xtr, ytr)
        assert many.score(Xtr, ytr) >= few.score(Xtr, ytr)

    def test_multiclass_rejected(self, rng):
        features = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, 30)
        with pytest.raises(ValueError, match="binary"):
            GradientBoostingClassifier().fit(features, labels)

    def test_single_class_training(self, rng):
        features = rng.normal(size=(20, 2))
        model = GradientBoostingClassifier(n_estimators=5).fit(
            features, np.zeros(20, dtype=int))
        assert (model.predict(features) == 0).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=0)

    def test_single_class_fit_has_zero_importances(self, rng):
        # Regression: a single-class fit predicts, yet its importances
        # raised NotFittedError.
        features = rng.normal(size=(20, 2))
        model = GradientBoostingClassifier(n_estimators=5).fit(
            features, np.zeros(20, dtype=int))
        assert np.array_equal(model.feature_importances_, np.zeros(2))

    def test_unfitted_importances_raise(self):
        with pytest.raises(NotFittedError):
            GradientBoostingClassifier().feature_importances_

    def test_unfitted_decision_function_raises(self):
        with pytest.raises(NotFittedError):
            GradientBoostingClassifier().decision_function(np.zeros((1, 2)))

    def test_balanced_fit_is_recognised_as_fitted(self):
        # Regression: the not-fitted sentinel used to be
        # ``initial_score_ == 0.0``, which a perfectly balanced fit
        # legitimately produces (log-odds of base rate 0.5).
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        model = GradientBoostingClassifier(
            n_estimators=3, learning_rate=0.1).fit(features, labels)
        assert model.initial_score_ == 0.0
        assert model.fitted_
        assert model.decision_function(features).shape == (4,)


@pytest.mark.parametrize("learning_rate",
                         [0.0, -1.0, float("nan"), float("inf"),
                          float("-inf")])
@pytest.mark.parametrize("family",
                         [AdaBoostClassifier, GradientBoostingClassifier])
def test_boosting_rejects_a_learning_rate_that_is_not_finite_and_positive(
        family, learning_rate):
    # Regression: gradient boosting accepted 0, -1 and NaN, and AdaBoost
    # NaN and inf.
    with pytest.raises(ValueError, match="learning_rate"):
        family(learning_rate=learning_rate)
