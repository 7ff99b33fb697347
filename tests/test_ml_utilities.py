"""Tests for SMOTE, metrics, scaling and model selection."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    Smote,
    StandardScaler,
    accuracy_score,
    classification_report,
    confusion_matrix,
    cross_val_score,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
    stratified_k_fold,
    train_test_split,
)
from repro.ml import smote as smote_module
from repro.ml.base import NotFittedError


class TestSmote:
    def test_balances_classes(self, rng):
        features = rng.normal(size=(200, 4))
        labels = (rng.random(200) < 0.1).astype(int)
        resampled_x, resampled_y = Smote(random_state=1).fit_resample(features, labels)
        counts = np.bincount(resampled_y)
        assert counts[0] == counts[1]
        assert resampled_x.shape[0] == resampled_y.shape[0]

    def test_original_samples_preserved(self, rng):
        features = rng.normal(size=(50, 3))
        labels = np.array([1] * 5 + [0] * 45)
        resampled_x, _ = Smote(random_state=0).fit_resample(features, labels)
        np.testing.assert_allclose(resampled_x[:50], features)

    def test_synthetic_samples_interpolate_minority(self, rng):
        minority = rng.normal(5.0, 0.1, size=(6, 2))
        majority = rng.normal(-5.0, 0.1, size=(60, 2))
        features = np.vstack([minority, majority])
        labels = np.array([1] * 6 + [0] * 60)
        resampled_x, resampled_y = Smote(random_state=2).fit_resample(features, labels)
        synthetic = resampled_x[66:]
        assert (synthetic[:, 0] > 0).all()  # stays near the minority cluster

    def test_single_class_passthrough(self, rng):
        features = rng.normal(size=(10, 2))
        labels = np.ones(10, dtype=int)
        resampled_x, resampled_y = Smote().fit_resample(features, labels)
        assert resampled_x.shape == features.shape

    def test_singleton_minority_duplicated(self, rng):
        features = np.vstack([rng.normal(size=(9, 2)), [[7.0, 7.0]]])
        labels = np.array([0] * 9 + [1])
        resampled_x, resampled_y = Smote(random_state=0).fit_resample(features, labels)
        assert (resampled_y == 1).sum() == 9
        np.testing.assert_allclose(resampled_x[resampled_y == 1], 7.0)

    @pytest.mark.parametrize("block_elements", [1, 997, 1 << 20])
    def test_blocked_distances_match_full_tensor(self, rng, monkeypatch,
                                                 block_elements):
        # Ties (a coarse grid) make the neighbour argsort sensitive to any
        # last-bit change in a distance.
        features = np.round(rng.normal(size=(160, 13)), 1)
        labels = np.array([1] * 70 + [0] * 90)

        def full_tensor(members):
            deltas = members[:, None, :] - members[None, :, :]
            return np.sqrt((deltas ** 2).sum(axis=2))

        monkeypatch.setattr(smote_module, "_DISTANCE_BLOCK_ELEMENTS",
                            block_elements)
        blocked = Smote(random_state=4).fit_resample(features, labels)
        monkeypatch.setattr(smote_module, "_pairwise_distances", full_tensor)
        reference = Smote(random_state=4).fit_resample(features, labels)
        for got, expected in zip(blocked, reference):
            assert got.tobytes() == expected.tobytes()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Smote(k_neighbors=0)
        with pytest.raises(ValueError):
            Smote(target_ratio=0.0)


class TestMetrics:
    def test_accuracy_precision_recall_f1(self):
        y_true = np.array([1, 1, 0, 0, 1, 0])
        y_pred = np.array([1, 0, 0, 1, 1, 0])
        assert accuracy_score(y_true, y_pred) == pytest.approx(4 / 6)
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_degenerate_cases(self):
        assert precision_score(np.array([0, 0]), np.array([0, 0])) == 0.0
        assert recall_score(np.array([0, 0]), np.array([1, 1])) == 0.0
        assert f1_score(np.array([0, 1]), np.array([0, 0])) == 0.0

    def test_confusion_matrix(self):
        y_true = np.array([0, 0, 1, 1, 2])
        y_pred = np.array([0, 1, 1, 1, 0])
        matrix = confusion_matrix(y_true, y_pred)
        assert matrix.shape == (3, 3)
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1
        assert matrix[1, 1] == 2
        assert matrix.sum() == 5

    def test_roc_auc_perfect_and_random(self, rng):
        labels = np.array([0, 0, 1, 1])
        assert roc_auc_score(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert roc_auc_score(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
        # Constant scores -> 0.5 by the tie handling.
        assert roc_auc_score(labels, np.zeros(4)) == pytest.approx(0.5)

    def test_classification_report_keys(self):
        report = classification_report(np.array([0, 1]), np.array([0, 1]))
        assert set(report) == {"accuracy", "precision", "recall", "f1"}
        assert report["accuracy"] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy_score(np.zeros(3), np.zeros(4))


class TestScaler:
    def test_transform_standardises(self, rng):
        features = rng.normal(5.0, 3.0, size=(400, 3))
        scaler = StandardScaler()
        scaled = scaler.fit_transform(features)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_inverse_round_trip(self, rng):
        features = rng.normal(size=(50, 4))
        scaler = StandardScaler().fit(features)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(features)), features)

    def test_constant_column_not_scaled(self):
        features = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        scaled = StandardScaler().fit_transform(features)
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestModelSelection:
    def test_train_test_split_sizes_and_stratification(self, rng):
        features = rng.normal(size=(100, 3))
        labels = np.array([0] * 80 + [1] * 20)
        Xtr, Xte, ytr, yte = train_test_split(features, labels, 0.25, seed=1)
        assert len(yte) + len(ytr) == 100
        # Stratified: both classes represented in the test set proportionally.
        assert 0.1 < yte.mean() < 0.35

    def test_split_validation(self, rng):
        features = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            train_test_split(features, np.zeros(10), test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(features, np.zeros(9))

    def test_stratified_k_fold_partitions(self):
        labels = np.array([0] * 20 + [1] * 10)
        folds = stratified_k_fold(labels, n_folds=5, seed=0)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(30))
        for train, test in folds:
            assert set(train).isdisjoint(set(test))
            assert (labels[test] == 1).sum() == 2

    def test_cross_val_score_reasonable(self, rng):
        features = rng.normal(size=(200, 4))
        labels = (features[:, 0] > 0).astype(int)
        scores = cross_val_score(lambda: DecisionTreeClassifier(max_depth=3),
                                 features, labels, n_folds=4, seed=1)
        assert scores.shape == (4,)
        assert scores.mean() > 0.85

    def test_train_test_split_singleton_class_stays_in_train(self, rng):
        # Regression: max(1, ...) used to send a singleton class entirely
        # to the test split, making it unlearnable for the train side.
        features = rng.normal(size=(11, 2))
        labels = np.array([0] * 10 + [1])
        _, _, ytr, yte = train_test_split(features, labels, 0.3, seed=0)
        assert (ytr == 1).sum() == 1
        assert (yte == 1).sum() == 0

    def test_train_test_split_every_class_keeps_a_train_member(self, rng):
        features = rng.normal(size=(9, 2))
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3])
        _, _, ytr, _ = train_test_split(features, labels, 0.5, seed=3)
        assert set(np.unique(ytr)) == {0, 1, 2, 3}

    def test_stratified_k_fold_skips_empty_folds(self):
        # 6 samples cannot fill 5 folds; empty folds must be dropped, not
        # returned (they used to crash downstream metrics).
        labels = np.array([0, 0, 0, 1, 1, 1])
        folds = stratified_k_fold(labels, n_folds=5, seed=0)
        assert 2 <= len(folds) < 5
        for train, test in folds:
            assert train.size > 0 and test.size > 0

    def test_stratified_k_fold_too_few_samples_raises(self):
        with pytest.raises(ValueError, match="usable folds"):
            stratified_k_fold(np.array([0]), n_folds=3, seed=0)

    def test_cross_val_score_tiny_dataset_no_crash(self, rng):
        # Regression: an empty fold reached metrics._validate and raised
        # "metrics require at least one sample" mid-CV.
        features = rng.normal(size=(7, 2))
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        scores = cross_val_score(lambda: DecisionTreeClassifier(max_depth=2),
                                 features, labels, n_folds=5, seed=0)
        assert 2 <= scores.size <= 5
        assert np.isfinite(scores).all()
