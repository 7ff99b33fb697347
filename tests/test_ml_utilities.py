"""Tests for SMOTE."""

import numpy as np
import pytest

from repro.ml import Smote
from repro.ml import smote as smote_module


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

    def test_tied_neighbours_taken_in_row_order(self, rng):
        # Duplicate minority rows on a coarse grid: most neighbour distances
        # tie, and an unstable (SIMD) argsort orders ties differently.
        pattern = np.round(rng.normal(size=(60, 3)))
        members = np.vstack([pattern, pattern[::-1], pattern[:30]])
        neighbours = smote_module._nearest_neighbours(members, 5)
        distances = smote_module._pairwise_distances(members)
        for row, found in enumerate(neighbours):
            others = [j for j in range(members.shape[0]) if j != row]
            expected = sorted(others, key=lambda j: (distances[row, j], j))
            assert found.tolist() == expected[:5]
        # Row 0's two duplicates come first, the earlier copy first.
        assert neighbours[0, :2].tolist() == [119, 120]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Smote(k_neighbors=0)
        with pytest.raises(ValueError):
            Smote(target_ratio=0.0)
