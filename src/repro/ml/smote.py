"""SMOTE: Synthetic Minority Over-sampling Technique.

The theta_r labelling threshold of Algorithm 1 produces imbalanced training
data (few "good masking" samples); the paper applies SMOTE before training
the Random Forest model.  This is the classic Chawla et al. algorithm:
each synthetic minority sample is created by interpolating between a
minority sample and one of its k nearest minority neighbours.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Elements of the ``(rows, m, d)`` difference tensor built per block.
_DISTANCE_BLOCK_ELEMENTS = 1 << 20


def _pairwise_distances(members: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of the rows of ``members``.

    Built a block of rows at a time so the difference tensor stays near
    8 MB instead of ``m * m * d`` floats; each entry is the same
    ``sqrt(sum(delta ** 2))`` over the contiguous feature axis, so the
    matrix is bitwise equal to the one-shot broadcast.
    """
    n_members, n_features = members.shape
    block = max(1, _DISTANCE_BLOCK_ELEMENTS // max(1, n_members * n_features))
    distances = np.empty((n_members, n_members))
    for start in range(0, n_members, block):
        deltas = members[start:start + block, None, :] - members[None, :, :]
        distances[start:start + block] = np.sqrt((deltas ** 2).sum(axis=2))
    return distances


def _nearest_neighbours(members: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` nearest other rows of every row of ``members``.

    Equidistant neighbours (duplicate rows, grid-valued features) come in
    row order: the sort is stable, so the result does not depend on which
    sort kernel the CPU selects.
    """
    distances = _pairwise_distances(members)
    np.fill_diagonal(distances, np.inf)
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


class Smote:
    """SMOTE over-sampler for binary (or multi-class) datasets.

    Args:
        k_neighbors: Number of nearest minority neighbours to interpolate
            with (reduced automatically when the minority class is tiny).
        target_ratio: Desired minority/majority size ratio after resampling
            (1.0 = fully balanced).
        random_state: RNG seed.
    """

    def __init__(self, k_neighbors: int = 5, target_ratio: float = 1.0,
                 random_state: int = 0) -> None:
        if k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0.0 < target_ratio <= 1.0:
            raise ValueError("target_ratio must be in (0, 1]")
        self.k_neighbors = k_neighbors
        self.target_ratio = target_ratio
        self.random_state = random_state

    def fit_resample(self, features: np.ndarray,
                     labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return an over-sampled ``(features, labels)`` pair.

        The majority class is left untouched; every minority class is
        over-sampled up to ``target_ratio`` times the majority count.  If a
        minority class has a single sample it is duplicated (interpolation
        is impossible).
        """
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("features must be 2-D and labels must match rows")
        classes, counts = np.unique(labels, return_counts=True)
        if classes.size < 2:
            return features.copy(), labels.copy()
        majority_count = int(counts.max())
        rng = np.random.default_rng(self.random_state)

        new_features = [features]
        new_labels = [labels]
        for cls, count in zip(classes, counts):
            target = int(round(self.target_ratio * majority_count))
            deficit = target - int(count)
            if deficit <= 0:
                continue
            members = features[labels == cls]
            synthetic = self._synthesize(members, deficit, rng)
            new_features.append(synthetic)
            new_labels.append(np.full(deficit, cls, dtype=labels.dtype))
        return np.vstack(new_features), np.concatenate(new_labels)

    def _synthesize(self, members: np.ndarray, count: int,
                    rng: np.random.Generator) -> np.ndarray:
        if members.shape[0] == 1:
            return np.repeat(members, count, axis=0)
        k = min(self.k_neighbors, members.shape[0] - 1)
        neighbor_indices = _nearest_neighbours(members, k)

        synthetic = np.zeros((count, members.shape[1]))
        seeds = rng.integers(0, members.shape[0], size=count)
        for row, seed in enumerate(seeds):
            neighbor = neighbor_indices[seed][rng.integers(0, k)]
            gap = rng.random()
            synthetic[row] = members[seed] + gap * (members[neighbor] - members[seed])
        return synthetic
