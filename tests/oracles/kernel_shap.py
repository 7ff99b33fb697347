"""Kernel SHAP: model-agnostic Shapley value estimation.

Kernel SHAP (Lundberg & Lee, 2017) estimates the Shapley values of Eq. (6)
of the paper by solving a weighted linear regression over sampled feature
coalitions: a coalition ``z`` keeps the explained sample's value for the
features it contains and fills the remaining features from a background
dataset; the Shapley kernel ``(M-1) / (C(M,|z|) |z| (M-|z|))`` weights each
coalition so the regression coefficients converge to the Shapley values.

This implementation enumerates all coalitions exactly when the number of
features is small and falls back to paired (antithetic) sampling otherwise,
always including the empty and full coalitions so the efficiency property
``sum(phi) = f(x) - E[f]`` holds by construction.

It is the model-agnostic oracle of :class:`repro.xai.TreeShapExplainer`:
on a single tree both must give the same Shapley values.
"""

from __future__ import annotations

from math import comb
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.xai.explain import Explanation

ModelFunction = Callable[[np.ndarray], np.ndarray]


class KernelShapExplainer:
    """Model-agnostic SHAP explainer.

    Args:
        model_fn: Callable mapping a feature matrix to a 1-D output vector
            (e.g. ``model.positive_score``).
        background: Background dataset used to marginalise absent features;
            a representative sample of the training data.
        feature_names: Column names (generated if omitted).
        n_coalitions: Coalition budget when exact enumeration is infeasible.
        max_exact_features: Enumerate all ``2^M`` coalitions when the number
            of features is at most this.
        l2_penalty: Ridge regulariser for the weighted regression.
        seed: RNG seed for coalition sampling.
    """

    def __init__(
        self,
        model_fn: ModelFunction,
        background: np.ndarray,
        feature_names: Optional[Sequence[str]] = None,
        n_coalitions: int = 2048,
        max_exact_features: int = 13,
        l2_penalty: float = 1e-6,
        seed: int = 0,
    ) -> None:
        self.model_fn = model_fn
        self.background = np.asarray(background, dtype=float)
        if self.background.ndim != 2 or self.background.shape[0] == 0:
            raise ValueError("background must be a non-empty 2-D matrix")
        self.n_features = self.background.shape[1]
        if feature_names is None:
            feature_names = [f"f{i}" for i in range(self.n_features)]
        if len(feature_names) != self.n_features:
            raise ValueError("feature_names must match background columns")
        self.feature_names = tuple(feature_names)
        self.n_coalitions = n_coalitions
        self.max_exact_features = max_exact_features
        self.l2_penalty = l2_penalty
        self.seed = seed
        self._base_value = float(np.mean(self.model_fn(self.background)))

    # ------------------------------------------------------------------
    @property
    def base_value(self) -> float:
        """Expected model output over the background data."""
        return self._base_value

    def explain(self, sample: np.ndarray) -> Explanation:
        """Compute SHAP values for one sample."""
        sample = np.asarray(sample, dtype=float).ravel()
        if sample.shape[0] != self.n_features:
            raise ValueError("sample length does not match the background")
        prediction = float(np.mean(self.model_fn(sample.reshape(1, -1))))

        coalitions, weights = self._build_coalitions()
        values = self._coalition_values(sample, coalitions)
        phi = self._solve(coalitions, weights, values, prediction)
        return Explanation(
            base_value=self._base_value,
            shap_values=phi,
            data=sample,
            feature_names=self.feature_names,
            prediction=prediction,
        )

    def explain_matrix(self, samples: np.ndarray) -> List[Explanation]:
        """Explain every row of ``samples``."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples.reshape(1, -1)
        return [self.explain(row) for row in samples]

    # ------------------------------------------------------------------
    def _build_coalitions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the (coalition matrix, kernel weights) design."""
        m = self.n_features
        if m <= self.max_exact_features:
            coalitions = np.array(
                [[(index >> bit) & 1 for bit in range(m)]
                 for index in range(2 ** m)], dtype=float)
        else:
            rng = np.random.default_rng(self.seed)
            budget = max(4, self.n_coalitions)
            rows = [np.zeros(m), np.ones(m)]
            # Paired sampling: for each sampled subset also add its complement,
            # which halves the variance of the estimate.
            sizes = np.arange(1, m)
            size_weights = (m - 1) / (sizes * (m - sizes))
            size_weights = size_weights / size_weights.sum()
            while len(rows) < budget:
                size = int(rng.choice(sizes, p=size_weights))
                members = rng.choice(m, size=size, replace=False)
                row = np.zeros(m)
                row[members] = 1.0
                rows.append(row)
                rows.append(1.0 - row)
            coalitions = np.unique(np.array(rows[:budget]), axis=0)

        weights = np.array([self._kernel_weight(int(row.sum())) for row in coalitions])
        return coalitions, weights

    def _kernel_weight(self, size: int) -> float:
        m = self.n_features
        if size == 0 or size == m:
            # The constraints f(empty) and f(full) are enforced with a large
            # but finite weight, which is the standard Kernel SHAP trick.
            return 1e6
        return (m - 1) / (comb(m, size) * size * (m - size))

    def _coalition_values(self, sample: np.ndarray,
                          coalitions: np.ndarray) -> np.ndarray:
        """Model output for every coalition, averaged over the background."""
        n_background = self.background.shape[0]
        values = np.zeros(coalitions.shape[0])
        for index, coalition in enumerate(coalitions):
            mask = coalition.astype(bool)
            synthetic = self.background.copy()
            synthetic[:, mask] = sample[mask]
            values[index] = float(np.mean(self.model_fn(synthetic)))
        return values

    def _solve(self, coalitions: np.ndarray, weights: np.ndarray,
               values: np.ndarray, prediction: float) -> np.ndarray:
        """Weighted ridge regression for phi with the efficiency constraint."""
        m = self.n_features
        # Regress (value - base) on the coalition indicators without intercept;
        # enforcing efficiency by eliminating the last coefficient:
        #   phi_last = (f(x) - base) - sum(other phi)
        target = values - self._base_value
        full_gap = prediction - self._base_value
        design = coalitions[:, :-1] - coalitions[:, -1:]
        adjusted = target - coalitions[:, -1] * full_gap
        w_matrix = weights[:, None]
        gram = design.T @ (w_matrix * design) + self.l2_penalty * np.eye(m - 1)
        rhs = design.T @ (weights * adjusted)
        try:
            phi_partial = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            phi_partial = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        phi = np.zeros(m)
        phi[:-1] = phi_partial
        phi[-1] = full_gap - phi_partial.sum()
        return phi
