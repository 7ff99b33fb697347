"""Explanation containers: per-sample SHAP attributions and summaries.

The SHAP explainer (:mod:`repro.xai.tree_shap`, and the tests' Kernel
SHAP oracle) returns :class:`Explanation` objects.  An explanation holds
the base value ``E[f(x)]``, the per-feature Shapley values ``phi_f`` and
the feature values of the explained sample — enough to reproduce the waterfall plots of the
paper's Fig. 3 (in text form) and the global feature-importance summaries
used for rule extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Explanation:
    """SHAP attribution for one prediction.

    Attributes:
        base_value: Expected model output over the background data
            (``E[f(x)]`` in the waterfall plots).
        shap_values: Per-feature Shapley values ``phi_f``.
        data: Feature values of the explained sample.
        feature_names: Column names aligned with ``shap_values``.
        prediction: The model output ``f(x)`` for the sample.
    """

    base_value: float
    shap_values: np.ndarray
    data: np.ndarray
    feature_names: Tuple[str, ...]
    prediction: float

    def __post_init__(self) -> None:
        self.shap_values = np.asarray(self.shap_values, dtype=float)
        self.data = np.asarray(self.data, dtype=float)
        self.feature_names = tuple(self.feature_names)
        if self.shap_values.shape != self.data.shape:
            raise ValueError("shap_values and data must have the same shape")
        if len(self.feature_names) != self.shap_values.shape[0]:
            raise ValueError("feature_names must match the number of features")

    # ------------------------------------------------------------------
    @property
    def additivity_gap(self) -> float:
        """|f(x) - (base + sum(phi))| — 0 for exact explainers."""
        return float(abs(self.prediction - (self.base_value + self.shap_values.sum())))

    def top_features(self, count: int = 10) -> List[Tuple[str, float, float]]:
        """The ``count`` features with the largest |phi|.

        Returns:
            List of ``(feature_name, shap_value, feature_value)`` sorted by
            decreasing absolute contribution.
        """
        order = np.argsort(-np.abs(self.shap_values), kind="stable")
        result = []
        for index in order[:count]:
            result.append((self.feature_names[index],
                           float(self.shap_values[index]),
                           float(self.data[index])))
        return result

    def waterfall(self, max_features: int = 10) -> "Waterfall":
        """Build the waterfall decomposition shown in the paper's Fig. 3."""
        order = np.argsort(-np.abs(self.shap_values), kind="stable")
        shown = order[:max_features]
        rest = order[max_features:]
        steps: List[WaterfallStep] = []
        running = self.base_value
        for index in shown:
            contribution = float(self.shap_values[index])
            steps.append(WaterfallStep(
                feature=self.feature_names[index],
                feature_value=float(self.data[index]),
                contribution=contribution,
                cumulative=running + contribution,
            ))
            running += contribution
        other = float(self.shap_values[rest].sum()) if rest.size else 0.0
        return Waterfall(
            base_value=self.base_value,
            prediction=self.prediction,
            steps=steps,
            other_contribution=other,
        )


@dataclass(frozen=True)
class WaterfallStep:
    """One bar of a waterfall plot."""

    feature: str
    feature_value: float
    contribution: float
    cumulative: float


@dataclass
class Waterfall:
    """Text-mode waterfall plot (paper Fig. 3).

    Attributes:
        base_value: ``E[f(x)]``, where the plot starts.
        prediction: ``f(x)``, where the plot ends.
        steps: The per-feature bars, largest |contribution| first.
        other_contribution: Sum of the contributions not shown individually.
    """

    base_value: float
    prediction: float
    steps: List[WaterfallStep]
    other_contribution: float

    def render(self, width: int = 40) -> str:
        """Render an ASCII waterfall, one line per feature."""
        lines = [f"E[f(x)] = {self.base_value:+.4f}"]
        max_abs = max((abs(s.contribution) for s in self.steps), default=1.0)
        max_abs = max(max_abs, abs(self.other_contribution), 1e-12)
        for step in self.steps:
            bar_length = int(round(abs(step.contribution) / max_abs * width))
            bar = ("+" if step.contribution >= 0 else "-") * max(1, bar_length)
            lines.append(
                f"  {step.feature:<36s} = {step.feature_value:>6.2f} "
                f"| {step.contribution:+.4f} {bar}"
            )
        if abs(self.other_contribution) > 0:
            lines.append(f"  {'(other features)':<36s} "
                         f"         | {self.other_contribution:+.4f}")
        lines.append(f"f(x) = {self.prediction:+.4f}")
        return "\n".join(lines)


@dataclass
class GlobalImportance:
    """Mean-|SHAP| global feature importance over a set of explanations."""

    feature_names: Tuple[str, ...]
    mean_abs_shap: np.ndarray

    def ranked(self, count: Optional[int] = None) -> List[Tuple[str, float]]:
        """Features sorted by decreasing importance."""
        order = np.argsort(-self.mean_abs_shap, kind="stable")
        if count is not None:
            order = order[:count]
        return [(self.feature_names[i], float(self.mean_abs_shap[i])) for i in order]


def summarize_explanations(explanations: Sequence[Explanation]) -> GlobalImportance:
    """Aggregate per-sample explanations into global feature importance.

    Raises:
        ValueError: if the explanations disagree on feature names or the
            sequence is empty.
    """
    if not explanations:
        raise ValueError("at least one explanation is required")
    names = explanations[0].feature_names
    for explanation in explanations[1:]:
        if explanation.feature_names != names:
            raise ValueError("explanations have mismatched feature names")
    stacked = np.vstack([e.shap_values for e in explanations])
    return GlobalImportance(names, np.abs(stacked).mean(axis=0))
