"""SHAP-guided extraction of human-readable masking rules (paper Table V).

The paper turns the trained model's SHAP explanations into rules of the form

    "As long as G4 = NAND && G5 = AND && G4 and G5 are not connected ...
     -> Select & Replace with masking gate"

This module reproduces that step.  For a set of explained samples, the
features with the largest positive (or negative) SHAP contributions are
converted into readable conditions using the structural feature naming
convention (``G0=NAND`` one-hots, ``G2-G3 connected`` adjacency flags, and
numeric thresholds for the scalar features).  Frequent condition
combinations are aggregated into :class:`MaskingRule` objects; the resulting
:class:`RuleSet` can be used on its own as a lightweight classifier ("rules
only"), or alongside the model ("model + rules") as described in §IV-B.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .explain import Explanation

#: A SHAP value at most this fraction of its row's largest |value| is
#: round-off (contributions that cancel across subtrees leave ~1e-18), not
#: a push towards either action, so no rule condition is keyed on its sign.
ROUND_OFF_RELATIVE = 1e-12


@dataclass(frozen=True)
class RuleCondition:
    """One atomic condition of a rule.

    Attributes:
        feature: Feature column name the condition refers to.
        operator: One of ``"=="``, ``"!="``, ``"<="`` or ``">"``.
        value: Comparison constant.
    """

    feature: str
    operator: str
    value: float

    def evaluate(self, feature_value: float) -> bool:
        """Whether ``feature_value`` satisfies the condition."""
        if self.operator == "==":
            return bool(np.isclose(feature_value, self.value))
        if self.operator == "!=":
            return not bool(np.isclose(feature_value, self.value))
        if self.operator == "<=":
            return bool(feature_value <= self.value)
        if self.operator == ">":
            return bool(feature_value > self.value)
        raise ValueError(f"unknown operator {self.operator!r}")

    def describe(self) -> str:
        """Human-readable text for the condition (Table V style)."""
        name = self.feature
        if "=" in name and self.operator in ("==", "!="):
            gate, gate_type = name.split("=", 1)
            if self.operator == "==" and self.value >= 0.5:
                return f"{gate} = {gate_type}"
            return f"{gate} != {gate_type}"
        if name.endswith("connected") and self.operator in ("==", "!="):
            pair = name.replace(" connected", "")
            if self.operator == "==" and self.value >= 0.5:
                return f"{pair} are connected"
            return f"{pair} are not connected"
        return f"{name} {self.operator} {self.value:.3g}"


@dataclass
class MaskingRule:
    """One extracted rule.

    Attributes:
        conditions: Conjunction of atomic conditions ("as long as ...").
        action: ``"mask"`` (select & replace with a masking gate) or
            ``"no_mask"`` (do not mask).
        support: Number of explained samples the rule was derived from.
        mean_shap: Mean total SHAP contribution of the rule's features over
            its supporting samples (confidence proxy).
        identifier: Short rule name (``"A"``, ``"B"``, ...).
    """

    conditions: Tuple[RuleCondition, ...]
    action: str
    support: int
    mean_shap: float
    identifier: str = ""

    def matches(self, feature_values: np.ndarray,
                feature_names: Sequence[str]) -> bool:
        """Whether a feature vector satisfies all conditions."""
        index = {name: i for i, name in enumerate(feature_names)}
        for condition in self.conditions:
            position = index.get(condition.feature)
            if position is None:
                return False
            if not condition.evaluate(float(feature_values[position])):
                return False
        return True

    def describe(self) -> str:
        """Render the rule in the style of the paper's Table V."""
        clause = " && ".join(c.describe() for c in self.conditions)
        procedure = ("Select & Replace with masking gate" if self.action == "mask"
                     else "Do not Mask")
        prefix = f"Rule {self.identifier}: " if self.identifier else ""
        return f"{prefix}As long as {clause} -> {procedure}"


@dataclass
class RuleSet:
    """A collection of extracted rules usable as a standalone classifier."""

    rules: List[MaskingRule] = field(default_factory=list)
    feature_names: Tuple[str, ...] = ()

    def predict_action(self, feature_values: np.ndarray) -> Optional[str]:
        """Return the action of the first matching rule (or ``None``)."""
        for rule in self.rules:
            if rule.matches(feature_values, self.feature_names):
                return rule.action
        return None

    def predict_score(self, feature_values: np.ndarray,
                      default: float = 0.5) -> float:
        """Score in [0, 1]: 1 for 'mask' rules, 0 for 'no_mask', else default."""
        action = self.predict_action(feature_values)
        if action == "mask":
            return 1.0
        if action == "no_mask":
            return 0.0
        return default

    def describe(self) -> str:
        """Multi-line description of every rule."""
        return "\n".join(rule.describe() for rule in self.rules)

    def __len__(self) -> int:
        return len(self.rules)


class RuleExtractor:
    """Builds a :class:`RuleSet` from SHAP explanations.

    Args:
        top_features: How many of the highest-|SHAP| features per sample
            form the candidate condition set.
        min_support: Minimum number of samples sharing a condition pattern
            for it to become a rule.
        max_rules: Maximum number of rules kept per action.
        numeric_features: Names of features treated as numeric (thresholded
            at the sample value) rather than binary one-hot flags.
    """

    def __init__(self, top_features: int = 4, min_support: int = 2,
                 max_rules: int = 5,
                 numeric_features: Optional[Sequence[str]] = None) -> None:
        if top_features < 1:
            raise ValueError("top_features must be >= 1")
        self.top_features = top_features
        self.min_support = max(1, min_support)
        self.max_rules = max(1, max_rules)
        self.numeric_features = set(numeric_features or (
            "fanin", "fanout", "depth_ratio", "neighborhood_size",
            "neighborhood_xor_fraction", "neighborhood_nonlinear_fraction",
            "driver_xor_fraction", "driver_is_primary_input_fraction",
            "load_xor_fraction",
        ))

    # ------------------------------------------------------------------
    def extract(self, explanations: Sequence[Explanation],
                positive_threshold: float = 0.5) -> RuleSet:
        """Extract rules from a batch of explanations.

        Samples whose prediction exceeds ``positive_threshold`` contribute
        "mask" rules; the others contribute "no_mask" rules.

        Raises:
            ValueError: if no explanations are provided.
        """
        if not explanations:
            raise ValueError("at least one explanation is required")
        feature_names = explanations[0].feature_names
        patterns: Dict[str, Counter] = {"mask": Counter(), "no_mask": Counter()}
        shap_sums: Dict[Tuple[str, Tuple[RuleCondition, ...]], List[float]] = {}

        for explanation in explanations:
            action = ("mask" if explanation.prediction >= positive_threshold
                      else "no_mask")
            conditions = self._sample_conditions(explanation, action)
            if not conditions:
                continue
            key = tuple(conditions)
            patterns[action][key] += 1
            shap_sums.setdefault((action, key), []).append(
                float(np.sum([abs(v) for _, v, _ in explanation.top_features(
                    self.top_features)])))

        rules: List[MaskingRule] = []
        labels = iter("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        for action in ("mask", "no_mask"):
            ranked = patterns[action].most_common()
            kept = 0
            for key, count in ranked:
                if count < self.min_support or kept >= self.max_rules:
                    continue
                mean_shap = float(np.mean(shap_sums[(action, key)]))
                rules.append(MaskingRule(
                    conditions=key, action=action, support=count,
                    mean_shap=mean_shap, identifier=next(labels, "?")))
                kept += 1
            if kept == 0 and ranked:
                # Fall back to the most common pattern even below the support
                # threshold so both procedures of Table V ("Select & Replace"
                # and "Do not Mask") are represented whenever samples of that
                # class were explained at all.
                key, count = ranked[0]
                rules.append(MaskingRule(
                    conditions=key, action=action, support=count,
                    mean_shap=float(np.mean(shap_sums[(action, key)])),
                    identifier=next(labels, "?")))
        return RuleSet(rules=rules, feature_names=feature_names)

    # ------------------------------------------------------------------
    def _sample_conditions(self, explanation: Explanation,
                           action: str) -> List[RuleCondition]:
        conditions: List[RuleCondition] = []
        values = explanation.shap_values
        round_off = (ROUND_OFF_RELATIVE * float(np.max(np.abs(values)))
                     if values.size else 0.0)
        for name, shap_value, feature_value in explanation.top_features(
                self.top_features):
            # Keep only features that push the prediction towards the
            # sample's action: positive SHAP for "mask", negative for
            # "no_mask".
            if abs(shap_value) <= round_off:
                continue
            if action == "mask" and shap_value <= 0:
                continue
            if action == "no_mask" and shap_value >= 0:
                continue
            conditions.append(self._condition_for(name, feature_value))
        # Canonical order so identical patterns hash identically.
        conditions.sort(key=lambda c: (c.feature, c.operator, c.value))
        return conditions

    def _condition_for(self, name: str, feature_value: float) -> RuleCondition:
        if name in self.numeric_features:
            operator = "<=" if feature_value <= 0.5 else ">"
            # Coarse thresholds (one decimal) so samples with slightly
            # different values still collapse into the same rule pattern.
            threshold = round(float(feature_value), 1)
            if operator == ">" and threshold >= feature_value:
                threshold = round(threshold - 0.1, 1)
            return RuleCondition(name, operator, threshold)
        # Binary (one-hot / adjacency) feature.
        return RuleCondition(name, "==", 1.0 if feature_value >= 0.5 else 0.0)
