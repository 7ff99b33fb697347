"""Explainable-AI substrate: SHAP explanations and rules.

:class:`TreeShapExplainer` is the explainer; its model-agnostic oracle,
``KernelShapExplainer``, lives with the tests
(``tests/oracles/kernel_shap.py``).
"""

from .explain import (
    Explanation,
    GlobalImportance,
    Waterfall,
    WaterfallStep,
    summarize_explanations,
)
from .tree_shap import TreeShapExplainer
from .rules import MaskingRule, RuleCondition, RuleExtractor, RuleSet

__all__ = [
    "Explanation",
    "GlobalImportance",
    "Waterfall",
    "WaterfallStep",
    "summarize_explanations",
    "TreeShapExplainer",
    "MaskingRule",
    "RuleCondition",
    "RuleExtractor",
    "RuleSet",
]
