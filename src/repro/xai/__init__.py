"""Explainable-AI substrate: SHAP explanations and rules.

:class:`TreeShapExplainer` is the explainer: exact path-dependent Tree
SHAP for every tree family of :mod:`repro.ml`, with no sampling.  Its
oracles live with the tests: coalition enumeration per tree
(``tests/oracles/tree_shap.py``) and the model-agnostic
``KernelShapExplainer`` (``tests/oracles/kernel_shap.py``).
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
