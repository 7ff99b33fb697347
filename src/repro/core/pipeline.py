"""End-to-end POLARIS pipeline.

Ties the three stages of Fig. 2 together:

1. *Knowledge extraction* — cognition generation over the training designs
   and model training (:func:`train_polaris`).
2. *Model interpretability* — SHAP explanations of the trained model and
   rule extraction (:meth:`TrainedPolaris.explain` /
   :meth:`TrainedPolaris.extract_rules`).
3. *Masking* — protecting an unseen design with the trained model
   (:func:`protect_design`), reporting leakage reduction, runtime and
   area/power/delay overheads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..features.dataset import Dataset
from ..features.encoding import GateTypeEncoder
from ..ml.base import BaseClassifier
from ..netlist.netlist import Netlist
from ..power.overhead import DesignMetrics, analyze_design, overhead_report
from ..tvla.assessment import (
    LeakageAssessment,
    assess_leakage,
    campaign_schedule,
    compare_assessments,
)
from ..xai.explain import Explanation
from ..xai.rules import RuleExtractor, RuleSet
from ..xai.tree_shap import TreeShapExplainer
from .cognition import CognitionReport, generate_cognition, train_masking_model
from .config import PolarisConfig
from .masking import PolarisMaskingOutcome, polaris_mask


@dataclass
class TrainedPolaris:
    """A trained POLARIS instance ready to protect designs.

    Attributes:
        model: The fitted masking model ``M``.
        dataset: The cognition dataset the model was trained on.
        cognition_report: Bookkeeping from Algorithm 1.
        config: The configuration used end to end.
        encoder: Gate-type encoder shared between training and inference.
        rules: XAI-extracted rule set (empty until
            :meth:`extract_rules` is called, or populated by
            :func:`train_polaris` when ``config.use_rules`` is set).
        training_seconds: Wall-clock time of cognition + model fitting.
    """

    model: BaseClassifier
    dataset: Dataset
    cognition_report: CognitionReport
    config: PolarisConfig
    encoder: GateTypeEncoder
    rules: RuleSet = field(default_factory=RuleSet)
    training_seconds: float = 0.0

    # ------------------------------------------------------------------
    def explain(self, samples: Optional[np.ndarray] = None,
                max_samples: int = 25) -> List[Explanation]:
        """SHAP-explain model predictions (defaults to training samples).

        Uses :meth:`TreeShapExplainer.explain_matrix`, which evaluates
        coalition expectations once per tree for the whole sample matrix
        (bit-identical to explaining each row individually).
        """
        explainer = TreeShapExplainer(
            self.model, feature_names=self.dataset.feature_names)
        if samples is None:
            count = min(max_samples, self.dataset.n_samples)
            samples = self.dataset.features[:count]
        return explainer.explain_matrix(samples)

    def extract_rules(self, max_samples: int = 40,
                      extractor: Optional[RuleExtractor] = None) -> RuleSet:
        """Generate the human-readable rule set (paper Table V) via SHAP."""
        explanations = self.explain(max_samples=max_samples)
        extractor = extractor if extractor is not None else RuleExtractor()
        self.rules = extractor.extract(explanations)
        return self.rules

    def feature_importance(self) -> List[Tuple[str, float]]:
        """Model feature importances paired with feature names."""
        importances = getattr(self.model, "feature_importances_", None)
        if importances is None:
            return []
        order = np.argsort(-importances, kind="stable")
        return [(self.dataset.feature_names[i], float(importances[i]))
                for i in order]


@dataclass
class ProtectionReport:
    """Outcome of protecting one design with POLARIS.

    Attributes:
        design_name: Name of the protected design.
        outcome: The Algorithm-2 masking outcome.
        before: TVLA assessment of the original design.
        after: TVLA assessment of the protected design (None if evaluation
            was skipped).
        leakage: Summary dict from
            :func:`repro.tvla.assessment.compare_assessments`; when the
            TVLA configuration evaluates higher orders it additionally
            carries ``order{k}_before_leaky`` / ``order{k}_after_leaky`` /
            ``order{k}_mean_abs_t_reduction_pct`` entries.
        original_metrics: Area/power/delay of the original design.
        masked_metrics: Area/power/delay of the protected design.
        overheads: Flat overhead report (Table IV layout).
        polaris_seconds: POLARIS decision runtime (features + inference +
            ranking + rewrite), the Table II "Time (s)" quantity.
    """

    design_name: str
    outcome: PolarisMaskingOutcome
    before: LeakageAssessment
    after: Optional[LeakageAssessment]
    leakage: Dict[str, float]
    original_metrics: DesignMetrics
    masked_metrics: DesignMetrics
    overheads: Dict[str, float]
    polaris_seconds: float

    @property
    def leakage_reduction_pct(self) -> float:
        """Total leakage reduction percentage (Table II metric)."""
        return float(self.leakage.get("leakage_reduction_pct", 0.0))

    def order_results(self) -> Dict[int, Dict[str, float]]:
        """Per-TVLA-order before/after summary (orders 2+ when evaluated)."""
        orders: Dict[int, Dict[str, float]] = {}
        if self.after is None:
            return orders
        for order in sorted(set(self.before.order_t_values)
                            & set(self.after.order_t_values)):
            orders[order] = {
                "before_leaky": self.leakage.get(f"order{order}_before_leaky", 0),
                "after_leaky": self.leakage.get(f"order{order}_after_leaky", 0),
                "mean_abs_t_reduction_pct": self.leakage.get(
                    f"order{order}_mean_abs_t_reduction_pct", 0.0),
            }
        return orders


def train_polaris(designs: Sequence[Netlist],
                  config: Optional[PolarisConfig] = None) -> TrainedPolaris:
    """Run cognition generation and model training over ``designs``."""
    config = config if config is not None else PolarisConfig()
    encoder = GateTypeEncoder()
    start = time.perf_counter()
    dataset, report = generate_cognition(designs, config, encoder)
    model = train_masking_model(dataset, config)
    trained = TrainedPolaris(
        model=model,
        dataset=dataset,
        cognition_report=report,
        config=config,
        encoder=encoder,
        training_seconds=time.perf_counter() - start,
    )
    if config.use_rules:
        trained.extract_rules()
    return trained


def protect_design(
    netlist: Netlist,
    trained: TrainedPolaris,
    mask_fraction: float = 1.0,
    budget_from_leaky: bool = True,
    evaluate: bool = True,
    before: Optional[LeakageAssessment] = None,
    store: Optional[object] = None,
) -> ProtectionReport:
    """Protect ``netlist`` with a trained POLARIS instance.

    Args:
        netlist: The (unseen) design to protect.
        trained: Output of :func:`train_polaris`.
        mask_fraction: The paper's "X % Mask": fraction of the mask budget
            to spend.
        budget_from_leaky: When True (paper semantics) the 100 % budget is
            the number of *leaky* gates found by a TVLA assessment of the
            original design; when False it is the number of maskable gates.
        evaluate: Run a TVLA assessment of the protected design (reporting).
        before: Optionally reuse an existing baseline assessment instead of
            re-running TVLA on the original design.
        store: Optional :class:`repro.campaign.store.ResultStore` (or its
            root path).  The before and after assessments are looked up by
            their :class:`~repro.campaign.spec.CampaignSpec` content hash
            — repeated protection runs of an unchanged (netlist, config,
            seed) skip TVLA entirely and are served bit-identically from
            the cache; fresh assessments are stored on the way out.

    Returns:
        A :class:`ProtectionReport`.
    """
    config = trained.config
    if store is not None:
        # Function-level import: repro.campaign depends on repro.tvla,
        # which this package re-drives, so keep the edge call-time only.
        from ..campaign.store import as_result_store
        store = as_result_store(store)
    # Build the stimulus schedule lazily and at most once: masking
    # preserves the primary inputs, so the exact same campaigns drive the
    # before and the after assessment (identical stimulus, no
    # regeneration).
    schedule = None

    def shared_schedule():
        """Build the stimulus schedule on first use, then reuse it."""
        nonlocal schedule
        if schedule is None:
            schedule = campaign_schedule(netlist, config.tvla)
        return schedule

    def run_assessment(design, campaigns_fn):
        """Assess ``design`` with the serial driver (which spreads a
        streaming campaign's chunks over every CPU), serving and feeding
        the content-addressed store when one is given.

        ``campaigns_fn`` builds (or reuses) the stimulus schedule and is
        only invoked on a cache miss: when both assessments hit the store,
        no stimulus arrays are ever materialised.
        """
        spec_hash = None
        if store is not None:
            from ..campaign.spec import CampaignSpec
            spec = CampaignSpec.from_netlist(design, config.tvla)
            spec_hash = spec.content_hash
            hit = store.get(spec_hash)
            if hit is not None:
                return hit
        assessment = assess_leakage(design, config.tvla,
                                    campaigns=campaigns_fn())
        if spec_hash is not None:
            store.put(spec_hash, assessment)
        return assessment

    if before is None:
        before = run_assessment(netlist, shared_schedule)

    if budget_from_leaky:
        budget = int(round(mask_fraction * before.n_leaky))
    else:
        budget = None

    outcome = polaris_mask(
        netlist,
        trained.model,
        mask_budget=budget,
        mask_fraction=None if budget is not None else mask_fraction,
        config=config,
        rules=trained.rules if config.use_rules else None,
        encoder=trained.encoder,
    )

    after: Optional[LeakageAssessment] = None
    if evaluate:
        masked_netlist = outcome.masked_netlist
        reuse = (tuple(masked_netlist.primary_inputs)
                 == tuple(netlist.primary_inputs))
        after = run_assessment(
            masked_netlist,
            shared_schedule if reuse else lambda: None)
        leakage = compare_assessments(before, after)
    else:
        leakage = {"before_mean_leakage": before.mean_leakage}

    original_metrics = analyze_design(netlist)
    masked_metrics = analyze_design(outcome.masked_netlist)
    overheads = overhead_report(original_metrics, masked_metrics)

    return ProtectionReport(
        design_name=netlist.name,
        outcome=outcome,
        before=before,
        after=after,
        leakage=leakage,
        original_metrics=original_metrics,
        masked_metrics=masked_metrics,
        overheads=overheads,
        polaris_seconds=outcome.inference_seconds,
    )
