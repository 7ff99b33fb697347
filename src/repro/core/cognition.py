"""Cognition generation and model training (paper Algorithm 1).

"Cognition generation" is the paper's name for POLARIS's unsupervised
training-data construction: random subsets of gates are masked, the design's
per-gate leakage is re-estimated with TVLA, and every masked gate receives a
binary label — "good masking candidate" if its leakage dropped by at least
``theta_r``, "bad" otherwise.  The gate's *structural features* become the
sample; no human labelling or external dataset is involved, which is the
paper's answer to the training-data problem of DL-LA / Netlist Whisperer.

This module implements that loop plus :func:`train_masking_model`, which
turns the collected dataset into one of the three model families compared in
Table III (Random Forest + SMOTE, XGBoost-style gradient boosting, AdaBoost),
with weighted training for the boosted models as described in §V-B.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..features.dataset import Dataset
from ..features.encoding import GateTypeEncoder
from ..features.structural import StructuralFeatureExtractor
from ..masking.transform import apply_masking, maskable_gates
from ..ml.adaboost import AdaBoostClassifier
from ..ml.base import BaseClassifier
from ..ml.forest import RandomForestClassifier
from ..ml.gradient_boosting import GradientBoostingClassifier
from ..ml.smote import Smote
from ..netlist.netlist import Netlist
from ..tvla.assessment import LeakageAssessment, assess_leakage
from .config import ModelConfig, PolarisConfig


@dataclass
class CognitionReport:
    """Bookkeeping of one cognition-generation run.

    Attributes:
        designs: Names of the training designs used.
        samples_per_design: Number of labelled samples contributed by each.
        positive_fraction: Fraction of "good masking" labels in the dataset.
        rounds: Total random-masking rounds executed.
        tvla_runs: Number of TVLA campaigns executed (1 baseline per design
            plus 1 per round).
        elapsed_seconds: Wall-clock time of the whole run.
    """

    designs: Tuple[str, ...]
    samples_per_design: Dict[str, int]
    positive_fraction: float
    rounds: int
    tvla_runs: int
    elapsed_seconds: float


def leakage_reduction_ratio(before: float, after: float) -> float:
    """The ``rRatio`` of Algorithm 1: relative per-gate leakage reduction.

    Defined as ``(before - after) / before`` and clamped to ``[-inf, 1]``;
    gates whose baseline leakage is (numerically) zero return 0 because
    masking them cannot demonstrate a reduction.
    """
    if before <= 1e-12:
        return 0.0
    return (before - after) / before


def generate_cognition(
    designs: Sequence[Netlist],
    config: Optional[PolarisConfig] = None,
    encoder: Optional[GateTypeEncoder] = None,
) -> Tuple[Dataset, CognitionReport]:
    """Run Algorithm 1 over ``designs`` and return the labelled dataset.

    Args:
        designs: Training netlists (the paper uses six ISCAS-85 designs).
        config: POLARIS configuration (``msize``, ``iterations``,
            ``theta_r``, locality, TVLA settings).
        encoder: Shared gate-type encoder so feature columns align with the
            later masking phase.

    Returns:
        ``(dataset, report)``.

    Raises:
        ValueError: if no designs are provided.
    """
    if not designs:
        raise ValueError("at least one training design is required")
    config = config if config is not None else PolarisConfig()
    encoder = encoder if encoder is not None else GateTypeEncoder()
    rng = np.random.default_rng(config.seed)

    start = time.perf_counter()
    rows: List[Tuple[np.ndarray, int]] = []
    feature_names: Optional[Tuple[str, ...]] = None
    samples_per_design: Dict[str, int] = {}
    rounds = 0
    tvla_runs = 0

    for design in designs:
        extractor = StructuralFeatureExtractor(design, config.locality, encoder)
        if feature_names is None:
            feature_names = extractor.feature_names
        baseline: LeakageAssessment = assess_leakage(design, config.tvla)
        tvla_runs += 1
        baseline_map = baseline.as_dict()

        remaining = list(maskable_gates(design))
        rng.shuffle(remaining)
        design_samples = 0
        run = 0
        msize = min(config.msize, max(1, len(remaining)))
        while msize <= len(remaining) and run <= config.iterations:
            selected = [remaining.pop() for _ in range(msize)]
            masked = apply_masking(design, selected, use_dom=config.use_dom)
            modified_assessment = assess_leakage(masked.netlist, config.tvla)
            tvla_runs += 1
            modified_map = modified_assessment.as_dict()
            # One batched featurisation per round instead of one extract()
            # call per gate; rows line up with ``selected``.
            feature_matrix = extractor.extract_many(selected)
            for gate_index, gate_name in enumerate(selected):
                features = feature_matrix[gate_index]
                gate_before = baseline_map.get(gate_name, 0.0)
                ratio = leakage_reduction_ratio(
                    gate_before, modified_map.get(gate_name, 0.0))
                # A masking is "good" when it removed at least theta_r of the
                # gate's leakage *and* the gate was actually failing TVLA to
                # begin with; masking an already-quiet gate only adds
                # overhead, so it never earns a positive label (this resolves
                # the paper's ambiguity between the absolute "difference" of
                # Algorithm 1 and the relative "reduction of 70%" of §V-A).
                was_leaky = gate_before >= 1.0
                label = 1 if (was_leaky and ratio >= config.theta_r) else 0
                rows.append((features, label))
                design_samples += 1
            run += 1
            rounds += 1
        samples_per_design[design.name] = design_samples

    dataset = Dataset.from_rows(rows, feature_names or (),
                                metadata={"theta_r": config.theta_r,
                                          "locality": config.locality})
    report = CognitionReport(
        designs=tuple(d.name for d in designs),
        samples_per_design=samples_per_design,
        positive_fraction=dataset.positive_fraction(),
        rounds=rounds,
        tvla_runs=tvla_runs,
        elapsed_seconds=time.perf_counter() - start,
    )
    return dataset, report


# ----------------------------------------------------------------------
# Model training
# ----------------------------------------------------------------------
def _class_weights(labels: np.ndarray) -> np.ndarray:
    """Inverse-frequency sample weights (the paper's 'weighted training')."""
    weights = np.ones(labels.shape[0], dtype=float)
    classes, counts = np.unique(labels, return_counts=True)
    frequency = {cls: count for cls, count in zip(classes, counts)}
    total = labels.shape[0]
    for cls in classes:
        weights[labels == cls] = total / (len(classes) * frequency[cls])
    return weights


def build_model(model_config: ModelConfig) -> BaseClassifier:
    """Instantiate an unfitted model for ``model_config``."""
    if model_config.model_type == "adaboost":
        return AdaBoostClassifier(
            n_estimators=model_config.n_estimators,
            learning_rate=model_config.learning_rate,
            max_depth=model_config.max_depth,
            random_state=model_config.random_state,
        )
    if model_config.model_type == "xgboost":
        return GradientBoostingClassifier(
            n_estimators=model_config.n_estimators,
            learning_rate=model_config.learning_rate,
            max_depth=model_config.max_depth,
            random_state=model_config.random_state,
        )
    return RandomForestClassifier(
        n_estimators=model_config.n_estimators,
        max_depth=model_config.max_depth,
        random_state=model_config.random_state,
    )


def train_masking_model(dataset: Dataset,
                        config: Optional[PolarisConfig] = None) -> BaseClassifier:
    """Train the masking model ``M`` on a cognition dataset.

    Random Forest training applies SMOTE to rebalance the classes; the
    boosted models use inverse-frequency sample weights instead, matching
    the paper's handling of the theta_r imbalance.

    Raises:
        ValueError: if the dataset is empty.
    """
    if dataset.n_samples == 0:
        raise ValueError("cannot train on an empty dataset")
    config = config if config is not None else PolarisConfig()
    model_config = config.model
    model = build_model(model_config)

    features = dataset.features
    labels = dataset.labels
    sample_weight = None
    if len(np.unique(labels)) > 1:
        if model_config.model_type == "random_forest":
            features, labels = Smote(
                random_state=model_config.random_state).fit_resample(
                    features, labels)
        else:
            sample_weight = _class_weights(labels)

    model.fit(features, labels, sample_weight=sample_weight)
    return model
