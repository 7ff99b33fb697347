"""Configuration of the POLARIS framework.

The paper parameterises POLARIS with the mask size ``Msize``, the locality
``L``, the iteration budget ``itr`` and the labelling threshold ``theta_r``
(§V-A: ``Msize = 200``, ``L = 7``, ``itr = 100``, ``theta_r = 0.70``), plus
the choice of ML model (Random Forest / XGBoost / AdaBoost, Table III) and
its learning rate (0.01).  :class:`PolarisConfig` gathers all of those knobs
together with the TVLA campaign settings used during cognition generation.

The dataclass defaults follow the paper; the benches override ``msize`` /
``iterations`` / trace counts downwards so the full experiment matrix runs
in CI-scale time, which is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..power.model import PowerModelConfig
from ..tvla.assessment import TvlaConfig

#: Model identifiers accepted by :func:`repro.core.cognition.train_masking_model`.
SUPPORTED_MODELS = ("adaboost", "xgboost", "random_forest")


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the masking model.

    Attributes:
        model_type: One of :data:`SUPPORTED_MODELS`.
        learning_rate: Boosting learning rate (the paper uses 0.01 for both
            XGBoost and AdaBoost).
        n_estimators: Ensemble size.
        max_depth: Depth of the weak learners / trees.
        use_smote: Oversample the minority class with SMOTE (the paper does
            this for Random Forest).
        class_weighted: Use inverse-frequency sample weights (the paper's
            "weighted training" for the boosted models).
        random_state: Seed for all stochastic model components.
    """

    model_type: str = "adaboost"
    learning_rate: float = 0.01
    n_estimators: int = 120
    max_depth: int = 2
    use_smote: bool = False
    class_weighted: bool = True
    random_state: int = 7

    def __post_init__(self) -> None:
        if self.model_type not in SUPPORTED_MODELS:
            raise ValueError(
                f"model_type must be one of {SUPPORTED_MODELS}, "
                f"got {self.model_type!r}"
            )


@dataclass(frozen=True)
class PolarisConfig:
    """Top-level POLARIS configuration (Algorithm 1 + Algorithm 2 knobs).

    Attributes:
        msize: Number of gates randomly masked per cognition round
            (``Msize`` in Algorithm 1); also the default mask budget unit.
        locality: BFS neighbourhood size ``L`` for structural features.
        iterations: Maximum cognition rounds per training design (``itr``).
        theta_r: Leakage-reduction ratio above which a random masking of a
            gate is labelled "good" (1).
        tvla: TVLA campaign configuration used by ``leak_estimate``.
        model: Masking-model hyper-parameters.
        use_dom: Use DOM composites instead of Trichina AND gates.
        use_rules: Combine model predictions with extracted XAI rules during
            masking (Algorithm 2's ``RL`` input).
        rule_weight: Blend factor between model score and rule score when
            ``use_rules`` is enabled (0 = model only, 1 = rules only).
        seed: Global seed for sampling during cognition generation.
    """

    msize: int = 200
    locality: int = 7
    iterations: int = 100
    theta_r: float = 0.70
    tvla: TvlaConfig = field(default_factory=TvlaConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    use_dom: bool = False
    use_rules: bool = False
    rule_weight: float = 0.3
    seed: int = 11

    def __post_init__(self) -> None:
        if self.msize < 1:
            raise ValueError("msize must be >= 1")
        if self.locality < 1:
            raise ValueError("locality must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.theta_r <= 1.0:
            raise ValueError("theta_r must be in (0, 1]")
        if not 0.0 <= self.rule_weight <= 1.0:
            raise ValueError("rule_weight must be in [0, 1]")

    def with_model(self, model_type: str, **overrides) -> "PolarisConfig":
        """Return a copy configured for a different model family.

        Convenience used by the Table III bench: Random Forest enables
        SMOTE, the boosted models enable weighted training, matching §V-B.
        """
        if model_type == "random_forest":
            model = ModelConfig(model_type=model_type, use_smote=True,
                                class_weighted=False,
                                n_estimators=overrides.pop("n_estimators", 60),
                                max_depth=overrides.pop("max_depth", 8),
                                random_state=self.model.random_state,
                                **overrides)
        else:
            model = ModelConfig(model_type=model_type,
                                learning_rate=self.model.learning_rate,
                                n_estimators=overrides.pop("n_estimators",
                                                           self.model.n_estimators),
                                max_depth=overrides.pop("max_depth",
                                                        3 if model_type == "xgboost"
                                                        else self.model.max_depth),
                                use_smote=False, class_weighted=True,
                                random_state=self.model.random_state,
                                **overrides)
        return replace(self, model=model)

    def with_tvla_order(self, tvla_order: int) -> "PolarisConfig":
        """Return a copy whose TVLA campaigns evaluate up to ``tvla_order``.

        Higher-order (order-2 variance / order-3 skewness) t-tests are what
        masked designs are evaluated against in practice; the knob threads
        straight into :class:`repro.tvla.TvlaConfig` so cognition
        generation, before/after protection assessments and the sharded
        drivers all report the configured orders.
        """
        return replace(self, tvla=replace(self.tvla, tvla_order=tvla_order))


def paper_configuration(chunk_traces: int = 2048,
                        streaming: Optional[bool] = None,
                        tvla_order: int = 1) -> PolarisConfig:
    """The exact parameterisation reported in §V-A of the paper.

    (10,000 TVLA traces, ``Msize = 200``, ``L = 7``, ``itr = 100``,
    ``theta_r = 0.7``, AdaBoost with learning rate 0.01.)

    Args:
        chunk_traces: Trace-block size of the chunked TVLA driver.  At the
            paper's 10,000 traces per group the campaigns exceed one chunk,
            so assessments run in one-pass streaming mode by default and
            trace memory stays ``O(chunk_traces × n_gates)``.
        streaming: Force (True/False) or auto-select (None) the streaming
            accumulator path; see :class:`repro.tvla.TvlaConfig`.
        tvla_order: Highest TVLA order assessed (1, 2 or 3).  The paper
            reports first-order TVLA; orders 2/3 evaluate the masked
            results against the Schneider & Moradi higher-order tests.
    """
    return PolarisConfig(
        msize=200,
        locality=7,
        iterations=100,
        theta_r=0.70,
        tvla=TvlaConfig(n_traces=10_000, power=PowerModelConfig(),
                        chunk_traces=chunk_traces, streaming=streaming,
                        tvla_order=tvla_order),
        model=ModelConfig(model_type="adaboost", learning_rate=0.01),
    )
