"""POLARIS reproduction: XAI-guided power side-channel leakage mitigation.

This package reproduces the DAC 2025 paper *POLARIS: Explainable Artificial
Intelligence for Mitigating Power Side-Channel Leakage* end to end on an
offline, pure-Python substrate:

* :mod:`repro.netlist` -- gate-level netlist model, BENCH I/O, graph views,
  and synthetic ISCAS-85 / EPFL / MIT-CEP benchmark stand-ins;
* :mod:`repro.simulation` -- vectorised gate-level logic simulation and TVLA
  stimulus campaigns;
* :mod:`repro.power` -- per-gate power traces and area/power/delay analysis;
* :mod:`repro.tvla` -- Welch's t-test leakage assessment with one-pass
  moments;
* :mod:`repro.masking` -- Trichina / DOM masked composites and the masking
  transform;
* :mod:`repro.features`, :mod:`repro.ml`, :mod:`repro.xai` -- structural
  features, from-scratch tree ensembles (Random Forest, XGBoost-style
  boosting, AdaBoost, SMOTE) and SHAP explainability with rule extraction;
* :mod:`repro.core` -- the POLARIS algorithms (cognition generation and
  XAI-guided masking) and the end-to-end pipeline;
* :mod:`repro.campaign` -- distributed, resumable TVLA campaign
  orchestration: content-hashed campaign specs, a SQLite task queue with
  lease/ack/retry, checkpoint/resume, a content-addressed result store and the
  ``polaris-campaign`` CLI;
* :mod:`repro.baselines` -- the VALIANT comparison flow;
* :mod:`repro.workloads` -- the training / evaluation design suites.

Quickstart::

    from repro import workloads
    from repro.core import PolarisConfig, train_polaris, protect_design

    config = PolarisConfig(msize=40, iterations=3)
    trained = train_polaris(workloads.training_designs(), config)
    report = protect_design(workloads.evaluation_designs()[0], trained)
    print(report.leakage_reduction_pct)
"""

from . import (
    baselines,
    campaign,
    core,
    features,
    masking,
    ml,
    netlist,
    power,
    simulation,
    tvla,
    workloads,
    xai,
)

__version__ = "1.0.0"

__all__ = [
    "baselines",
    "campaign",
    "core",
    "features",
    "masking",
    "ml",
    "netlist",
    "power",
    "simulation",
    "tvla",
    "workloads",
    "xai",
    "__version__",
]
