"""Table III — leakage reduction by ML model family.

Trains POLARIS with Random Forest (+SMOTE), XGBoost-style gradient boosting
(weighted) and AdaBoost (weighted) on the same cognition dataset and compares
the leakage reduction on a subset of the evaluation suite.  The paper's
observation is that the boosted models beat Random Forest on average and
AdaBoost is the best choice overall.

The comparison is run at a 50 % mask budget rather than the paper's full
mask: with the scaled-down designs a full budget covers nearly every
maskable gate, which would hide the ranking differences between the model
families that this table is meant to expose.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExperimentRecord,
    TrainedPolaris,
    format_table,
    protect_design,
    train_masking_model,
)
from repro.tvla import assess_leakage

from bench_common import bench_polaris_config, bench_tvla_config, write_text_result

MODEL_FAMILIES = ("random_forest", "xgboost", "adaboost")
#: Subset keeps the 3-model sweep quick; override via POLARIS_BENCH_DESIGNS.
TABLE3_DESIGNS = ("des3", "voter", "multiplier", "md5")


def test_table3_model_comparison(benchmark, trained_polaris_bench,
                                 evaluation_suite, recorder):
    base_config = bench_polaris_config()
    dataset = trained_polaris_bench.dataset
    designs = [d for d in evaluation_suite if d.name in TABLE3_DESIGNS] or \
        list(evaluation_suite)[:3]
    tvla = bench_tvla_config()
    baselines = {design.name: assess_leakage(design, tvla) for design in designs}

    rows = []

    def run_sweep():
        rows.clear()
        per_model = {}
        for family in MODEL_FAMILIES:
            config = base_config.with_model(family)
            model = train_masking_model(dataset, config)
            trained = TrainedPolaris(
                model=model, dataset=dataset,
                cognition_report=trained_polaris_bench.cognition_report,
                config=config, encoder=trained_polaris_bench.encoder)
            per_model[family] = {}
            for design in designs:
                report = protect_design(design, trained, mask_fraction=0.5,
                                        before=baselines[design.name])
                per_model[family][design.name] = report.leakage_reduction_pct
        for design in designs:
            rows.append({
                "design": design.name,
                **{family: per_model[family][design.name]
                   for family in MODEL_FAMILIES},
            })
        return rows

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    averages = {family: float(np.mean([row[family] for row in rows]))
                for family in MODEL_FAMILIES}
    table = [[row["design"]] + [row[f] for f in MODEL_FAMILIES] for row in rows]
    table.append(["Average"] + [averages[f] for f in MODEL_FAMILIES])
    rendered = format_table(["design", "random_forest", "xgboost", "adaboost"], table)
    print("\nTable III reproduction (leakage reduction % by model family)")
    print(rendered)
    write_text_result("table3_ml_models", rendered)
    recorder.record(ExperimentRecord(
        "table3", "Leakage reduction by ML model family",
        parameters={"designs": [d.name for d in designs]},
        rows=rows + [{"design": "Average", **averages}]))

    # Shape: every family reduces leakage substantially and the families
    # land in one comparable band.  The paper's ~2 pp AdaBoost > XGBoost >
    # RF ranking does not reproduce, and not for want of traces: at paper
    # scale (10,000 traces, all 11 designs, 50 % budget) the families'
    # suite means differ by at most 0.55 pp at each of seeds 1-5.  They
    # tie because they mask nearly the same gates: AdaBoost and XGBoost
    # pick the same gates for 79-99 % of the budget, and on 9 of the 11
    # designs 93-100 % of the gates are leaky before masking.  So
    # asserting the exact winner here would pin down seed noise rather
    # than model quality.
    assert all(value > 10.0 for value in averages.values())
    assert max(averages.values()) - min(averages.values()) < 10.0
