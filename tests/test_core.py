"""Tests for the POLARIS core: config, cognition, masking, pipeline, reporting."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ExperimentRecord,
    ExperimentRecorder,
    ModelConfig,
    PolarisConfig,
    build_model,
    format_markdown_table,
    format_table,
    generate_cognition,
    leakage_reduction_ratio,
    paper_configuration,
    polaris_mask,
    protect_design,
    rank_gates,
    rows_from_dicts,
    train_masking_model,
)
from repro.features import Dataset
from repro.ml import AdaBoostClassifier, GradientBoostingClassifier, RandomForestClassifier
from repro.netlist import GateType, load_benchmark, validate_netlist
from repro.simulation import functional_equivalent
from repro.tvla import assess_leakage
from repro.workloads import WorkloadConfig, training_designs


class TestConfig:
    def test_defaults_follow_paper(self):
        config = paper_configuration()
        assert config.msize == 200
        assert config.locality == 7
        assert config.iterations == 100
        assert config.theta_r == pytest.approx(0.70)
        assert config.tvla.n_traces == 10_000
        assert config.model.model_type == "adaboost"
        assert config.model.learning_rate == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolarisConfig(msize=0)
        with pytest.raises(ValueError):
            PolarisConfig(theta_r=0.0)
        with pytest.raises(ValueError):
            PolarisConfig(rule_weight=2.0)
        with pytest.raises(ValueError):
            ModelConfig(model_type="svm")

    def test_with_model_switches_family(self):
        base = PolarisConfig()
        rf = base.with_model("random_forest")
        assert rf.model.model_type == "random_forest"
        assert rf.model.use_smote is True
        xgb = base.with_model("xgboost")
        assert xgb.model.model_type == "xgboost"
        assert xgb.model.class_weighted is True

    def test_build_model_types(self):
        assert isinstance(build_model(ModelConfig(model_type="adaboost")),
                          AdaBoostClassifier)
        assert isinstance(build_model(ModelConfig(model_type="xgboost")),
                          GradientBoostingClassifier)
        assert isinstance(build_model(ModelConfig(model_type="random_forest")),
                          RandomForestClassifier)


class TestCognition:
    def test_leakage_reduction_ratio(self):
        assert leakage_reduction_ratio(2.0, 0.5) == pytest.approx(0.75)
        assert leakage_reduction_ratio(2.0, 2.0) == 0.0
        assert leakage_reduction_ratio(0.0, 1.0) == 0.0
        assert leakage_reduction_ratio(1.0, 2.0) == pytest.approx(-1.0)

    def test_generate_cognition_produces_labelled_samples(self, polaris_config):
        designs = training_designs(WorkloadConfig(scale=0.25, seed=2,
                                                  designs=("c432",)))
        dataset, report = generate_cognition(designs, polaris_config)
        assert dataset.n_samples > 0
        assert set(np.unique(dataset.labels)) <= {0, 1}
        assert report.designs == ("c432",)
        assert report.tvla_runs >= 2  # baseline + at least one round
        assert report.samples_per_design["c432"] == dataset.n_samples

    def test_requires_designs(self, polaris_config):
        with pytest.raises(ValueError):
            generate_cognition([], polaris_config)

    def test_train_masking_model_requires_data(self, polaris_config):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), ["a", "b", "c"])
        with pytest.raises(ValueError):
            train_masking_model(empty, polaris_config)

    def test_train_masking_model_all_families(self, trained_polaris,
                                              polaris_config):
        dataset = trained_polaris.dataset
        for family in ("adaboost", "xgboost", "random_forest"):
            config = polaris_config.with_model(family)
            if family != "adaboost":
                # keep the test fast
                config = config.with_model(family, n_estimators=10)
            model = train_masking_model(dataset, config)
            scores = model.positive_score(dataset.features[:5])
            assert scores.shape == (5,)
            assert ((scores >= 0) & (scores <= 1)).all()


class TestPolarisMasking:
    def test_rank_gates_scores_all_maskable(self, trained_polaris, small_benchmark):
        scores = rank_gates(small_benchmark, trained_polaris.model,
                            trained_polaris.config,
                            encoder=trained_polaris.encoder)
        maskable = [g for g in small_benchmark.gates
                    if small_benchmark.library.is_maskable(g.gate_type)]
        assert len(scores) == len(maskable)
        values = [s.combined_score for s in scores]
        assert values == sorted(values, reverse=True)

    def test_polaris_mask_budget_respected(self, trained_polaris, small_benchmark):
        outcome = polaris_mask(small_benchmark, trained_polaris.model,
                               mask_budget=10, config=trained_polaris.config,
                               encoder=trained_polaris.encoder)
        assert outcome.n_masked == 10
        assert outcome.mask_budget == 10
        masked_types = {outcome.masked_netlist.gate(name).gate_type
                        for name in outcome.selected_gates}
        assert all(t.is_masked for t in masked_types)

    def test_polaris_mask_fraction(self, trained_polaris, small_benchmark):
        outcome = polaris_mask(small_benchmark, trained_polaris.model,
                               mask_fraction=0.25, config=trained_polaris.config,
                               encoder=trained_polaris.encoder)
        maskable_count = len(rank_gates(small_benchmark, trained_polaris.model,
                                        trained_polaris.config,
                                        encoder=trained_polaris.encoder))
        assert outcome.n_masked == int(round(0.25 * maskable_count))

    def test_masked_design_remains_functional(self, trained_polaris,
                                              small_benchmark):
        outcome = polaris_mask(small_benchmark, trained_polaris.model,
                               mask_fraction=1.0, config=trained_polaris.config,
                               encoder=trained_polaris.encoder)
        assert validate_netlist(outcome.masked_netlist).is_valid
        assert functional_equivalent(small_benchmark, outcome.masked_netlist,
                                     n_vectors=128)

    def test_invalid_fraction_rejected(self, trained_polaris, small_benchmark):
        with pytest.raises(ValueError):
            polaris_mask(small_benchmark, trained_polaris.model,
                         mask_fraction=1.5, config=trained_polaris.config)


class TestPipeline:
    def test_trained_polaris_contents(self, trained_polaris):
        assert trained_polaris.dataset.n_samples > 0
        assert trained_polaris.training_seconds > 0
        importance = trained_polaris.feature_importance()
        assert importance and importance[0][1] >= importance[-1][1]

    def test_feature_importance_lists_ties_in_feature_order(
            self, trained_polaris):
        # Two informative columns among 200: the 198 zero importances tie,
        # and an unstable (SIMD) argsort would shuffle them.
        rng = np.random.default_rng(8)
        features = rng.normal(size=(80, 200))
        labels = ((features[:, 5] > 0) ^ (features[:, 130] > 1)).astype(int)
        names = tuple(f"f{i}" for i in range(200))
        model = build_model(ModelConfig(model_type="adaboost",
                                        n_estimators=3, max_depth=1))
        trained = dataclasses.replace(
            trained_polaris, model=model.fit(features, labels),
            dataset=Dataset(features, labels, names))
        ranked = [name for name, _ in trained.feature_importance()]
        importances = model.feature_importances_
        used = [f"f{i}" for i in np.flatnonzero(importances)]
        assert set(ranked[:len(used)]) == set(used)
        assert ranked[len(used):] == [name for name in names
                                      if name not in used]

    def test_explanations_and_rules(self, trained_polaris):
        explanations = trained_polaris.explain(max_samples=6)
        assert len(explanations) == 6
        assert all(e.additivity_gap < 1e-6 for e in explanations)
        rules = trained_polaris.extract_rules(max_samples=20)
        assert rules is trained_polaris.rules

    def test_protect_design_reports(self, trained_polaris, small_benchmark,
                                    tvla_config):
        before = assess_leakage(small_benchmark, tvla_config)
        report = protect_design(small_benchmark, trained_polaris,
                                mask_fraction=1.0, before=before)
        assert report.design_name == small_benchmark.name
        assert report.after is not None
        assert report.leakage_reduction_pct > 0
        assert report.overheads["area_ratio"] > 1.0
        assert report.polaris_seconds > 0
        assert report.outcome.n_masked <= before.n_leaky

    def test_protect_design_can_skip_evaluation(self, trained_polaris,
                                                small_benchmark, tvla_config):
        before = assess_leakage(small_benchmark, tvla_config)
        report = protect_design(small_benchmark, trained_polaris,
                                mask_fraction=0.5, before=before, evaluate=False)
        assert report.after is None
        assert "before_mean_leakage" in report.leakage


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["des3", 1.234], ["md5", 10.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "des3" in lines[2] and "1.23" in lines[2]

    def test_markdown_table(self):
        text = format_markdown_table(["a", "b"], [[1, 2]])
        assert text.startswith("| a | b |")
        assert "| 1 | 2 |" in text

    def test_rows_from_dicts_projection(self):
        rows = rows_from_dicts([{"a": 1, "b": 2}, {"a": 3}], ["a", "b"])
        assert rows == [[1, 2], [3, ""]]

    def test_recorder_save_and_load(self, tmp_path):
        recorder = ExperimentRecorder(tmp_path)
        recorder.record(ExperimentRecord("table2", "leakage comparison",
                                         parameters={"scale": 0.3},
                                         rows=[{"design": "des3", "red": 50.0}]))
        path = recorder.save("run.json")
        loaded = ExperimentRecorder.load(path)
        assert len(loaded) == 1
        assert loaded[0].experiment_id == "table2"
        assert loaded[0].rows[0]["design"] == "des3"
