"""Tests for the SHAP explainers, explanation objects, and rule extraction."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.xai import (
    Explanation,
    MaskingRule,
    RuleCondition,
    RuleExtractor,
    RuleSet,
    TreeShapExplainer,
    summarize_explanations,
)

from oracles.kernel_shap import KernelShapExplainer


@pytest.fixture
def binary_data(rng):
    features = rng.integers(0, 2, size=(300, 6)).astype(float)
    labels = (((features[:, 0] == 1) & (features[:, 1] == 0))
              | ((features[:, 2] == 1) & (features[:, 3] == 1))).astype(int)
    return features, labels


@pytest.fixture
def fitted_tree(binary_data):
    features, labels = binary_data
    return DecisionTreeClassifier(max_depth=4).fit(features, labels)


@pytest.fixture
def fitted_adaboost(binary_data):
    features, labels = binary_data
    return AdaBoostClassifier(n_estimators=30, learning_rate=0.5,
                              max_depth=2).fit(features, labels)


FEATURE_NAMES = [f"x{i}" for i in range(6)]


class TestKernelShap:
    def test_additivity(self, binary_data, fitted_tree):
        features, _ = binary_data
        explainer = KernelShapExplainer(fitted_tree.positive_score, features[:60],
                                        feature_names=FEATURE_NAMES)
        explanation = explainer.explain(features[0])
        assert explanation.additivity_gap < 1e-6

    def test_informative_features_get_larger_attribution(self, binary_data,
                                                         fitted_tree):
        features, _ = binary_data
        explainer = KernelShapExplainer(fitted_tree.positive_score, features[:60],
                                        feature_names=FEATURE_NAMES)
        explanations = explainer.explain_matrix(features[:15])
        importance = summarize_explanations(explanations)
        ranked = [name for name, _ in importance.ranked()]
        # x4 and x5 are pure noise: they must rank below the causal features.
        assert set(ranked[:4]) == {"x0", "x1", "x2", "x3"}

    def test_sampled_coalitions_close_to_exact(self, binary_data, fitted_tree):
        features, _ = binary_data
        exact = KernelShapExplainer(fitted_tree.positive_score, features[:40],
                                    feature_names=FEATURE_NAMES,
                                    max_exact_features=13)
        sampled = KernelShapExplainer(fitted_tree.positive_score, features[:40],
                                      feature_names=FEATURE_NAMES,
                                      max_exact_features=2, n_coalitions=600,
                                      seed=3)
        phi_exact = exact.explain(features[1]).shap_values
        phi_sampled = sampled.explain(features[1]).shap_values
        assert np.abs(phi_exact - phi_sampled).max() < 0.08

    def test_invalid_background_rejected(self, fitted_tree):
        with pytest.raises(ValueError):
            KernelShapExplainer(fitted_tree.positive_score, np.zeros((0, 3)))

    def test_sample_length_validated(self, binary_data, fitted_tree):
        features, _ = binary_data
        explainer = KernelShapExplainer(fitted_tree.positive_score, features[:10])
        with pytest.raises(ValueError):
            explainer.explain(np.zeros(3))


class TestTreeShap:
    @pytest.mark.parametrize("model_factory", [
        lambda X, y: DecisionTreeClassifier(max_depth=4).fit(X, y),
        lambda X, y: RandomForestClassifier(n_estimators=8, max_depth=4,
                                            random_state=1).fit(X, y),
        lambda X, y: AdaBoostClassifier(n_estimators=20, learning_rate=0.5,
                                        max_depth=2).fit(X, y),
        lambda X, y: GradientBoostingClassifier(n_estimators=20,
                                                learning_rate=0.3).fit(X, y),
    ])
    def test_additivity_for_all_supported_models(self, binary_data, model_factory):
        features, labels = binary_data
        model = model_factory(features, labels)
        explainer = TreeShapExplainer(model, feature_names=FEATURE_NAMES)
        for row in features[:5]:
            explanation = explainer.explain(row)
            assert explanation.additivity_gap < 1e-9

    def test_adaboost_prediction_matches_predict_proba(self, binary_data,
                                                       fitted_adaboost):
        features, _ = binary_data
        explainer = TreeShapExplainer(fitted_adaboost, feature_names=FEATURE_NAMES)
        explanation = explainer.explain(features[3])
        expected = fitted_adaboost.predict_proba(features[3:4])[0, -1]
        assert explanation.prediction == pytest.approx(expected)

    def test_agrees_with_kernel_shap_on_single_tree(self, binary_data, fitted_tree):
        features, _ = binary_data
        tree_explainer = TreeShapExplainer(fitted_tree, feature_names=FEATURE_NAMES)
        kernel = KernelShapExplainer(fitted_tree.positive_score, features,
                                     feature_names=FEATURE_NAMES)
        tree_phi = tree_explainer.explain(features[2]).shap_values
        kernel_phi = kernel.explain(features[2]).shap_values
        # Different value functions (path-dependent vs background marginal)
        # but attributions should broadly agree on one-hot style data.
        assert np.abs(tree_phi - kernel_phi).max() < 0.15

    def test_unsupported_model_rejected(self):
        with pytest.raises(TypeError):
            TreeShapExplainer(object())


class TestExplanationObjects:
    def _explanation(self):
        return Explanation(
            base_value=0.4,
            shap_values=np.array([0.3, -0.1, 0.05]),
            data=np.array([1.0, 0.0, 1.0]),
            feature_names=("a", "b", "c"),
            prediction=0.65,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Explanation(0.0, np.zeros(2), np.zeros(3), ("a", "b", "c"), 0.0)
        with pytest.raises(ValueError):
            Explanation(0.0, np.zeros(3), np.zeros(3), ("a", "b"), 0.0)

    def test_top_features_order(self):
        explanation = self._explanation()
        top = explanation.top_features(2)
        assert top[0][0] == "a"
        assert top[1][0] == "b"

    def test_waterfall_structure_and_render(self):
        explanation = self._explanation()
        waterfall = explanation.waterfall(max_features=2)
        assert waterfall.base_value == pytest.approx(0.4)
        assert len(waterfall.steps) == 2
        assert waterfall.steps[0].cumulative == pytest.approx(0.7)
        text = waterfall.render()
        assert "E[f(x)]" in text and "f(x)" in text and "a" in text

    def test_summarize_requires_matching_names(self):
        first = self._explanation()
        other = Explanation(0.1, np.zeros(3), np.zeros(3), ("x", "y", "z"), 0.1)
        with pytest.raises(ValueError):
            summarize_explanations([first, other])
        with pytest.raises(ValueError):
            summarize_explanations([])


class TestRules:
    def test_condition_descriptions(self):
        assert RuleCondition("G4=NAND", "==", 1.0).describe() == "G4 = NAND"
        assert RuleCondition("G4=NAND", "==", 0.0).describe() == "G4 != NAND"
        assert (RuleCondition("G0-G3 connected", "==", 1.0).describe()
                == "G0-G3 are connected")
        assert (RuleCondition("G0-G3 connected", "==", 0.0).describe()
                == "G0-G3 are not connected")
        assert "fanout" in RuleCondition("fanout", ">", 2.0).describe()

    def test_condition_evaluation(self):
        condition = RuleCondition("fanout", ">", 2.0)
        assert condition.evaluate(3.0)
        assert not condition.evaluate(1.0)
        equals = RuleCondition("G0=AND", "==", 1.0)
        assert equals.evaluate(1.0) and not equals.evaluate(0.0)

    def test_extractor_produces_rules_for_both_actions(self, binary_data,
                                                       fitted_adaboost):
        features, _ = binary_data
        explainer = TreeShapExplainer(fitted_adaboost, feature_names=FEATURE_NAMES)
        explanations = explainer.explain_matrix(features[:40])
        rules = RuleExtractor(top_features=3, min_support=2).extract(explanations)
        assert len(rules) >= 1
        actions = {rule.action for rule in rules.rules}
        assert actions <= {"mask", "no_mask"}
        text = rules.describe()
        assert "As long as" in text and "->" in text

    def test_ruleset_prediction(self):
        rules = RuleSet(
            rules=[
                MaskingRule(
                    conditions=(RuleCondition("G0=AND", "==", 1.0),),
                    action="mask", support=3, mean_shap=0.5, identifier="A")
            ],
            feature_names=("G0=AND", "G0=OR"),
        )
        assert rules.predict_action(np.array([1.0, 0.0])) == "mask"
        assert rules.predict_action(np.array([0.0, 1.0])) is None
        assert rules.predict_score(np.array([1.0, 0.0])) == 1.0
        assert rules.predict_score(np.array([0.0, 1.0])) == 0.5

    def test_extractor_requires_explanations(self):
        with pytest.raises(ValueError):
            RuleExtractor().extract([])
