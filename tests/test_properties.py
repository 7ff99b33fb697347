"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.masking import (
    apply_masking,
    maskable_gates,
    reference_masked_and,
    reference_masked_or,
    reference_masked_xor,
)
from repro.netlist import (
    GateType,
    RandomLogicSpec,
    generate_random_logic,
    parse_bench,
    validate_netlist,
    write_bench,
)
from repro.simulation import evaluate_gate, functional_equivalent, simulate
from repro.tvla import OnePassMoments, welch_t_test
from repro.xai import TreeShapExplainer
from repro.ml import DecisionTreeClassifier

from oracles.kernel_shap import KernelShapExplainer

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Masked-gate correctness over every bit combination is already exhaustive;
# here hypothesis drives the vectorised equivalents.
# ----------------------------------------------------------------------
@SETTINGS
@given(st.lists(st.tuples(*[st.booleans()] * 5), min_size=1, max_size=64))
def test_masked_and_matches_plain_and(batch):
    a, b, x, y, z = (np.array(column) for column in zip(*batch))
    masked = np.array([reference_masked_and(int(ai), int(bi), int(xi), int(yi),
                                            int(zi))
                       for ai, bi, xi, yi, zi in batch], dtype=bool)
    np.testing.assert_array_equal(masked ^ z, a & b)


@SETTINGS
@given(st.lists(st.tuples(*[st.booleans()] * 5), min_size=1, max_size=64))
def test_masked_or_matches_plain_or(batch):
    a, b, x, y, z = (np.array(column) for column in zip(*batch))
    masked = np.array([reference_masked_or(int(ai), int(bi), int(xi), int(yi),
                                           int(zi))
                       for ai, bi, xi, yi, zi in batch], dtype=bool)
    np.testing.assert_array_equal(masked ^ z, a | b)


@SETTINGS
@given(st.lists(st.tuples(*[st.booleans()] * 4), min_size=1, max_size=64))
def test_masked_xor_matches_plain_xor(batch):
    a, b, x, y = (np.array(column) for column in zip(*batch))
    masked = np.array([reference_masked_xor(int(ai), int(bi), int(xi), int(yi))
                       for ai, bi, xi, yi in batch], dtype=bool)
    np.testing.assert_array_equal(masked ^ (x ^ y), a ^ b)


# ----------------------------------------------------------------------
# Generated netlists: structural invariants and I/O round-trip.
# ----------------------------------------------------------------------
@SETTINGS
@given(st.integers(min_value=10, max_value=120),
       st.integers(min_value=4, max_value=24),
       st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["crypto", "control", "arithmetic", "random"]))
def test_generated_netlists_are_valid(n_gates, n_inputs, seed, profile):
    netlist = generate_random_logic(
        RandomLogicSpec(n_gates=n_gates, n_inputs=n_inputs, n_outputs=4,
                        profile=profile, seed=seed))
    report = validate_netlist(netlist)
    assert report.is_valid, report.errors
    assert len(netlist) == n_gates


@SETTINGS
@given(st.integers(min_value=10, max_value=80), st.integers(min_value=0, max_value=9999))
def test_bench_round_trip_preserves_structure(n_gates, seed):
    netlist = generate_random_logic(RandomLogicSpec(n_gates=n_gates, seed=seed))
    parsed = parse_bench(write_bench(netlist))
    assert len(parsed) == len(netlist)
    for gate in netlist.gates:
        assert parsed.driver_of(gate.output).gate_type is gate.gate_type
        assert parsed.driver_of(gate.output).inputs == gate.inputs


@SETTINGS
@given(st.integers(min_value=20, max_value=80),
       st.integers(min_value=0, max_value=9999),
       st.floats(min_value=0.0, max_value=1.0))
def test_masking_any_subset_preserves_function(n_gates, seed, fraction):
    netlist = generate_random_logic(RandomLogicSpec(n_gates=n_gates, seed=seed))
    candidates = maskable_gates(netlist)
    count = int(round(fraction * len(candidates)))
    masked = apply_masking(netlist, candidates[:count]).netlist
    assert functional_equivalent(netlist, masked, n_vectors=64, seed=seed)


# ----------------------------------------------------------------------
# Gate evaluation: De Morgan / involution identities on random vectors.
# ----------------------------------------------------------------------
@SETTINGS
@given(st.integers(min_value=1, max_value=256), st.integers(min_value=0, max_value=9999))
def test_de_morgan_identities(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n).astype(bool)
    b = rng.integers(0, 2, n).astype(bool)
    nand = evaluate_gate(GateType.NAND, [a, b])
    expected = evaluate_gate(GateType.OR, [~a, ~b])
    np.testing.assert_array_equal(nand, expected)
    nor = evaluate_gate(GateType.NOR, [a, b])
    np.testing.assert_array_equal(nor, evaluate_gate(GateType.AND, [~a, ~b]))
    double_not = evaluate_gate(GateType.NOT, [evaluate_gate(GateType.NOT, [a])])
    np.testing.assert_array_equal(double_not, a)


# ----------------------------------------------------------------------
# One-pass moments equal two-pass statistics for arbitrary finite data.
# ----------------------------------------------------------------------
@SETTINGS
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                min_size=2, max_size=300))
def test_one_pass_moments_match_numpy(values):
    samples = np.array(values, dtype=float)
    acc = OnePassMoments(max_order=2)
    acc.update_batch(samples)
    assert np.isclose(acc.mean, samples.mean(), rtol=1e-9, atol=1e-6)
    assert np.isclose(acc.variance, samples.var(ddof=1), rtol=1e-6, atol=1e-6)


@SETTINGS
@given(st.integers(min_value=5, max_value=200), st.integers(min_value=0, max_value=999))
def test_welch_t_is_antisymmetric(n, seed):
    rng = np.random.default_rng(seed)
    group0 = rng.normal(size=n)
    group1 = rng.normal(0.5, 2.0, size=n + 3)
    forward = welch_t_test(group0, group1)
    backward = welch_t_test(group1, group0)
    assert np.isclose(float(forward.t_statistic), -float(backward.t_statistic))
    assert np.isclose(float(forward.degrees_of_freedom),
                      float(backward.degrees_of_freedom))


# ----------------------------------------------------------------------
# SHAP efficiency: attributions always sum to prediction minus base value.
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=9999))
def test_shap_efficiency_property(seed):
    rng = np.random.default_rng(seed)
    features = rng.integers(0, 2, size=(150, 5)).astype(float)
    labels = ((features[:, 0] == 1) | (features[:, 1] == 0)).astype(int)
    if len(np.unique(labels)) < 2:
        return
    model = DecisionTreeClassifier(max_depth=3).fit(features, labels)
    tree_explainer = TreeShapExplainer(model)
    kernel_explainer = KernelShapExplainer(model.positive_score, features[:30])
    sample = features[int(rng.integers(0, features.shape[0]))]
    assert tree_explainer.explain(sample).additivity_gap < 1e-8
    assert kernel_explainer.explain(sample).additivity_gap < 1e-5


# ----------------------------------------------------------------------
# OnePassMoments.merge: the algebra the sharded TVLA drivers rely on.
# Seeded numpy data (hypothesis only picks seeds/shapes/splits) keeps the
# cases well-conditioned enough for the ~1e-12 equality contract.
# ----------------------------------------------------------------------
def _moments_from(samples, max_order, shape):
    acc = OnePassMoments(max_order=max_order, shape=shape)
    acc.update_batch(samples)
    return acc


def _random_parts(seed, n_parts, shape):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_parts):
        size = int(rng.integers(2, 60))
        loc = float(rng.uniform(-2.0, 2.0))
        scale = float(rng.uniform(0.5, 2.0))
        parts.append(rng.normal(loc, scale, size=(size,) + shape))
    return parts


def _assert_moments_equal(actual, expected, rtol=1e-12):
    assert actual.count == expected.count
    np.testing.assert_allclose(actual.mean, expected.mean,
                               rtol=rtol, atol=1e-12)
    for order in range(2, expected.max_order + 1):
        np.testing.assert_allclose(actual.central_moment(order),
                                   expected.central_moment(order),
                                   rtol=rtol, atol=1e-12)


MERGE_SETTINGS = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


@MERGE_SETTINGS
@given(st.integers(min_value=0, max_value=99999),
       st.integers(min_value=2, max_value=4),
       st.sampled_from([(), (3,), (2, 4)]),
       st.integers(min_value=2, max_value=4))
def test_merge_matches_concatenated_update(seed, max_order, shape, n_parts):
    parts = _random_parts(seed, n_parts, shape)
    merged = _moments_from(parts[0], max_order, shape)
    for part in parts[1:]:
        merged = merged.merge(_moments_from(part, max_order, shape))
    reference = _moments_from(np.concatenate(parts), max_order, shape)
    _assert_moments_equal(merged, reference)


@MERGE_SETTINGS
@given(st.integers(min_value=0, max_value=99999),
       st.integers(min_value=2, max_value=4),
       st.sampled_from([(), (3,)]),
       st.permutations(list(range(4))))
def test_merge_is_order_invariant(seed, max_order, shape, order):
    parts = _random_parts(seed, 4, shape)
    accumulators = [_moments_from(part, max_order, shape) for part in parts]

    def fold(indices):
        result = accumulators[indices[0]]
        for index in indices[1:]:
            result = result.merge(accumulators[index])
        return result

    _assert_moments_equal(fold(list(order)), fold(list(range(4))))


@MERGE_SETTINGS
@given(st.integers(min_value=0, max_value=99999),
       st.integers(min_value=2, max_value=4),
       st.sampled_from([(), (3,)]))
def test_merge_is_associative(seed, max_order, shape):
    a, b, c = (_moments_from(part, max_order, shape)
               for part in _random_parts(seed, 3, shape))
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    _assert_moments_equal(left, right)


@MERGE_SETTINGS
@given(st.integers(min_value=0, max_value=99999),
       st.integers(min_value=2, max_value=4))
def test_merge_with_empty_is_identity(seed, max_order):
    samples = _random_parts(seed, 1, ())[0]
    acc = _moments_from(samples, max_order, ())
    empty = OnePassMoments(max_order=max_order)
    _assert_moments_equal(acc.merge(empty), acc)
    _assert_moments_equal(empty.merge(acc), acc)
