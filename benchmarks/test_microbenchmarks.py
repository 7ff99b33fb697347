"""Micro-benchmarks of the substrate primitives.

Unlike the table/figure benches (single-shot experiment reproductions) these
use pytest-benchmark's normal repeated timing to track the throughput of the
hot paths: gate-level simulation, per-gate power-trace generation (the
vectorised streaming engine vs the reference per-gate loop, at the paper's
10,000-trace scale), the TVLA assessment (streaming one-pass vs naive
two-pass), structural feature extraction, and model inference.

The vectorised-vs-loop comparison is recorded in
``benchmarks/results/latest.json`` (experiment id
``microbench_trace_generation``), the fused-kernel-vs-gate-loop simulation
sweep as ``microbench_compiled_sweep``, the packed end-to-end hot path vs
the pre-fusion oracle as ``microbench_packed_power``, the fused-vs-naive
moment update as ``microbench_moment_update``, the flat-array batch
model scoring + batched TreeSHAP vs their per-sample oracles as
``microbench_ml_scoring``, the presorted CART split search vs the
per-feature loop over whole ensemble fits as ``microbench_ml_fit``, and
the durable campaign's queue and store overhead over in-process TVLA as
``microbench_campaign_overhead``.  The speedup metrics of the non-slow
benches are anchored in ``benchmarks/results/baseline.json`` and gated
against >25% regressions by ``tools/check_bench_regression.py`` (the CI
``bench-regression`` job).

The 10k-trace benches are marked ``slow``: they are deselected by default
(see ``pytest.ini``) and in CI; run them with ``pytest -m slow benchmarks``
or the whole suite with ``pytest -m ""``.
"""

from __future__ import annotations

import os
import sys
import time
import timeit

import numpy as np
import pytest

from repro.core import ExperimentRecord
from repro.features import StructuralFeatureExtractor
from repro.masking import apply_masking, maskable_gates
from repro.netlist import load_benchmark
from repro.power import CounterDraws, CounterStream, PowerTraceGenerator
from repro.simulation import LogicSimulator, fixed_vs_random_campaigns
from repro.tvla import (
    OnePassMoments,
    TvlaConfig,
    assess_leakage,
    welch_t_test,
)
from repro.tvla.welch import welch_from_accumulators

from bench_common import BENCH_SCALE, best_of, interleaved_best_of

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from oracles.forest import fit_forest_per_tree  # noqa: E402
from oracles.power import generate_loop  # noqa: E402
from oracles.simulation import LoopSimulator, LoopTraceGenerator  # noqa: E402
from oracles.tree import best_split_loop, predict_value  # noqa: E402
from oracles.tree_shap import explain_per_sample  # noqa: E402

#: Trace count of the paper-scale generation benchmark (§V-A).
PAPER_TRACES = 10_000


@pytest.fixture(scope="module")
def design():
    return load_benchmark("md5", scale=BENCH_SCALE, seed=3)


@pytest.fixture(scope="module")
def comparison_design():
    """Bench netlist for the vectorised-vs-loop comparison.

    Pinned to at least the default scale so shrinking
    ``POLARIS_BENCH_SCALE`` (where fixed per-call overhead dominates both
    engines) cannot flake the speedup assertion.
    """
    return load_benchmark("md5", scale=max(BENCH_SCALE, 0.35), seed=3)


@pytest.fixture(scope="module")
def masked_design(comparison_design):
    """The bench netlist fully masked — the post-protection TVLA workload."""
    return apply_masking(comparison_design,
                         maskable_gates(comparison_design)).netlist


def test_logic_simulation_throughput(benchmark, design):
    simulator = LogicSimulator(design)
    rng = np.random.default_rng(0)
    stimulus = {net: rng.integers(0, 2, 2000).astype(bool)
                for net in design.primary_inputs}
    result = benchmark(simulator.evaluate, stimulus)
    assert result.n_vectors == 2000


def test_compiled_sweep_microbench(recorder):
    """Fused levelised kernel vs the per-gate loop: per-trace sweep time.

    Evaluates several paper benchmark netlists at full (paper) scale with a
    TVLA-representative batch (`chunk_traces` default of 2048 vectors) on
    the compiled simulator and its loop oracle, checks bit-identical
    outputs, and records the
    per-trace kernel times as ``microbench_compiled_sweep``.  The fused
    kernel must at least halve the per-trace sweep time on the widest
    designs (the designs whose levels fuse into large segments); the deep
    narrow ones still have to win, just by a thinner margin.
    """
    batch = 2048
    rows = []
    for name in ("md5", "des3", "log2", "memctrl"):
        netlist = load_benchmark(name, scale=1.0, seed=3)
        compiled = LogicSimulator(netlist)
        loop = LoopSimulator(netlist)
        rng = np.random.default_rng(0)
        stimulus = {net: rng.integers(0, 2, batch).astype(bool)
                    for net in netlist.primary_inputs}

        reference = loop.evaluate(stimulus)
        result = compiled.evaluate(stimulus)
        for net in reference.net_values:
            np.testing.assert_array_equal(result.net_values[net],
                                          reference.net_values[net])

        loop_seconds = best_of(lambda: loop.evaluate(stimulus), number=10)
        compiled_seconds = best_of(lambda: compiled.evaluate(stimulus),
                                   number=10)
        stats = compiled.plan.describe()
        rows.append({
            "design": netlist.name,
            "n_gates": len(netlist),
            "n_levels": stats["n_levels"],
            "n_segments": stats["n_segments"],
            "gates_per_segment": stats["gates_per_segment"],
            "batch": batch,
            "loop_us_per_trace": loop_seconds / batch * 1e6,
            "compiled_us_per_trace": compiled_seconds / batch * 1e6,
            "speedup": loop_seconds / compiled_seconds,
        })

    recorder.record(ExperimentRecord(
        experiment_id="microbench_compiled_sweep",
        description=("Fused levelised simulation kernel vs per-gate loop: "
                     f"per-trace sweep time at batch {batch}, paper-scale "
                     "netlists"),
        parameters={"scale": 1.0, "batch": batch},
        rows=rows,
    ))
    # Best-of-N minima keep the ratios stable under runner load; the floors
    # are deliberately loose (the measured margins are 1.6-2.5x) so only a
    # genuine kernel regression fails the always-on suite.
    speedups = {row["design"]: row["speedup"] for row in rows}
    assert max(speedups.values()) >= 2.0, (
        f"fused kernel never reached 2x over the per-gate loop: {speedups}")
    assert all(value > 1.0 for value in speedups.values()), (
        f"fused kernel regressed below the loop on some designs: {speedups}")


def _tvla_end_to_end(design, generator_class, fused_moments,
                     n_traces=PAPER_TRACES, chunk=2048, seed=2):
    """One full trace-generation + streaming-TVLA pass (order 1, 1 class).

    Mirrors the chunked driver (per-chunk counter draws, one-pass
    accumulators, Welch from merged moments) but lets the caller pick the
    trace engine (``LoopTraceGenerator`` is the loop-simulation +
    bool-matrix oracle) and the moment-update implementation, so the
    bench can time the packed fast path against its oracle on identical
    work.
    """
    generator = generator_class(design)
    campaigns = fixed_vs_random_campaigns(design, n_traces, seed=seed)
    accumulators = []
    for group_index, campaign in enumerate(campaigns):
        acc = OnePassMoments(max_order=2, shape=(generator.n_gates,))
        fold = acc.update_batch if fused_moments else acc.update_batch_naive
        for traces in generator.generate_stream(
                campaign, chunk, CounterStream(seed, 0, group_index)):
            fold(traces.per_gate)
        accumulators.append(acc)
    return welch_from_accumulators(accumulators[0], accumulators[1])


def test_packed_power_microbench(comparison_design, masked_design, recorder):
    """The packed end-to-end hot path vs its in-tree oracle at paper scale.

    Runs 10,000-trace trace-generation + streaming TVLA per group on the
    bench designs two ways: the fast path (the default generator — fused
    simulation, packed toggle extraction — plus the gate-blocked
    ``update_batch``) and the bit-identical oracle (``LoopTraceGenerator``
    — loop simulation, bool-matrix extraction — plus naive per-order
    moment updates).  T-values must be
    **exactly** equal; the fast path must be >= 1.3x faster end to end.

    The fast path and the oracle are timed alternately (best of 7 each),
    so a burst of load on a shared host slows both sides of the asserted
    ratio rather than one (measured margins are 1.4-2.0x against the 1.3
    floor); the long-term
    trajectory is separately gated by ``tools/check_bench_regression.py``
    with a 25% tolerance against the committed baseline.
    """
    rows = []
    speedups = {}
    for label, design in (("unmasked", comparison_design),
                          ("masked", masked_design)):
        fast, oracle = interleaved_best_of(
            lambda: _tvla_end_to_end(design, PowerTraceGenerator, True),
            lambda: _tvla_end_to_end(design, LoopTraceGenerator, False),
            repeats=7)
        fast_result = _tvla_end_to_end(design, PowerTraceGenerator, True)
        oracle_result = _tvla_end_to_end(design, LoopTraceGenerator, False)
        np.testing.assert_array_equal(fast_result.t_statistic,
                                      oracle_result.t_statistic)
        speedups[label] = oracle / fast
        rows.append({
            "design": design.name,
            "variant": label,
            "comparison": "full_hot_path_vs_oracle",
            "n_traces": PAPER_TRACES,
            "n_gates": len(design),
            "oracle_seconds": oracle,
            "fast_seconds": fast,
            "speedup": oracle / fast,
            "t_values_exactly_equal": True,
        })

    recorder.record(ExperimentRecord(
        experiment_id="microbench_packed_power",
        description=("Packed end-to-end hot path (fused simulation, packed "
                     "toggle extraction, fused moment updates) vs the "
                     "oracle (loop simulation, bool-matrix extraction, "
                     f"naive updates) at {PAPER_TRACES} traces; t-values "
                     "exactly equal"),
        parameters={"scale": max(BENCH_SCALE, 0.35),
                    "n_traces": PAPER_TRACES, "chunk_traces": 2048,
                    "cpu_count": os.cpu_count()},
        rows=rows,
    ))
    assert min(speedups.values()) >= 1.3, (
        f"packed end-to-end hot path below the 1.3x floor vs the oracle: "
        f"{speedups}")


def test_moment_update_fused_microbench(recorder):
    """Gate-blocked ``update_batch`` vs the naive power chain.

    Times one paper-scale chunk fold — a float32 gate-major trace block,
    exactly the ``traces.per_gate`` layout — per accumulator order: the
    order-1 TVLA default (central sums to 2) and order-3 TVLA (sums to 6,
    where the naive ``delta**k`` chain allocates one fresh full-chunk
    matrix per order while the blocked fold reuses two L2-sized block
    buffers).  Both implementations are bit-identical (pinned by
    tests/test_packed_power.py); recorded as ``microbench_moment_update``
    (the ``fused_ms`` column holds the blocked fold).
    """
    rng = np.random.default_rng(0)
    n_traces, n_gates = 2048, 300
    # Gate-major block transposed into the public (n_traces, n_gates)
    # trace layout, as the streaming driver hands it to the accumulator.
    samples = np.asfortranarray(
        rng.normal(size=(n_traces, n_gates)).astype(np.float32))
    rows = []
    for tvla_order, max_order in ((1, 2), (3, 6)):
        fused_acc = OnePassMoments(max_order=max_order, shape=(n_gates,))
        naive_acc = OnePassMoments(max_order=max_order, shape=(n_gates,))
        fused = best_of(lambda: fused_acc.update_batch(samples),
                        repeats=7, number=5)
        naive = best_of(lambda: naive_acc.update_batch_naive(samples),
                        repeats=7, number=5)
        rows.append({
            "tvla_order": tvla_order,
            "max_order": max_order,
            "n_traces": n_traces,
            "n_gates": n_gates,
            "naive_ms": naive * 1e3,
            "fused_ms": fused * 1e3,
            "speedup": naive / fused,
        })
    recorder.record(ExperimentRecord(
        experiment_id="microbench_moment_update",
        description=("Gate-blocked moment update vs the naive "
                     "delta**k chain, one 2048x300 float32 chunk per "
                     "accumulator order"),
        parameters={"n_traces": n_traces, "n_gates": n_gates,
                    "cpu_count": os.cpu_count()},
        rows=rows,
    ))
    speedups = {row["max_order"]: row["speedup"] for row in rows}
    # Floors are deliberately loose (measured margins are ~2x): only a
    # genuine fusion regression should fail the always-on suite.
    assert all(value > 1.1 for value in speedups.values()), (
        f"blocked moment update lost its margin over the naive chain: "
        f"{speedups}")


def test_power_trace_generation_throughput(benchmark, design):
    generator = PowerTraceGenerator(design)
    fixed, _ = fixed_vs_random_campaigns(design, 500, seed=1)
    traces = benchmark(generator.generate, fixed,
                       draws=CounterDraws(1, 0, 0, 0))
    assert traces.per_gate.shape == (500, len(design))


@pytest.mark.slow
def test_trace_generation_vectorised_vs_loop(comparison_design, masked_design,
                                             recorder):
    """Paper-scale (10,000-trace) vectorised vs per-gate-loop comparison.

    One-shot timing (best of a few runs) rather than pytest-benchmark so the
    slow reference loop does not dominate the harness; the measured speedups
    are recorded in ``latest.json``.  The masked design is the
    representative TVLA hot path: POLARIS cognition and the Table II flows
    spend most of their trace budget assessing (partially) masked designs.
    """
    rows = []
    for label, netlist in (("unmasked", comparison_design),
                           ("masked", masked_design)):
        generator = PowerTraceGenerator(netlist)
        fixed, _ = fixed_vs_random_campaigns(netlist, PAPER_TRACES, seed=1)
        draws = CounterDraws(1, 0, 0, 0)
        vectorised = best_of(lambda: generator.generate(fixed, draws=draws))
        loop = best_of(lambda: generate_loop(generator, fixed,
                                             np.random.default_rng(1)))
        rows.append({
            "design": netlist.name,
            "variant": label,
            "n_traces": PAPER_TRACES,
            "n_gates": len(netlist),
            "loop_seconds": loop,
            "vectorised_seconds": vectorised,
            "speedup": loop / vectorised,
        })

    recorder.record(ExperimentRecord(
        experiment_id="microbench_trace_generation",
        description=("Vectorised streaming trace engine vs per-gate loop "
                     f"at {PAPER_TRACES} traces"),
        parameters={"scale": max(BENCH_SCALE, 0.35), "n_traces": PAPER_TRACES},
        rows=rows,
    ))
    masked_row = rows[1]
    assert masked_row["speedup"] >= 5.0, (
        f"vectorised engine only {masked_row['speedup']:.1f}x faster than "
        f"the per-gate loop on the masked bench netlist")
    assert rows[0]["speedup"] > 1.0


def test_tvla_assessment_throughput(benchmark, design):
    config = TvlaConfig(n_traces=300, n_fixed_classes=1, seed=2)
    assessment = benchmark(assess_leakage, design, config)
    assert len(assessment.gate_names) == len(design)


@pytest.mark.slow
def test_streaming_assessment_paper_scale(masked_design, recorder):
    """10,000-trace streaming TVLA campaign — the paper-scale scenario.

    Streams each group through one-pass accumulators in
    ``chunk_traces``-sized blocks, so peak trace memory is O(chunk × gates)
    instead of O(n_traces × gates).
    """
    config = TvlaConfig(n_traces=PAPER_TRACES, n_fixed_classes=1, seed=2,
                        chunk_traces=2048)
    start = time.perf_counter()
    assessment = assess_leakage(masked_design, config)
    elapsed = time.perf_counter() - start
    assert len(assessment.gate_names) == len(masked_design)
    recorder.record(ExperimentRecord(
        experiment_id="microbench_streaming_tvla",
        description="Streaming one-pass TVLA assessment at 10,000 traces",
        parameters={"scale": max(BENCH_SCALE, 0.35), "n_traces": PAPER_TRACES,
                    "chunk_traces": config.chunk_traces},
        rows=[{
            "design": masked_design.name,
            "n_gates": len(masked_design),
            "seconds": elapsed,
            "traces_per_second": 2 * PAPER_TRACES / elapsed,
        }],
    ))


def test_campaign_overhead_microbench(design, recorder, tmp_path):
    """Queue + store overhead of the campaign subsystem vs in-process TVLA.

    Runs the same campaign two ways — in process (``assess_leakage``) and
    through the full durable runner with 2 shards (submit → SQLite
    lease/ack per shard → checkpoint → merge → store) — plus a store cache
    hit, and records the wall-clock of each as
    ``microbench_campaign_overhead`` in ``latest.json``.  Correctness is
    asserted (bitwise for the durable runner and the cache hit); the
    recorded
    overhead documents what durability costs at small scale, where the
    fixed per-task queue round-trips are most visible — at paper scale the
    shard compute dominates.
    """
    from repro.campaign import collect_result, run_campaign, submit_campaign

    config = TvlaConfig(n_traces=600, n_fixed_classes=2, seed=11,
                        chunk_traces=150)
    n_shards = 2

    start = time.perf_counter()
    in_process = assess_leakage(design, config)
    in_process_seconds = time.perf_counter() - start

    root = tmp_path / "campaigns"
    start = time.perf_counter()
    durable = run_campaign(root, design, config, n_shards=n_shards,
                           n_workers=n_shards)
    durable_seconds = time.perf_counter() - start
    assert np.array_equal(durable.t_values, in_process.t_values)

    start = time.perf_counter()
    outcome = submit_campaign(root, netlist=design, config=config,
                              n_shards=n_shards)
    cached = collect_result(root, outcome.spec_hash)
    cache_seconds = time.perf_counter() - start
    assert outcome.status == "cached"
    assert np.array_equal(cached.t_values, durable.t_values)

    rows = [{
        "variant": variant,
        "design": design.name,
        "n_shards": n_shards,
        "n_traces": config.n_traces,
        "seconds": seconds,
        "overhead_pct": (seconds - in_process_seconds)
        / in_process_seconds * 100.0,
    } for variant, seconds in (
        ("in_process", in_process_seconds),
        ("durable_campaign", durable_seconds),
        ("store_cache_hit", cache_seconds),
    )]
    recorder.record(ExperimentRecord(
        experiment_id="microbench_campaign_overhead",
        description=("Queue+store overhead of repro.campaign (2 shards) vs "
                     "in-process assess_leakage (600 traces x 2 classes), "
                     "plus the content-addressed cache hit"),
        parameters={"scale": BENCH_SCALE, "n_traces": config.n_traces,
                    "chunk_traces": config.chunk_traces,
                    "n_shards": n_shards, "cpu_count": os.cpu_count()},
        rows=rows,
    ))
    # A cache hit only reads and deserialises one JSON object; even on a
    # loaded runner it must beat re-simulating the campaign.
    assert cache_seconds < durable_seconds


def test_service_streaming_microbench(design, recorder, tmp_path):
    """Per-shard cost of the live service's streaming path (informational).

    Measures the two things the server does per folded shard — the
    interim fold (merge present shards + aggregate into t-values) and the
    wire codec round-trip of the ``CampaignProgress`` frame it then sends
    to every watcher (t-value arrays base64 in canonical JSON) — and
    records them as ``microbench_service`` in ``latest.json``.  Not gated:
    the numbers document what live streaming costs per shard next to the
    shard's own compute, they are not a regression anchor.
    """
    from repro.campaign import run_campaign
    from repro.campaign.runner import CampaignPaths, verified_checkpoint
    from repro.campaign.serialize import encode_array
    from repro.campaign.spec import CampaignSpec
    from repro.service.protocol import (CampaignProgress, decode_message,
                                        encode_message)
    from repro.tvla.sharding import merge_shard_partials

    config = TvlaConfig(n_traces=600, n_fixed_classes=2, seed=11,
                        chunk_traces=150)
    n_shards = 2
    root = tmp_path / "campaigns"
    reference = run_campaign(root, design, config, n_shards=n_shards,
                             n_workers=n_shards)
    spec = CampaignSpec.from_netlist(design, config, n_shards=n_shards)
    paths = CampaignPaths(root, spec.content_hash)
    partials = [verified_checkpoint(paths, k)[1] for k in range(n_shards)]
    fold_loops = 20

    def fold():
        return merge_shard_partials(partials, config, design.name,
                                    reference.gate_names, 0.0, n_shards)

    fold_seconds = timeit.timeit(fold, number=fold_loops)
    # The fold must reproduce the batch merge bitwise — the property the
    # whole streaming design rests on.
    assessment = fold()
    assert np.array_equal(assessment.t_values, reference.t_values)

    frame = CampaignProgress(
        tenant="bench", spec_hash=spec.content_hash,
        n_shards_total=n_shards, shards_done=tuple(range(n_shards)),
        t_values=encode_array(assessment.t_values),
        order_t_values={str(order): encode_array(values) for order, values
                        in sorted(assessment.order_t_values.items())},
        max_abs_t=float(assessment.summary()["max_abs_t"]),
        leaking_gates=assessment.leaky_gates)
    codec_loops = 200
    codec_seconds = timeit.timeit(
        lambda: decode_message(encode_message(frame)), number=codec_loops)

    rows = [
        {"metric": "progress_frame_codec_roundtrip",
         "frame_bytes": len(encode_message(frame)),
         "seconds_per_op": codec_seconds / codec_loops},
        {"metric": "interim_fold_all_shards",
         "n_shards": n_shards,
         "seconds_per_op": fold_seconds / fold_loops},
    ]
    recorder.record(ExperimentRecord(
        experiment_id="microbench_service",
        description=("Per-shard streaming cost of repro.service: the "
                     "server's interim fold (merge + aggregate) and the "
                     "wire codec round-trip of the CampaignProgress frame "
                     "it sends, on a 2-shard 600-trace campaign"),
        parameters={"scale": BENCH_SCALE, "n_traces": config.n_traces,
                    "chunk_traces": config.chunk_traces,
                    "n_shards": n_shards},
        rows=rows,
    ))


def test_welch_two_pass_throughput(benchmark):
    rng = np.random.default_rng(0)
    group0 = rng.normal(size=(2000, 300))
    group1 = rng.normal(0.1, 1.0, size=(2000, 300))
    result = benchmark(welch_t_test, group0, group1)
    assert result.t_statistic.shape == (300,)


def test_one_pass_moments_throughput(benchmark):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(2000, 300))

    def accumulate():
        acc = OnePassMoments(max_order=2, shape=(300,))
        acc.update_batch(samples)
        return acc

    acc = benchmark(accumulate)
    assert acc.count == 2000


def test_feature_extraction_throughput(benchmark, design):
    extractor = StructuralFeatureExtractor(design, locality=7)
    names, matrix = benchmark(extractor.extract_all, True)
    assert matrix.shape[0] == len(names)


def test_ml_scoring_microbench(trained_polaris_bench, design, recorder):
    """Flat-array batch scoring + batched TreeSHAP vs the per-sample oracles.

    Scores a benchmark-netlist gate-feature matrix (tiled to >= 2000 rows)
    with the trained AdaBoost model two ways: the flat-array fast path
    (``positive_score`` descending every :class:`repro.ml.FlatTree` for
    the whole matrix at once) and a verbatim reconstruction of the pre-PR
    inference loop (one recursive ``predict_value`` node walk per row per
    weak learner, one vote comparison pass per class).  Scores must be
    **exactly** equal and the batch path must clear a 10x floor.  A second
    row times ``explain_matrix`` against the per-sample engine
    (``oracles.tree_shap.explain_per_sample``, one recursive walk per
    coalition per row) on the same model (the SHAP path evaluates every
    leaf of the ensemble for a block of rows at once; its values agree
    with the oracle to round-off, within 1e-10); recorded as
    ``microbench_ml_scoring`` and gated by
    ``tools/check_bench_regression.py``.
    """
    model = trained_polaris_bench.model
    extractor = StructuralFeatureExtractor(
        design, locality=7, encoder=trained_polaris_bench.encoder)
    _, matrix = extractor.extract_all(maskable_only=True)
    matrix = np.tile(matrix, (max(1, -(-2000 // matrix.shape[0])), 1))

    def per_sample_scores():
        votes = np.zeros((matrix.shape[0], len(model.classes_)))
        for tree, alpha in zip(model.estimators_, model.estimator_weights_):
            proba = predict_value(tree.tree_, matrix)
            predictions = tree.classes_[np.argmax(proba, axis=1)]
            for column, cls in enumerate(model.classes_):
                votes[:, column] += alpha * (predictions == cls)
        total = votes.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        probabilities = votes / total
        classes = list(model.classes_)
        column = classes.index(1) if 1 in classes else len(classes) - 1
        return probabilities[:, column]

    np.testing.assert_array_equal(model.positive_score(matrix),
                                  per_sample_scores())
    scoring_fast = best_of(lambda: model.positive_score(matrix), number=3)
    scoring_oracle = best_of(per_sample_scores)

    from repro.xai import TreeShapExplainer
    explainer = TreeShapExplainer(model)
    shap_rows = matrix[:8]
    for fast_expl, oracle_expl in zip(
            explainer.explain_matrix(shap_rows),
            [explain_per_sample(explainer, row) for row in shap_rows]):
        np.testing.assert_allclose(fast_expl.shap_values,
                                   oracle_expl.shap_values, rtol=0, atol=1e-10)
        assert fast_expl.prediction == pytest.approx(oracle_expl.prediction,
                                                     rel=0, abs=1e-10)
    # Timed alternately over more repeats than the scoring row: its 1.2x
    # floor sits close to the measured ratio, so a load burst on a shared
    # host must not land on one side only.
    shap_fast, shap_oracle = interleaved_best_of(
        lambda: explainer.explain_matrix(shap_rows),
        lambda: [explain_per_sample(explainer, row) for row in shap_rows],
        repeats=9)

    rows = [
        {
            "design": design.name,
            "comparison": "batch_scoring_vs_per_sample",
            "n_rows": int(matrix.shape[0]),
            "n_estimators": len(model.estimators_),
            "oracle_seconds": scoring_oracle,
            "fast_seconds": scoring_fast,
            "speedup": scoring_oracle / scoring_fast,
            "bitwise_equal": True,
        },
        {
            "design": design.name,
            "comparison": "shap_matrix_vs_per_sample",
            "n_rows": int(shap_rows.shape[0]),
            "n_estimators": len(model.estimators_),
            "oracle_seconds": shap_oracle,
            "fast_seconds": shap_fast,
            "speedup": shap_oracle / shap_fast,
            "bitwise_equal": False,
        },
    ]
    recorder.record(ExperimentRecord(
        experiment_id="microbench_ml_scoring",
        description=("Flat-array batch model scoring and batched TreeSHAP "
                     "vs the per-sample oracle walks on a benchmark-netlist "
                     "gate-feature matrix; scores exactly equal, SHAP "
                     "values within 1e-10"),
        parameters={"scale": BENCH_SCALE, "locality": 7,
                    "model": "adaboost", "cpu_count": os.cpu_count()},
        rows=rows,
    ))
    speedups = {row["comparison"]: row["speedup"] for row in rows}
    # The batch descent replaces ~n_rows * n_estimators Python node walks
    # with one vectorised frontier sweep per tree; measured margins are far
    # above these floors, which only catch a genuine fast-path regression.
    assert speedups["batch_scoring_vs_per_sample"] >= 10.0, (
        f"flat-array batch scoring below the 10x floor: {speedups}")
    assert speedups["shap_matrix_vs_per_sample"] > 1.2, (
        f"batched TreeSHAP lost its margin over the per-sample engine: "
        f"{speedups}")


def test_ml_fit_microbench(trained_polaris_bench, recorder):
    """Whole ensemble fits vs the per-feature loop split search.

    Fits AdaBoost, gradient boosting (the "xgboost" family) and the random
    forest at the paper's family settings, with fewer rounds, on the bench
    cognition gate-feature matrix two ways.  The boosted families fit with
    the builder's presorted ``_best_split`` and with the
    ``best_split_loop`` oracle swapped in; their fast side also reuses,
    round after round, the node orders and candidate scans of the fit's
    shared ``_PresortedColumns``, while the oracle re-sorts every node it
    searches.  The forest fits with its lockstep builder and with
    ``fit_forest_per_tree`` (each tree fitted alone on its bootstrap, every
    node searched by the loop).  Every ``FlatTree`` array, every tree's
    ``classes_`` and every AdaBoost estimator weight must be bitwise equal;
    one speedup row per family is recorded as ``microbench_ml_fit`` and
    gated by ``tools/check_bench_regression.py``.
    """
    from unittest import mock

    from repro.core.cognition import build_model
    from repro.core.config import paper_configuration
    from repro.ml.tree import _TreeBuilder

    dataset = trained_polaris_bench.dataset
    config = paper_configuration()
    rounds = {"adaboost": 20, "xgboost": 20, "random_forest": 10}

    def unfitted(family):
        return build_model(config.with_model(
            family, n_estimators=rounds[family]).model)

    def fit(family):
        return unfitted(family).fit(dataset.features, dataset.labels)

    def fit_with_loop(family):
        if family == "random_forest":
            return fit_forest_per_tree(unfitted(family), dataset.features,
                                       dataset.labels)
        with mock.patch.object(_TreeBuilder, "_best_split", best_split_loop):
            return fit(family)

    def fitted_bytes(model):
        arrays = [getattr(tree.tree_.flat, name) for tree in model.estimators_
                  for name in ("feature", "threshold", "left", "right",
                               "value", "cover")]
        arrays += [tree.classes_ for tree in model.estimators_
                   if hasattr(tree, "classes_")]
        arrays.append(np.asarray(getattr(model, "estimator_weights_", [])))
        return [array.tobytes() for array in arrays]

    rows = []
    for family in rounds:
        assert fitted_bytes(fit(family)) == fitted_bytes(fit_with_loop(family))
        fast = best_of(lambda: fit(family), repeats=5)
        oracle = best_of(lambda: fit_with_loop(family), repeats=3)
        rows.append({
            "family": family,
            "n_estimators": rounds[family],
            "n_rows": int(dataset.features.shape[0]),
            "n_features": int(dataset.features.shape[1]),
            "oracle_seconds": oracle,
            "fast_seconds": fast,
            "speedup": oracle / fast,
            "bitwise_equal": True,
        })
    recorder.record(ExperimentRecord(
        experiment_id="microbench_ml_fit",
        description=("Presorted all-features CART split search (boosting) "
                     "and the lockstep forest vs the per-feature "
                     "argsort-and-scan oracle, whole ensemble fits on the "
                     "bench cognition matrix; trees bitwise equal"),
        parameters={"scale": BENCH_SCALE, "cpu_count": os.cpu_count()},
        rows=rows,
    ))
    speedups = {row["family"]: row["speedup"] for row in rows}
    # The floors only catch a lost fast path.
    assert min(speedups.values()) > 1.3, speedups


def test_model_inference_throughput(benchmark, trained_polaris_bench, design):
    extractor = StructuralFeatureExtractor(design, locality=7,
                                           encoder=trained_polaris_bench.encoder)
    _, matrix = extractor.extract_all(maskable_only=True)
    scores = benchmark(trained_polaris_bench.model.positive_score, matrix)
    assert scores.shape[0] == matrix.shape[0]
