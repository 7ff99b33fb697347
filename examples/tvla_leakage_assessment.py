#!/usr/bin/env python3
"""Standalone TVLA leakage assessment of a gate-level design.

Shows the substrate layers below POLARIS: build (or load) a netlist, run a
fixed-vs-random TVLA campaign, and inspect which gates fail the ±4.5
threshold — the paper's Fig. 4 viewpoint, before any protection is applied.
The script also demonstrates the BENCH file round-trip and the one-pass
moments accumulator (Schneider–Moradi) matching the two-pass statistics.

Run with::

    python examples/tvla_leakage_assessment.py [benchmark-name]
"""

from __future__ import annotations

import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core import format_table
from repro.netlist import load_benchmark, parse_bench_file, write_bench_file
from repro.power import PowerTraceGenerator
from repro.simulation import fixed_vs_random_campaigns
from repro.tvla import (
    OnePassMoments,
    TvlaConfig,
    assess_leakage,
    assess_leakage_sharded,
    welch_from_accumulators,
    welch_t_test,
)


def main(name: str = "sin") -> None:
    print(f"Building the {name!r} benchmark ...")
    design = load_benchmark(name, scale=0.4)
    stats = design.stats()
    print(f"  {stats['gates']} gates, {stats['primary_inputs']} inputs, "
          f"{stats['maskable_gates']} maskable\n")

    # BENCH round-trip: write the netlist to disk and parse it back.
    with tempfile.TemporaryDirectory() as tmp:
        path = write_bench_file(design, Path(tmp) / f"{name}.bench")
        reloaded = parse_bench_file(path)
        print(f"BENCH round-trip: wrote {path.name}, reparsed "
              f"{len(reloaded)} gates (match={len(reloaded) == len(design)})\n")

    print("Running fixed-vs-random TVLA (per-gate Welch's t-test) ...")
    config = TvlaConfig(n_traces=600, n_fixed_classes=4, seed=5)
    assessment = assess_leakage(design, config)
    print(f"  traces per group : {config.n_traces} x {config.n_fixed_classes} classes")
    print(f"  leaky gates      : {assessment.n_leaky} / {len(assessment.gate_names)}")
    print(f"  mean leakage     : {assessment.mean_leakage:.2f} (|t|/4.5)")
    print(f"  assessment time  : {assessment.elapsed_seconds:.2f} s\n")

    worst = np.argsort(-np.abs(assessment.t_values))[:10]
    rows = [[assessment.gate_names[i],
             design.gate(assessment.gate_names[i]).gate_type.value,
             float(assessment.t_values[i]),
             "yes" if abs(assessment.t_values[i]) > assessment.threshold else "no"]
            for i in worst]
    print("Top-10 leakiest gates:")
    print(format_table(["gate", "type", "t value", "fails TVLA"], rows))

    # One-pass vs two-pass statistics on the design-level trace.
    print("\nOne-pass (Schneider-Moradi) vs two-pass Welch on total power:")
    generator = PowerTraceGenerator(design, seed=5)
    fixed, random_group = generator.generate_pair(
        fixed_vs_random_campaigns(design, 600, seed=5))
    two_pass = welch_t_test(fixed.total, random_group.total)
    acc_fixed, acc_random = OnePassMoments(), OnePassMoments()
    acc_fixed.update_batch(fixed.total)
    acc_random.update_batch(random_group.total)
    one_pass = welch_from_accumulators(acc_fixed, acc_random)
    print(f"  two-pass t = {float(two_pass.t_statistic):8.3f}")
    print(f"  one-pass t = {float(one_pass.t_statistic):8.3f}  "
          f"(difference {abs(float(two_pass.t_statistic) - float(one_pass.t_statistic)):.2e})")

    # Sharded campaign + higher-order TVLA: ship the trace range in shards
    # to a process pool, merge the partial accumulators, and read the
    # order-2 (centered-variance) verdict next to the order-1 one.  For a
    # given seed the t-values equal the serial run's bit for bit, whatever
    # the shard count.
    print("\nSharded campaign (4 shards, process pool) with order-2 TVLA:")
    sharded_config = TvlaConfig(n_traces=600, n_fixed_classes=4, seed=5,
                                chunk_traces=128, tvla_order=2)
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=get_context("spawn")) as pool:
        sharded = assess_leakage_sharded(design, sharded_config, n_shards=4,
                                         executor=pool)
    serial = assess_leakage(design, sharded_config)
    identical = np.array_equal(sharded.t_values, serial.t_values)
    print(f"  shards           : {sharded.n_shards}")
    print(f"  order-1 leaky    : {sharded.n_leaky}")
    print(f"  order-2 leaky    : {sharded.n_leaky_for_order(2)}")
    print(f"  vs serial driver : bitwise equal t-values: {identical}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "sin")
