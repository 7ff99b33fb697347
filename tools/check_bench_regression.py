#!/usr/bin/env python
"""Benchmark regression gate: compare latest.json against a committed anchor.

Run by the CI ``bench-regression`` job after the non-slow microbenches have
refreshed ``benchmarks/results/latest.json``: every gated metric is checked
against ``benchmarks/results/baseline.json`` (the committed anchor, seeded
by the PR that introduced this gate) and the script exits non-zero when a
metric regressed by more than ``TOLERANCE`` (25%).

Only **ratio** metrics (speedups of one in-tree implementation over its
in-tree oracle, measured back to back in the same process) are gated:
absolute wall-clock numbers do not transfer between the container that
recorded the baseline and whatever runner CI lands on, but a fast-path /
oracle ratio cancels the machine out, so a >25% drop means the fast path
itself lost its margin — a genuine regression, not runner weather.  The
benches feeding these metrics use best-of-N minima for the same reason.

Usage::

    python tools/check_bench_regression.py            # gate
    python tools/check_bench_regression.py --update   # re-anchor baseline

``--update`` rewrites baseline.json from the current latest.json (gated
experiments only) — do this deliberately, in a PR that explains why the
anchor moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
LATEST = RESULTS_DIR / "latest.json"
BASELINE = RESULTS_DIR / "baseline.json"

#: Allowed relative drop of a gated metric before the gate fails.
TOLERANCE = 0.25

#: experiment_id -> (row key fields, gated metric, higher_is_better).
#: Every gated experiment must be produced by a non-slow microbench, so a
#: plain ``pytest -m "not slow" benchmarks/test_microbenchmarks.py`` always
#: refreshes all of them.
GATED: Dict[str, Tuple[Tuple[str, ...], str, bool]] = {
    "microbench_compiled_sweep": (("design",), "speedup", True),
    "microbench_packed_power": (("design", "comparison"), "speedup", True),
    "microbench_moment_update": (("max_order",), "speedup", True),
    "microbench_ml_scoring": (("design", "comparison"), "speedup", True),
    "microbench_ml_fit": (("family",), "speedup", True),
}

#: Row keys exempt from gating (informational rows): the packed-extraction
#: share in isolation sits at ~1.0x on masked designs (shared mask/noise
#: sampling dominates) and is recorded for transparency, not as a floor.
UNGATED_ROWS = {
    ("microbench_packed_power", ("md5", "power_backend_only")),
    ("microbench_packed_power", ("md5_masked", "power_backend_only")),
}


def load_records(path: Path) -> Dict[str, List[dict]]:
    """Map experiment_id -> rows for every record in a results file."""
    if not path.exists():
        return {}
    return {record["experiment_id"]: record.get("rows", [])
            for record in json.loads(path.read_text())}


def row_key(row: dict, fields: Tuple[str, ...]) -> Tuple:
    return tuple(row.get(field) for field in fields)


def check() -> int:
    latest = load_records(LATEST)
    baseline = load_records(BASELINE)
    if not baseline:
        print(f"error: no baseline at {BASELINE}; seed one with --update",
              file=sys.stderr)
        return 2
    failures: List[str] = []
    checked = 0
    for experiment, (fields, metric, higher_better) in sorted(GATED.items()):
        base_rows = baseline.get(experiment)
        if base_rows is None:
            print(f"  [skip] {experiment}: not anchored in baseline yet")
            continue
        latest_rows = latest.get(experiment)
        if latest_rows is None:
            failures.append(
                f"{experiment}: gated experiment missing from latest.json "
                f"(did the microbench get removed or renamed?)")
            continue
        latest_by_key = {row_key(row, fields): row for row in latest_rows}
        for base_row in base_rows:
            key = row_key(base_row, fields)
            if (experiment, key) in UNGATED_ROWS:
                continue
            current = latest_by_key.get(key)
            if current is None:
                failures.append(f"{experiment} {key}: row missing from "
                                f"latest.json")
                continue
            base_value = float(base_row[metric])
            value = float(current[metric])
            if higher_better:
                floor = base_value * (1.0 - TOLERANCE)
                regressed = value < floor
                bound = f">= {floor:.3f}"
            else:
                ceiling = base_value * (1.0 + TOLERANCE)
                regressed = value > ceiling
                bound = f"<= {ceiling:.3f}"
            checked += 1
            status = "FAIL" if regressed else "ok"
            print(f"  [{status}] {experiment} {key}: {metric} "
                  f"{value:.3f} (baseline {base_value:.3f}, allowed {bound})")
            if regressed:
                failures.append(
                    f"{experiment} {key}: {metric} regressed to "
                    f"{value:.3f} from baseline {base_value:.3f} "
                    f"(allowed {bound})")
    if failures:
        print(f"\n{len(failures)} benchmark regression(s) beyond "
              f"{TOLERANCE:.0%}:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbench regression gate: {checked} gated metric(s) within "
          f"{TOLERANCE:.0%} of baseline")
    return 0


def update() -> int:
    latest = json.loads(LATEST.read_text())
    anchored = [record for record in latest
                if record["experiment_id"] in GATED]
    missing = sorted(set(GATED) - {r["experiment_id"] for r in anchored})
    if missing:
        print(f"error: latest.json lacks gated experiment(s) {missing}; "
              f"run the non-slow microbenches first", file=sys.stderr)
        return 2
    BASELINE.write_text(json.dumps(anchored, indent=2, sort_keys=True) + "\n")
    print(f"baseline re-anchored with {len(anchored)} experiment(s) "
          f"-> {BASELINE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite baseline.json from latest.json")
    args = parser.parse_args(argv)
    return update() if args.update else check()


if __name__ == "__main__":
    sys.exit(main())
