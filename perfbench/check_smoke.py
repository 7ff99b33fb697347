"""Self-test of the benchmark on tiny inputs (``run.py --smoke``).

Runs every workload untraced and traced, checks the result line against
``BENCHMARK.json``, checks that the work counts repeat exactly for the same
seed, and checks that the benchmark refuses to run without the library.
Takes about half a minute::

    python3 perfbench/check_smoke.py        # or: python3 -m pytest perfbench/check_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 4, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def smoke(workload: str, trace: int):
    """``(result, work line)`` of one smoke run, which must succeed."""
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    return result, lines[-2]


def test_every_metric_reported():
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = smoke(workload, trace)
            expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            reported = {name: metric["unit"]
                        for name, metric in result["metrics"].items()}
            assert reported == expected, (workload, trace)
            if trace == 0:
                assert all(metric["value"] > 0
                           for metric in result["metrics"].values())


def test_work_counts_repeat_for_a_seed():
    for workload in WORKLOADS:
        assert smoke(workload, 0)[1] == smoke(workload, 0)[1], workload


def test_refuses_to_run_without_the_library():
    with tempfile.TemporaryDirectory() as bare:
        bare = Path(bare)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(WORKLOADS[0], 0, cwd=bare)
        assert done.returncode != 0
        assert done.stdout == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
