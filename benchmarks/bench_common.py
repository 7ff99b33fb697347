"""Shared configuration and helpers for the benchmark harness.

Every paper table/figure has one bench module.  The defaults are sized so
the whole harness completes in a few minutes on a laptop; environment
variables scale the experiments up towards the paper's setting:

* ``POLARIS_BENCH_SCALE``  — benchmark netlist scale factor (default 0.35).
* ``POLARIS_BENCH_TRACES`` — TVLA traces per group (default 500; the paper
  uses 10,000).
* ``POLARIS_BENCH_DESIGNS`` — comma-separated subset of evaluation designs
  (default: the full 11-design suite of Table II).
* ``POLARIS_BENCH_CHUNK`` — trace-chunk size of the streaming TVLA driver
  (default 2048); campaigns larger than one chunk stream their moments
  instead of materialising full trace matrices.

Results (text tables + JSON) are written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import sys
import timeit
from pathlib import Path
from typing import Callable, Tuple

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import ModelConfig, PolarisConfig  # noqa: E402
from repro.netlist import EVALUATION_SUITE  # noqa: E402
from repro.tvla import TvlaConfig  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_SCALE = float(os.environ.get("POLARIS_BENCH_SCALE", "0.35"))
BENCH_TRACES = int(os.environ.get("POLARIS_BENCH_TRACES", "500"))
BENCH_CHUNK = int(os.environ.get("POLARIS_BENCH_CHUNK", "2048"))
_default_designs = ",".join(EVALUATION_SUITE)
BENCH_DESIGNS = tuple(
    name.strip()
    for name in os.environ.get("POLARIS_BENCH_DESIGNS", _default_designs).split(",")
    if name.strip()
)


def bench_tvla_config(seed: int = 17) -> TvlaConfig:
    """TVLA configuration shared by all benches.

    Campaigns larger than ``BENCH_CHUNK`` traces (e.g. paper-scale runs
    with ``POLARIS_BENCH_TRACES=10000``) automatically use the streaming
    one-pass accumulator driver.
    """
    return TvlaConfig(n_traces=BENCH_TRACES, n_fixed_classes=4, seed=seed,
                      chunk_traces=BENCH_CHUNK)


def bench_polaris_config() -> PolarisConfig:
    """POLARIS configuration used by the benches.

    Follows the paper's L=7 / theta_r=0.7 / AdaBoost choice; ``msize`` and
    ``iterations`` are reduced from (200, 100) so cognition generation on
    the scaled-down training designs stays in CI-scale time.
    """
    return PolarisConfig(
        msize=40,
        locality=7,
        iterations=8,
        theta_r=0.70,
        tvla=bench_tvla_config(seed=11),
        model=ModelConfig(model_type="adaboost", learning_rate=0.1,
                          n_estimators=100, max_depth=3),
        seed=23,
    )


def write_text_result(name: str, content: str) -> Path:
    """Persist a rendered table under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    return path


def best_of(fn: Callable[[], object], repeats: int = 5,
            number: int = 1) -> float:
    """Fastest seconds per call of ``fn``: the minimum over ``repeats``
    ``timeit`` runs of ``number`` calls each."""
    return min(timeit.timeit(fn, number=number)
               for _ in range(repeats)) / number


def interleaved_best_of(fast: Callable[[], object],
                        oracle: Callable[[], object],
                        repeats: int) -> Tuple[float, float]:
    """:func:`best_of` for a fast path and its oracle, timed alternately.

    Each repeat times one call of each, back to back, so a burst of load
    from another process on a shared host slows both sides of the ratio
    rather than only one of them.  Returns ``(fast, oracle)`` seconds.
    """
    fast_runs, oracle_runs = [], []
    for _ in range(repeats):
        fast_runs.append(timeit.timeit(fast, number=1))
        oracle_runs.append(timeit.timeit(oracle, number=1))
    return min(fast_runs), min(oracle_runs)
