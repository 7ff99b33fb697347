"""The repository benchmark: ``train`` / ``protect`` / ``campaign``.

Runs one workload at the paper configuration on the library built from
``src/`` of this checkout and prints, as the last line of its standard
output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` they are the per-layer ones, taken
by wrapping each layer's entry points from outside the library (see
``tracer.py``).  Usage::

    python3 perfbench/run.py --workload protect --seed 7 --seconds 20 --trace 0

``--smoke`` runs the same code paths on tiny inputs (the self-test in
``check_smoke.py`` uses it).  Exits 2 without a result when the library
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

import hostspeed
import tracer

ROOT = Path(__file__).resolve().parent.parent
#: An untraced run sets up at least ``MIN_SETUPS`` times and goes on while
#: the set-ups take under ``SETUP_SECONDS`` in total, up to ``MAX_SETUPS``;
#: ``setup_s`` is their median, so cheap set-ups get more samples.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 2, 20, 2.0
#: Timed passes per run, at least; more while they fit in ``--seconds``.
MIN_PASSES = 2
#: The traced run fails its self-check below this share of ``wall_s``
#: covered by top-level layer spans.
MIN_COVERAGE_PCT = 95.0


class Units:
    """Seconds of the timed units of one pass; ``pause`` runs between them."""

    def __init__(self, pause: Callable[[], None]) -> None:
        self.pause = pause
        self.seconds: List[float] = []

    @contextmanager
    def unit(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds.append(time.perf_counter() - start)
            self.pause()


class Pass(NamedTuple):
    start: float
    end: float
    units: List[float]  # seconds of each timed unit
    references: List[float]  # reference blocks; empty for a traced pass
    inspection: object  # suite.Inspection
    recorder: Optional[tracer.Recorder]  # None for an untraced pass

    @property
    def wall(self) -> float:
        """Seconds of the pass, reference blocks and all."""
        return self.end - self.start

    @property
    def busy(self) -> float:
        """Seconds of the timed units alone."""
        return sum(self.units)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "protect", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    return parser.parse_args(argv)


def measure(workload, seconds: float, traced: bool):
    """Set up, then run timed passes for about ``seconds``.

    A traced run sets up once and alternates untraced and traced passes,
    so the tracing overhead is measured against passes of the same run.
    An untraced pass times the reference block before its first unit and
    after each unit; a traced one does not, so the layer spans cover it.
    """

    setups = []
    while True:
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        if traced or len(setups) == MAX_SETUPS or (
                len(setups) >= MIN_SETUPS and sum(setups) >= SETUP_SECONDS):
            break

    passes = []
    began = time.perf_counter()
    while True:
        recorder, references = None, []
        if traced and len(passes) % 2 == 1:
            recorder = tracer.Recorder()
            installation = tracer.install(recorder)
            units = Units(lambda: None)
        else:
            units = Units(
                lambda: references.append(hostspeed.reference_block()))
            units.pause()
        try:
            start, end, outputs = workload.run(state, units)
        finally:
            if recorder is not None:
                installation.remove()
        passes.append(Pass(start, end, units.seconds, references,
                           workload.inspect(state, outputs), recorder))
        elapsed = time.perf_counter() - began
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(
                p.wall for p in passes) > seconds:
            break
    return setups, passes, workload.verify(state)


def layer_metrics(passes, checks):
    """Per-layer metrics of the traced passes; appends their self-checks."""
    traced = [p for p in passes if p.recorder is not None]
    layers = [tracer.layer_values(p.recorder) for p in traced]
    metrics = {}
    for name, unit, *_ in tracer.LAYER_METRICS:
        values = [layer[name] for layer in layers]
        if unit == "count":
            checks.append((len(set(values)) == 1,
                           f"{name} differs between traced passes: {values}"))
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.fmean(values), unit)
    coverage = min(100.0 * p.recorder.coverage(p.start, p.end)
                   for p in traced)
    checks.append((coverage >= MIN_COVERAGE_PCT,
                   f"top-level layer spans cover {coverage:.2f}% of wall_s, "
                   f"below {MIN_COVERAGE_PCT}%"))
    # The first pass also warms caches and the allocator; leave it out of
    # the comparison when another untraced pass exists.
    untraced = [p.busy for p in passes if p.recorder is None]
    overhead = (statistics.median(p.busy for p in traced)
                / statistics.median(untraced[1:] or untraced) - 1.0)
    metrics["trace.coverage_pct"] = (coverage, "%")
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    for name, value in passes[0].inspection.work.items():
        metrics[f"work.{name}"] = (value, "count")
    return metrics


def summarize(setups, passes, verification, traced: bool):
    """``(result object, failed checks)`` of one run."""
    inspections = [p.inspection for p in passes] + [verification]
    fingerprints = {json.dumps([p.inspection.work, p.inspection.quality],
                               sort_keys=True) for p in passes}
    checks = [(len(fingerprints) == 1, "work counts differ between passes: "
               + " / ".join(sorted(fingerprints)))]
    metrics = layer_metrics(passes, checks) if traced else {}
    problems = [problem for i in inspections for problem in i.problems]
    problems += [problem for ok, problem in checks if not ok]
    attempted = sum(i.attempted for i in inspections) + len(checks)
    failed = (sum(i.failed for i in inspections)
              + sum(1 for ok, _ in checks if not ok))
    if not traced:
        wall = statistics.median(
            hostspeed.at_reference_speed(p.busy, p.references)
            for p in passes)
        gate_traces = passes[0].inspection.work["gate_traces"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "gate_traces_per_s": (gate_traces / wall, "gate_traces/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "success_rate": (1.0 - failed / attempted, "fraction"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import suite

    scale = (suite.smoke_scale if args.smoke else suite.paper_scale)(args.seed)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp",
                                    prefix=f"{args.workload}-"))
    try:
        workload = suite.WORKLOADS[args.workload](scale, scratch)
        setups, passes, verification = measure(workload, args.seconds,
                                               bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result, problems = summarize(setups, passes, verification,
                                 bool(args.trace))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    references = [round(statistics.median(p.references), 4)
                  for p in passes if p.references]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"setups={len(setups)} busy={[round(p.busy, 3) for p in passes]} "
          f"reference={references}")
    print("perfbench: work "
          + json.dumps(passes[0].inspection.work, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
