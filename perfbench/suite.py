"""The benchmark's three workloads: ``train``, ``protect`` and ``campaign``.

Each workload builds its inputs from the seed -- ``WorkloadConfig.seed``
for the netlists and ``TvlaConfig.seed`` for stimulus and noise -- in an
untimed :meth:`setup`.  :meth:`run` times one pass over the public API,
unit by unit (a design, a model family), and calls ``pause`` between the
units, outside their timers; :meth:`inspect` then checks the outputs outside
the timer and derives the exact work counts that must repeat from pass to
pass.

Failed operations are caught per operation and counted, so one broken
design shows up in ``success_rate`` instead of ending the run.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.campaign import runner
from repro.core import cognition, pipeline
from repro.core.config import ModelConfig, PolarisConfig, paper_configuration
from repro.tvla import assessment as tvla
from repro.workloads import WorkloadConfig, evaluation_designs, training_designs

import tracer

#: Work counts every workload reports (zero where a workload does none).
WORK_COUNTS = ("traces_simulated", "gates_assessed", "gate_traces",
               "tvla_runs", "tree_fits", "shard_tasks", "checkpoint_bytes")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    designs: WorkloadConfig
    training: Optional[Tuple[str, ...]]
    evaluation: Optional[Tuple[str, ...]]
    polaris: PolarisConfig
    model_overrides: Dict[str, Dict[str, int]]
    campaign_chunk_traces: int
    min_reduction_pct: float


def paper_scale(seed: int) -> Scale:
    """``paper_configuration()`` on the full suites at ``scale=1.0``."""
    config = paper_configuration()
    return Scale(designs=WorkloadConfig(scale=1.0, seed=seed),
                 training=None, evaluation=None,
                 polaris=replace(config, tvla=replace(config.tvla, seed=seed)),
                 model_overrides={"xgboost": {}, "random_forest": {}},
                 campaign_chunk_traces=1000, min_reduction_pct=50.0)


def smoke_scale(seed: int) -> Scale:
    """A tiny configuration of the same code paths, for the self-test."""
    return Scale(designs=WorkloadConfig(scale=0.3, seed=seed),
                 training=("c432", "c499", "c880"),
                 evaluation=("des3", "arbiter", "md5"),
                 polaris=PolarisConfig(
                     msize=20, iterations=4,
                     tvla=tvla.TvlaConfig(n_traces=800, chunk_traces=200,
                                          seed=seed),
                     model=ModelConfig(n_estimators=20)),
                 model_overrides={"xgboost": {"n_estimators": 20},
                                  "random_forest": {"n_estimators": 10}},
                 campaign_chunk_traces=200, min_reduction_pct=0.0)


@dataclass
class Inspection:
    """What one pass did, checked outside the timed region."""

    work: Dict[str, int]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Deterministic outputs that must repeat exactly, like ``work``.
    quality: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _tvla_work(assessments, n_classes: int) -> Dict[str, int]:
    """Traces, gates and gate-traces of a set of assessments (2 groups)."""
    traces = [2 * n_classes * a.n_traces for a in assessments]
    gates = [len(a.gate_names) for a in assessments]
    return {"tvla_runs": len(assessments),
            "traces_simulated": sum(traces),
            "gates_assessed": sum(gates),
            "gate_traces": sum(t * g for t, g in zip(traces, gates))}


def _work(**counts: int) -> Dict[str, int]:
    work = dict.fromkeys(WORK_COUNTS, 0)
    work.update(counts)
    return work


def _failure(what: str) -> str:
    return f"{what} raised:\n{traceback.format_exc()}"


def _same_bits(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _same_t_values(a, b) -> bool:
    """Bitwise equality of every order's t-values of two assessments.

    Gate names are not compared: a campaign rebuilds its netlist from the
    serialised spec, which names the gates differently.
    """
    return (_same_bits(a.t_values, b.t_values)
            and sorted(a.order_t_values) == sorted(b.order_t_values)
            and all(_same_bits(a.order_t_values[k], b.order_t_values[k])
                    for k in a.order_t_values))


class Workload:
    name = ""

    def __init__(self, scale: Scale, scratch: Path) -> None:
        self.scale = scale
        self.scratch = scratch

    def training_designs(self):
        return training_designs(replace(self.scale.designs,
                                        designs=self.scale.training))

    def evaluation_designs(self):
        return evaluation_designs(replace(self.scale.designs,
                                          designs=self.scale.evaluation))

    def setup(self):
        raise NotImplementedError

    def run(self, state, units) -> Tuple[float, float, object]:
        """Run one timed pass: ``(start, end, outputs)``.

        Each unit runs inside ``with units.unit():`` (``run.Units``), which
        records its seconds and then pauses; the pauses fall inside
        ``start`` .. ``end``.
        """
        raise NotImplementedError

    def inspect(self, state, outputs) -> Inspection:
        raise NotImplementedError

    def verify(self, state) -> Inspection:
        """Untimed checks made once per run, after the passes."""
        return Inspection(work={}, attempted=0, failed=0)


class Train(Workload):
    """Cognition + AdaBoost (``train_polaris``), XGBoost and RF fits, rules."""

    name = "train"
    families = ("adaboost", "xgboost", "random_forest")

    def setup(self):
        return self.training_designs()

    def run(self, designs, units):
        config = self.scale.polaris
        assessments: List[object] = []
        models, rules, errors = {}, None, []
        counting = tracer.count_assessments(assessments)
        try:
            start = time.perf_counter()
            try:
                with units.unit():
                    trained = pipeline.train_polaris(designs, config)
                models["adaboost"] = trained.model
                for family in self.families[1:]:
                    with units.unit():
                        models[family] = cognition.train_masking_model(
                            trained.dataset, config.with_model(
                                family, **self.scale.model_overrides[family]))
                with units.unit():
                    rules = trained.extract_rules()
            except Exception:
                errors.append(_failure("train pass"))
            end = time.perf_counter()
        finally:
            counting.remove()
        labels = trained.dataset.labels if not errors else None
        return start, end, (assessments, models, rules, labels, errors)

    def inspect(self, designs, outputs):
        assessments, models, rules, labels, errors = outputs
        n_classes = self.scale.polaris.tvla.n_fixed_classes
        result = Inspection(
            work=_work(**_tvla_work(assessments, n_classes),
                       tree_fits=sum(len(m.estimators_)
                                     for m in models.values())),
            attempted=len(self.families),
            failed=len(self.families) - len(models), problems=list(errors))
        if errors:
            return result
        result.check(sorted(np.unique(labels).tolist()) == [0, 1],
                     "cognition dataset lacks one of the two labels")
        for family in self.families:
            result.check(sorted(models[family].classes_.tolist()) == [0, 1],
                         f"{family} was not fitted on both labels")
        result.check(len(rules) > 0, "the extracted rule set is empty")
        result.quality["rules"] = len(rules)
        return result


class Protect(Workload):
    """``protect_design`` on the 11 evaluation designs (paper Table II)."""

    name = "protect"

    def setup(self):
        trained = pipeline.train_polaris(self.training_designs(),
                                         self.scale.polaris)
        return self.evaluation_designs(), trained

    def run(self, state, units):
        designs, trained = state
        reports, errors = [], []
        start = time.perf_counter()
        for design in designs:
            with units.unit():
                try:
                    reports.append(pipeline.protect_design(design, trained,
                                                           1.0))
                except Exception:
                    errors.append(_failure(f"protect_design({design.name})"))
        end = time.perf_counter()
        return start, end, (reports, errors)

    def inspect(self, state, outputs):
        designs, trained = state
        reports, errors = outputs
        n_classes = self.scale.polaris.tvla.n_fixed_classes
        assessments = [a for r in reports for a in (r.before, r.after)]
        result = Inspection(work=_work(**_tvla_work(assessments, n_classes)),
                            attempted=len(designs), failed=len(errors),
                            problems=list(errors))
        for report in reports:
            # Masked gates keep their names.  Most still exceed |t| > 4.5
            # at 10k traces, at about a third of their former |t|, so the
            # leaky-gate *count* need not fall; some gates must stop leaking.
            stopped = (set(report.before.leaky_gates)
                       - set(report.after.leaky_gates))
            result.check(bool(stopped) and report.leakage_reduction_pct > 0,
                         f"{report.design_name}: no gate stopped leaking or "
                         f"mean leakage did not fall "
                         f"({report.leakage_reduction_pct:.2f}%)")
        if reports:
            reduction = float(np.mean([r.leakage_reduction_pct
                                       for r in reports]))
            result.check(reduction >= self.scale.min_reduction_pct,
                         f"mean leakage reduction {reduction:.2f}% is below "
                         f"{self.scale.min_reduction_pct}%")
            result.quality["leakage_reduction_pct"] = reduction
            result.quality["gates_masked"] = sum(r.outcome.n_masked
                                                 for r in reports)
        return result


class Campaign(Workload):
    """Durable sharded order-3 campaigns, then a cached resubmit of each."""

    name = "campaign"
    n_shards = 4
    n_workers = 2
    #: A campaign that takes longer has hung; it fails instead.
    timeout_s = 120.0

    def __init__(self, scale: Scale, scratch: Path) -> None:
        super().__init__(scale, scratch)
        base = scale.polaris.tvla
        self.config = replace(base, tvla_order=3,
                              chunk_traces=scale.campaign_chunk_traces)
        self.last_first_result = None

    def setup(self):
        return self.evaluation_designs()

    def run(self, designs, units):
        roots, results, hits, errors = [], [], [], []
        start = time.perf_counter()
        for design in designs:
            root = tempfile.mkdtemp(dir=self.scratch, prefix="campaign-")
            roots.append(root)
            with units.unit():
                try:
                    results.append(runner.run_campaign(
                        root, design, self.config, n_shards=self.n_shards,
                        n_workers=self.n_workers, timeout=self.timeout_s))
                except Exception:
                    results.append(None)
                    errors.append(_failure(f"run_campaign({design.name})"))
        with units.unit():
            for root, design in zip(roots, designs):
                try:
                    outcome = runner.submit_campaign(
                        root, netlist=design, config=self.config,
                        n_shards=self.n_shards)
                    hits.append((outcome.status, runner.collect_result(
                        root, outcome.spec_hash)))
                except Exception:
                    hits.append(None)
                    errors.append(_failure(f"resubmit({design.name})"))
        end = time.perf_counter()
        return start, end, (roots, results, hits, errors)

    def _shard_outcomes(self, root: str) -> Tuple[int, int, int, int]:
        """(shard tasks, done, attempts, checkpoint bytes) of one root."""
        queue = runner.campaign_queue(root)
        counts = queue.counts()
        tasks = sum(counts.values())
        attempts = sum(queue.lease_info(task_id)["attempts"]
                       for task_id in range(1, tasks + 1))
        size = sum(path.stat().st_size for path in
                   Path(root).glob("campaigns/*/shards/*.moments"))
        return tasks, counts["done"], attempts, size

    def inspect(self, designs, outputs):
        roots, results, hits, errors = outputs
        try:
            tasks, done_tasks, attempts, size = map(
                sum, zip(*(self._shard_outcomes(root) for root in roots)))
        finally:
            for root in roots:
                shutil.rmtree(root, ignore_errors=True)
        done = [r for r in results if r is not None]
        work = _work(**_tvla_work(done, self.config.n_fixed_classes),
                     shard_tasks=tasks, checkpoint_bytes=size)
        result = Inspection(work=work, attempted=attempts,
                            failed=attempts - done_tasks + len(errors),
                            problems=list(errors))
        for design, first, hit in zip(designs, results, hits):
            if first is None or hit is None:
                continue
            status, stored = hit
            result.check(status == "cached",
                         f"{design.name}: resubmit reported {status!r}")
            result.check(_same_t_values(first, stored),
                         f"{design.name}: cache hit differs from the "
                         f"campaign's t-values")
        self.last_first_result = results[0] if results else None
        return result

    def verify(self, designs):
        """The first design's campaign equals serial streaming TVLA bitwise."""
        result = Inspection(work={}, attempted=0, failed=0)
        if self.last_first_result is None:
            result.check(False, "no campaign result to compare with serial")
            return result
        serial = tvla.assess_leakage(designs[0],
                                     replace(self.config, streaming=True))
        result.check(_same_t_values(serial, self.last_first_result),
                     f"{designs[0].name}: sharded campaign t-values differ "
                     f"from serial assess_leakage(streaming=True)")
        return result


WORKLOADS = {cls.name: cls for cls in (Train, Protect, Campaign)}
