"""Per-layer tracing of ``repro``, installed from outside the library.

The benchmark never edits ``src/``.  Instead :func:`install` wraps the
public entry point of every layer listed in :data:`LAYER_SPANS` with a
span that records busy time, self time (busy time minus the time of the
spans it encloses) and, where a layer does countable work, an exact count.

A function that other modules imported with ``from x import y`` is bound
once per importing module, so the wrapper is installed by rebinding every
module global of ``repro`` that still holds the original object (for
example ``assess_leakage`` in ``tvla.assessment``, ``core.cognition`` and
``baselines.valiant``).  Methods are wrapped on their class.  Spans keep a
stack per thread, so the campaign's worker threads nest correctly.
:meth:`Installation.remove` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    """Busy/self seconds per span name, exact counts, top-level intervals."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (start, end) of every span opened with no enclosing span on its
        #: thread; their union is what the layers cover of the wall clock.
        self.top_level: List[Tuple[float, float]] = []
        #: perf_counter when the last campaign submission returned.
        self.last_submit: Optional[float] = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            self.busy[name] += seconds

    def close(self, name: str, start: float, end: float, child_s: float,
              top_level: bool) -> None:
        with self._lock:
            self.busy[name] += end - start
            self.self_s[name] += end - start - child_s
            if top_level:
                self.top_level.append((start, end))

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by the union of top-level spans."""
        covered, reach = 0.0, start
        for lo, hi in sorted(self.top_level):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered / (end - start) if end > start else 0.0


def _argument(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# ----------------------------------------------------------------------
# Count hooks: called with (recorder, result, args, kwargs) after a span.
# ----------------------------------------------------------------------
def _vectors(rec, result, args, kwargs):
    rec.count("simulation.vectors", result.n_vectors)


def _rows_folded(rec, result, args, kwargs):
    rec.count("tvla.rows_folded", _argument(args, kwargs, 1, "samples").shape[0])


def _assessment(rec, result, args, kwargs):
    rec.count("tvla.assessments")


def _feature_rows(rec, result, args, kwargs):
    rec.count("features.rows", result.shape[0])


def _tree_fit(rec, result, args, kwargs):
    rec.count("ml.tree_fits")


def _rules(rec, result, args, kwargs):
    rec.count("xai.rules", len(result))


def _gates_masked(rec, result, args, kwargs):
    rec.count("masking.gates_masked", result.n_masked)


def _submitted(rec, result, args, kwargs):
    rec.last_submit = time.perf_counter()


def _claimed(rec, result, args, kwargs):
    if result is not None and rec.last_submit is not None:
        rec.add_time("campaign.shard_wait", time.perf_counter() - rec.last_submit)


def _shard_task(rec, result, args, kwargs):
    rec.count("campaign.shard_tasks")


def _failed_attempt(rec, result, args, kwargs):
    if result == "retried":
        rec.count("campaign.tasks_retried")
    elif result == "failed":
        rec.count("campaign.tasks_failed")


def _bytes_written(rec, result, args, kwargs):
    rec.count("reliability.bytes_written",
              len(_argument(args, kwargs, 1, "data")))


#: (span name, module, attribute, count hook).  Several attributes may
#: share one span name; their busy times add up.
LAYER_SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("simulation.evaluate", "repro.simulation.simulator",
     "LogicSimulator.evaluate", _vectors),
    ("power.generate", "repro.power.traces", "PowerTraceGenerator.generate",
     None),
    ("power.build_generator", "repro.power.traces",
     "PowerTraceGenerator.__init__", None),
    ("power.ctrsample", "repro.power.ctrsample", "CounterDraws.mask_bytes",
     None),
    ("power.ctrsample", "repro.power.ctrsample", "CounterDraws.noise_counts",
     None),
    ("power.ctrsample", "repro.power.ctrsample", "CounterDraws.gauss", None),
    ("power.analyze_design", "repro.power.overhead", "analyze_design", None),
    ("tvla.assess", "repro.tvla.assessment", "assess_leakage", _assessment),
    ("tvla.campaign_schedule", "repro.tvla.assessment", "campaign_schedule",
     None),
    ("tvla.update_batch", "repro.tvla.moments", "OnePassMoments.update_batch",
     _rows_folded),
    ("tvla.welch", "repro.tvla.assessment", "results_from_accumulators",
     None),
    ("tvla.merge", "repro.tvla.sharding", "merge_shard_partials", None),
    ("features.extract_many", "repro.features.structural",
     "StructuralFeatureExtractor.extract_many", _feature_rows),
    ("ml.train_masking_model", "repro.core.cognition", "train_masking_model",
     None),
    ("ml.fit.adaboost", "repro.ml.adaboost", "AdaBoostClassifier.fit", None),
    ("ml.fit.xgboost", "repro.ml.gradient_boosting",
     "GradientBoostingClassifier.fit", None),
    ("ml.fit.random_forest", "repro.ml.forest", "RandomForestClassifier.fit",
     None),
    ("ml.tree_fit", "repro.ml.tree", "DecisionTreeClassifier.fit", _tree_fit),
    ("ml.tree_fit", "repro.ml.tree", "DecisionTreeRegressor.fit", _tree_fit),
    ("ml.positive_score", "repro.ml.base", "BaseClassifier.positive_score",
     None),
    ("xai.explain", "repro.xai.tree_shap", "TreeShapExplainer.explain_matrix",
     None),
    ("xai.rules", "repro.xai.rules", "RuleExtractor.extract", _rules),
    ("masking.apply_masking", "repro.masking.transform", "apply_masking",
     _gates_masked),
    ("core.polaris_mask", "repro.core.masking", "polaris_mask", None),
    ("core.cognition", "repro.core.cognition", "generate_cognition", None),
    ("campaign.submit", "repro.campaign.runner", "submit_campaign",
     _submitted),
    ("campaign.shard_task", "repro.campaign.runner", "run_shard_task",
     _shard_task),
    ("campaign.collect", "repro.campaign.runner", "collect_result", None),
    ("campaign.worker", "repro.campaign.queue", "run_worker", None),
    ("campaign.queue_open", "repro.campaign.queue", "TaskQueue.__init__",
     None),
    ("campaign.queue_put", "repro.campaign.queue", "TaskQueue.put", None),
    ("campaign.queue_claim", "repro.campaign.queue", "TaskQueue.claim",
     _claimed),
    ("campaign.queue_ack", "repro.campaign.queue", "TaskQueue.ack", None),
    ("campaign.queue_fail", "repro.campaign.queue", "TaskQueue.fail",
     _failed_attempt),
    ("campaign.store_get", "repro.campaign.store", "ResultStore.get", None),
    ("reliability.atomic_write", "repro.reliability.atomic",
     "atomic_write_bytes", _bytes_written),
    # Store objects embed their run time as text, so their size varies
    # and stays out of the byte count.
    ("reliability.atomic_write", "repro.reliability.atomic",
     "publish_exclusive", None),
)


def _span(recorder: Recorder, name: str, fn: Callable,
          hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = recorder.stack()
        frame = [0.0]  # seconds spent in enclosed spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            recorder.close(name, start, end, frame[0], top_level=not stack)
        if hook is not None:
            hook(recorder, result, args, kwargs)
        return result
    return traced


@dataclass
class Installation:
    """Every binding replaced by :func:`install`, for :meth:`remove`."""

    replaced: List[Tuple[object, str, object]] = field(default_factory=list)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self.replaced):
            setattr(owner, attribute, original)
        self.replaced.clear()


def _rebind(owner_module: str, attribute: str, wrapper_for: Callable,
            installation: Installation) -> None:
    """Wrap ``owner_module.attribute`` everywhere it is bound."""
    module = importlib.import_module(owner_module)
    if "." in attribute:
        class_name, method = attribute.split(".")
        cls = getattr(module, class_name)
        original = cls.__dict__[method]
        installation.replaced.append((cls, method, original))
        setattr(cls, method, wrapper_for(original))
        return
    original = getattr(module, attribute)
    wrapper = wrapper_for(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for global_name, value in list(vars(loaded).items()):
            if value is original:
                installation.replaced.append((loaded, global_name, original))
                setattr(loaded, global_name, wrapper)


def install(recorder: Recorder) -> Installation:
    """Wrap every layer entry point so it reports into ``recorder``."""
    installation = Installation()
    for name, module, attribute, hook in LAYER_SPANS:
        _rebind(module, attribute,
                lambda fn, name=name, hook=hook: _span(recorder, name, fn, hook),
                installation)
    return installation


def count_assessments(sink: List[object]) -> Installation:
    """Append every :class:`LeakageAssessment` that ``assess_leakage`` returns
    to ``sink``; the only hook the untraced runs install (the train
    workload's TVLA work is not visible in its outputs otherwise)."""
    def wrapper_for(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            assessment = fn(*args, **kwargs)
            sink.append(assessment)
            return assessment
        return counted

    installation = Installation()
    _rebind("repro.tvla.assessment", "assess_leakage", wrapper_for,
            installation)
    return installation


#: Per-layer metrics of the traced run: (metric, unit, better, source,
#: span or count name, the end-to-end metric it should move).
#: Sources: "busy" and "self" seconds of a span, or an exact "count".
LAYER_METRICS: Tuple[Tuple[str, str, str, str, str, str], ...] = (
    ("simulation.evaluate_s", "s", "lower", "busy", "simulation.evaluate",
     "gate_traces_per_s on protect and campaign"),
    ("simulation.vectors", "count", "lower", "count", "simulation.vectors",
     "workload size"),
    ("power.generate_self_s", "s", "lower", "self", "power.generate",
     "wall_s on protect"),
    ("power.ctrsample_s", "s", "lower", "busy", "power.ctrsample",
     "wall_s on protect"),
    ("power.build_generator_s", "s", "lower", "busy", "power.build_generator",
     "wall_s on campaign (one generator per shard)"),
    ("power.analyze_design_s", "s", "lower", "busy", "power.analyze_design",
     "wall_s on protect"),
    ("tvla.assess_self_s", "s", "lower", "self", "tvla.assess",
     "wall_s on protect and train"),
    ("tvla.update_batch_s", "s", "lower", "busy", "tvla.update_batch",
     "wall_s on campaign first, then protect"),
    ("tvla.rows_folded", "count", "lower", "count", "tvla.rows_folded",
     "workload size"),
    ("tvla.welch_s", "s", "lower", "busy", "tvla.welch",
     "wall_s on protect and campaign"),
    ("tvla.campaign_schedule_s", "s", "lower", "busy",
     "tvla.campaign_schedule", "wall_s on protect and campaign"),
    ("tvla.assessments", "count", "lower", "count", "tvla.assessments",
     "workload size"),
    ("tvla.merge_s", "s", "lower", "busy", "tvla.merge", "wall_s on campaign"),
    ("features.extract_many_s", "s", "lower", "busy", "features.extract_many",
     "wall_s on protect and train"),
    ("features.rows", "count", "lower", "count", "features.rows",
     "workload size"),
    ("ml.train_masking_model_s", "s", "lower", "busy",
     "ml.train_masking_model", "wall_s on train"),
    ("ml.fit_s.adaboost", "s", "lower", "busy", "ml.fit.adaboost",
     "wall_s on train, setup_s on protect"),
    ("ml.fit_s.xgboost", "s", "lower", "busy", "ml.fit.xgboost",
     "wall_s on train"),
    ("ml.fit_s.random_forest", "s", "lower", "busy", "ml.fit.random_forest",
     "wall_s on train"),
    ("ml.tree_fits", "count", "lower", "count", "ml.tree_fits",
     "workload size"),
    ("ml.positive_score_s", "s", "lower", "busy", "ml.positive_score",
     "wall_s on protect"),
    ("xai.explain_s", "s", "lower", "busy", "xai.explain", "wall_s on train"),
    ("xai.rules", "count", "higher", "count", "xai.rules", "wall_s on train"),
    ("masking.apply_masking_s", "s", "lower", "busy", "masking.apply_masking",
     "wall_s on protect and train"),
    ("masking.gates_masked", "count", "lower", "count", "masking.gates_masked",
     "workload size"),
    ("core.polaris_mask_s", "s", "lower", "busy", "core.polaris_mask",
     "wall_s on protect"),
    ("core.cognition_self_s", "s", "lower", "self", "core.cognition",
     "wall_s on train"),
    ("campaign.submit_s", "s", "lower", "busy", "campaign.submit",
     "wall_s on campaign"),
    ("campaign.shard_task_s", "s", "lower", "busy", "campaign.shard_task",
     "wall_s on campaign"),
    ("campaign.shard_tasks", "count", "lower", "count", "campaign.shard_tasks",
     "error_rate on campaign"),
    ("campaign.worker_self_s", "s", "lower", "self", "campaign.worker",
     "wall_s on campaign (idle polling between shards)"),
    ("campaign.queue_open_s", "s", "lower", "busy", "campaign.queue_open",
     "wall_s on campaign"),
    ("campaign.queue_claim_s", "s", "lower", "busy", "campaign.queue_claim",
     "wall_s on campaign"),
    ("campaign.queue_ack_s", "s", "lower", "busy", "campaign.queue_ack",
     "wall_s on campaign"),
    ("campaign.queue_put_s", "s", "lower", "busy", "campaign.queue_put",
     "wall_s on campaign"),
    ("campaign.shard_wait_s", "s", "lower", "busy", "campaign.shard_wait",
     "wall_s on campaign"),
    ("campaign.collect_s", "s", "lower", "busy", "campaign.collect",
     "wall_s on campaign"),
    ("campaign.store_get_s", "s", "lower", "busy", "campaign.store_get",
     "wall_s on campaign"),
    ("campaign.tasks_retried", "count", "lower", "count",
     "campaign.tasks_retried", "error_rate on campaign"),
    ("campaign.tasks_failed", "count", "lower", "count",
     "campaign.tasks_failed", "error_rate on campaign"),
    ("reliability.atomic_write_s", "s", "lower", "busy",
     "reliability.atomic_write", "wall_s on campaign"),
    ("reliability.bytes_written", "count", "lower", "count",
     "reliability.bytes_written", "wall_s on campaign"),
)


def layer_values(recorder: Recorder) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced pass."""
    sources = {"busy": recorder.busy, "self": recorder.self_s,
               "count": recorder.counts}
    return {metric: sources[source].get(key, 0)
            for metric, _unit, _better, source, key, _moves in LAYER_METRICS}
