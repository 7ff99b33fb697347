"""Per-gate TVLA leakage assessment of a netlist.

This is the ``leak_estimate(D)`` primitive of the paper's Algorithms 1 and 2:
it simulates a fixed-vs-random (or fixed-vs-fixed) trace campaign, generates
per-gate power traces, and computes Welch's t statistic for every gate.  The
result exposes both raw t-values and the normalised "leakage value per gate"
(|t| / 4.5) that the paper's Table II aggregates per design.

The campaign driver is **chunked**: traces are generated in blocks of
``TvlaConfig.chunk_traces`` and folded into
:class:`~repro.tvla.moments.OnePassMoments` accumulators — the paper's §II-A
acquisition-time moment computation after Schneider & Moradi — so memory
stays ``O(chunk_traces × n_gates)`` regardless of the trace count.  Every
assessment takes this one fold; the classic two-pass Welch test
(:func:`~repro.tvla.welch.welch_t_test` on stacked chunks) is the oracle
tests compare it with.  A campaign's ``(class, group, chunk)`` triples are
independent tasks: they run on every available CPU (inline when there is
one) and each group's per-chunk accumulators are left-folded in global
chunk order, so t-values do not depend on the worker count.

Every chunk's mask/noise randomness is read off Philox counter blocks
addressed by its ``(seed, class, group, chunk)`` coordinates
(:mod:`repro.power.ctrsample`), so for a given ``TvlaConfig.seed`` and
``chunk_traces`` the generated traces — and therefore the t-values — are
identical no matter how the campaign is chunked across workers.  That is
the property :mod:`repro.tvla.sharding` builds on to ship shards to a
caller's executor (a process pool, the campaign queue) and merge the
partial accumulators bitwise-exactly.

With ``TvlaConfig.tvla_order > 1`` the driver additionally evaluates the
higher-order (centered-variance / standardised-skewness) t-tests from the
same accumulators; see :func:`repro.tvla.welch.welch_higher_order`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..netlist.netlist import Netlist
from ..power.ctrsample import CounterStream
from ..power.model import PowerModelConfig
from ..power.traces import PowerTraceGenerator
from ..simulation.vectors import (
    TraceCampaign,
    fixed_vs_fixed_campaigns,
    fixed_vs_random_campaigns,
)
from .moments import OnePassMoments, fold_moments
from .welch import (
    TVLA_THRESHOLD,
    WelchResult,
    moment_order_for_tvla,
    welch_from_accumulators,
    welch_higher_order,
)

#: A (group0, group1) campaign pair, one per fixed class.
CampaignPair = Tuple[TraceCampaign, TraceCampaign]

#: TVLA orders the engine knows how to evaluate (paper order 1 plus the
#: Schneider & Moradi order-2/3 extensions backed by the moment engine).
SUPPORTED_TVLA_ORDERS = (1, 2, 3)

_T = TypeVar("_T")


@dataclass(frozen=True)
class TvlaConfig:
    """Parameters of one TVLA campaign.

    Attributes:
        n_traces: Traces per group, at least 2 (the paper uses 10,000; the
            default here is smaller so the full benchmark suite runs
            quickly, and the benches expose it as a knob).
        mode: ``"fixed_vs_random"`` (default) or ``"fixed_vs_fixed"``.
        n_fixed_classes: Number of distinct fixed input classes evaluated
            per assessment.  Standard TVLA practice runs the fixed-vs-random
            test for several fixed values to avoid blind spots; the reported
            per-gate leakage value averages |t| over the classes, and a gate
            is "leaky" if any class exceeds the threshold.
        threshold: |t| distinguishability threshold.
        seed: RNG seed for stimulus and noise.
        power: Power-model configuration.
        chunk_traces: Trace-block size of the chunked campaign driver; each
            group is simulated and folded ``chunk_traces`` rows at a time.
            Bounds peak trace memory and keeps the matrix pipeline
            cache-resident.  Also the granularity of shard
            boundaries and of the per-chunk counter draws, so results
            depend on ``chunk_traces`` but **not** on the shard layout.
            The chunk is also the parallel task unit: :func:`assess_leakage`
            runs one task per ``(class, group, chunk)`` on every available
            CPU.
        tvla_order: Highest TVLA order to evaluate (1, 2 or 3), computed
            from the moment accumulators (the engine tracks central moments
            up to ``2 * tvla_order``).
        streaming: Init-only and not stored.  Every assessment streams, so
            only ``None`` and ``True`` are accepted; ``False`` (the retired
            two-pass path) raises :class:`ValueError`.  It survives for one
            caller, the benchmark's campaign check
            (``perfbench/suite.py``), and goes when that check drops it.
    """

    n_traces: int = 1000
    mode: str = "fixed_vs_random"
    n_fixed_classes: int = 4
    threshold: float = TVLA_THRESHOLD
    seed: int = 0
    power: PowerModelConfig = field(default_factory=PowerModelConfig)
    chunk_traces: int = 2048
    tvla_order: int = 1
    streaming: InitVar[Optional[bool]] = None

    def __post_init__(self, streaming: Optional[bool]) -> None:
        if streaming is not None and streaming is not True:
            raise ValueError(
                f"streaming={streaming!r} is not supported: every "
                f"assessment folds one-pass moments")
        if self.n_traces < 2:
            raise ValueError(
                f"n_traces must be >= 2, got {self.n_traces!r}")
        if self.chunk_traces < 1:
            raise ValueError("chunk_traces must be >= 1")
        if self.tvla_order not in SUPPORTED_TVLA_ORDERS:
            raise ValueError(
                f"tvla_order must be one of {SUPPORTED_TVLA_ORDERS}, "
                f"got {self.tvla_order!r}")

    def moment_order(self) -> int:
        """Accumulator ``max_order`` required by ``tvla_order``."""
        return moment_order_for_tvla(self.tvla_order)

    def n_chunks(self) -> int:
        """Number of trace chunks per campaign group."""
        return (self.n_traces + self.chunk_traces - 1) // self.chunk_traces


@dataclass
class LeakageAssessment:
    """Per-gate TVLA outcome for one netlist.

    Attributes:
        design_name: Name of the assessed netlist.
        gate_names: Gate order of the arrays below.
        t_values: Order-1 Welch t statistic per gate (worst fixed class).
        degrees_of_freedom: Welch degrees of freedom per gate.
        threshold: |t| threshold used to call a gate leaky.
        n_traces: Traces per group used for the assessment.
        elapsed_seconds: Wall-clock time of the assessment.
        mean_abs_t: Mean |t| across the fixed classes (None for one class).
        tvla_order: Highest TVLA order evaluated.
        order_t_values: Per-gate worst-class t statistic of each evaluated
            higher order (keys 2, 3, ...; empty when ``tvla_order == 1``).
        n_shards: Number of shards the campaign was split into (1 for the
            serial driver).
        failed_shards: Shard indices excluded from a *degraded* campaign
            result (``collect_result(allow_partial=True)`` after those
            shards exhausted their retries).  Empty for every complete
            assessment; degraded results are never cached in the store.
    """

    design_name: str
    gate_names: Tuple[str, ...]
    t_values: np.ndarray
    degrees_of_freedom: np.ndarray
    threshold: float
    n_traces: int
    elapsed_seconds: float
    mean_abs_t: Optional[np.ndarray] = None
    tvla_order: int = 1
    order_t_values: Dict[int, np.ndarray] = field(default_factory=dict)
    n_shards: int = 1
    failed_shards: Tuple[int, ...] = ()

    @cached_property
    def _name_index(self) -> Dict[str, int]:
        # Cached name -> position dict so per-gate lookups are O(1); the
        # masking flow queries every gate of a design when ranking.
        return {name: i for i, name in enumerate(self.gate_names)}

    # ------------------------------------------------------------------
    @property
    def leakage_values(self) -> np.ndarray:
        """Normalised per-gate leakage value.

        Defined as the mean |t| across the fixed classes divided by the
        threshold (falling back to the worst-case |t| when only one class
        was evaluated).  A value above 1.0 means the gate fails TVLA.  The
        paper's "Leakage Value (Per Gate)" column corresponds to the
        per-design mean of this quantity.
        """
        magnitude = (self.mean_abs_t if self.mean_abs_t is not None
                     else np.abs(self.t_values))
        return magnitude / self.threshold

    @property
    def mean_leakage(self) -> float:
        """Design-level leakage value (mean over gates)."""
        if self.t_values.size == 0:
            return 0.0
        return float(self.leakage_values.mean())

    @property
    def leaky_mask(self) -> np.ndarray:
        """Boolean mask of gates with ``|t|`` above the threshold."""
        return np.abs(self.t_values) > self.threshold

    @property
    def leaky_gates(self) -> Tuple[str, ...]:
        """Names of the gates that fail TVLA, sorted by decreasing |t|."""
        order = np.argsort(-np.abs(self.t_values), kind="stable")
        return tuple(self.gate_names[i] for i in order if self.leaky_mask[i])

    @property
    def n_leaky(self) -> int:
        """Number of leaky gates."""
        return int(self.leaky_mask.sum())

    # ------------------------------------------------------------------
    def t_values_for_order(self, order: int) -> np.ndarray:
        """Per-gate worst-class t statistic of one evaluated TVLA order.

        Raises:
            KeyError: if that order was not evaluated.
        """
        if order == 1:
            return self.t_values
        values = self.order_t_values.get(order)
        if values is None:
            raise KeyError(
                f"order-{order} TVLA was not evaluated "
                f"(tvla_order={self.tvla_order})")
        return values

    def leaky_mask_for_order(self, order: int) -> np.ndarray:
        """Boolean leaky mask of one evaluated TVLA order."""
        return np.abs(self.t_values_for_order(order)) > self.threshold

    def n_leaky_for_order(self, order: int) -> int:
        """Number of gates failing TVLA at ``order``."""
        return int(self.leaky_mask_for_order(order).sum())

    def gate_leakage(self, gate_name: str) -> float:
        """Normalised leakage value of one gate.

        Raises:
            KeyError: if the gate was not assessed.
        """
        index = self._name_index.get(gate_name)
        if index is None:
            raise KeyError(f"gate {gate_name!r} was not assessed")
        return float(self.leakage_values[index])

    def gate_t_value(self, gate_name: str) -> float:
        """Raw Welch t statistic of one gate."""
        index = self._name_index.get(gate_name)
        if index is None:
            raise KeyError(f"gate {gate_name!r} was not assessed")
        return float(self.t_values[index])

    def as_dict(self) -> Dict[str, float]:
        """Mapping gate name -> normalised leakage value."""
        return {name: float(value)
                for name, value in zip(self.gate_names, self.leakage_values)}

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics used by reports and benches."""
        summary = {
            "design": self.design_name,
            "gates": len(self.gate_names),
            "leaky_gates": self.n_leaky,
            "mean_leakage": self.mean_leakage,
            "max_abs_t": float(np.abs(self.t_values).max()) if self.t_values.size else 0.0,
            "n_traces": self.n_traces,
            "elapsed_seconds": self.elapsed_seconds,
            "tvla_order": self.tvla_order,
            "n_shards": self.n_shards,
        }
        for order in sorted(self.order_t_values):
            summary[f"leaky_gates_order{order}"] = self.n_leaky_for_order(order)
        return summary


def campaign_schedule(netlist: Netlist,
                      config: TvlaConfig) -> Tuple[CampaignPair, ...]:
    """Build the per-fixed-class stimulus campaigns of one assessment.

    The schedule depends only on the netlist's primary inputs and the TVLA
    configuration, so :func:`repro.core.pipeline.protect_design` builds it
    once and reuses it for the before and after assessments (masking
    preserves the primary inputs).

    Raises:
        ValueError: for unknown campaign modes.
    """
    if config.mode not in ("fixed_vs_random", "fixed_vs_fixed"):
        raise ValueError(f"unknown TVLA mode {config.mode!r}")
    schedule = []
    for class_index in range(max(1, config.n_fixed_classes)):
        class_seed = config.seed + 613 * class_index
        if config.mode == "fixed_vs_random":
            schedule.append(fixed_vs_random_campaigns(
                netlist, config.n_traces, seed=class_seed,
                fixed_seed=1 + class_index))
        else:
            schedule.append(fixed_vs_fixed_campaigns(
                netlist, config.n_traces, seed=class_seed,
                fixed_seed_a=1 + 2 * class_index,
                fixed_seed_b=2 + 2 * class_index))
    return tuple(schedule)


# ----------------------------------------------------------------------
# Per-chunk accumulation (shared with repro.tvla.sharding)
# ----------------------------------------------------------------------
def _fold_chunk(generator: PowerTraceGenerator, campaign: TraceCampaign,
                config: TvlaConfig, stream: CounterStream, chunk_index: int,
                first_chunk: int = 0) -> OnePassMoments:
    """Generate chunk ``chunk_index`` of ``campaign`` and fold it into a
    fresh accumulator.

    ``campaign`` may be a chunk-aligned shard slice whose first chunk is
    global chunk ``first_chunk``; the draws are those of the global chunk,
    so the traces are the ones :meth:`PowerTraceGenerator.generate_stream`
    yields for it.  ``update_batch`` on an empty accumulator stores the
    batch moments directly, so the single-update accumulator is bit-exact.
    """
    start = chunk_index * config.chunk_traces
    chunk = campaign.slice(start, min(campaign.n_traces,
                                      start + config.chunk_traces))
    traces = generator.generate(
        chunk, draws=stream.draws(first_chunk + chunk_index))
    accumulator = OnePassMoments(max_order=config.moment_order(),
                                 shape=(generator.n_gates,))
    accumulator.update_batch(traces.per_gate)
    return accumulator


def accumulate_campaign_chunks(
    generator: PowerTraceGenerator,
    pair: CampaignPair,
    config: TvlaConfig,
    class_index: int,
    first_chunk: int = 0,
) -> Tuple[List[OnePassMoments], List[OnePassMoments]]:
    """Fold one class's (sliced) campaign pair into per-chunk accumulators.

    Every chunk gets its **own** fresh accumulator (:func:`_fold_chunk`).
    Shards return these unmerged so the merge step can left-fold all
    chunks in global chunk order — the exact association of the serial
    run — which is what makes sharded t-values bitwise equal to serial
    ones.

    Args:
        generator: Trace generator of the assessed netlist.
        pair: The class's ``(group0, group1)`` campaigns — either the full
            campaigns or a chunk-aligned shard slice of both.
        config: Campaign configuration (defines chunk size and seed).
        class_index: Index of the fixed class (selects the counter stream).
        first_chunk: Global index of the slice's first chunk; shards pass
            their offset so every chunk reads the counter blocks it reads
            in the serial run.

    Returns:
        ``(chunks0, chunks1)`` — one accumulator per chunk per group, in
        local chunk order.
    """
    per_chunk: Tuple[List[OnePassMoments], List[OnePassMoments]] = ([], [])
    for group_index, campaign in enumerate(pair):
        stream = CounterStream(config.seed, class_index, group_index)
        n_local = (campaign.n_traces + config.chunk_traces - 1) // config.chunk_traces
        per_chunk[group_index].extend(
            _fold_chunk(generator, campaign, config, stream, index,
                        first_chunk)
            for index in range(n_local))
    return per_chunk


def accumulate_campaign_slice(
    generator: PowerTraceGenerator,
    pair: CampaignPair,
    config: TvlaConfig,
    class_index: int,
    first_chunk: int = 0,
) -> Tuple[OnePassMoments, OnePassMoments]:
    """Running-fold reference of :func:`accumulate_campaign_chunks`.

    Folds every chunk of :meth:`PowerTraceGenerator.generate_stream` into
    one running accumulator pair.  The drivers left-fold per-chunk
    accumulators instead; tests compare the two, which associate the
    same chunk moments in the same order.
    """
    shape = (generator.n_gates,)
    max_order = config.moment_order()
    accumulators = (OnePassMoments(max_order=max_order, shape=shape),
                    OnePassMoments(max_order=max_order, shape=shape))
    for group_index, campaign in enumerate(pair):
        stream = CounterStream(config.seed, class_index, group_index)
        for traces in generator.generate_stream(campaign, config.chunk_traces,
                                                stream, first_chunk):
            accumulators[group_index].update_batch(traces.per_gate)
    return accumulators


def _cpu_count() -> int:
    """CPUs this process may run on: the worker count of the chunk driver."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity API on this platform
        return os.cpu_count() or 1


def _run_tasks(tasks: Sequence[Callable[[], _T]]) -> List[_T]:
    """Run ``tasks`` on every available CPU; results come in task order.

    With one CPU (or one task) the tasks run inline and no pool is
    created.  Otherwise a per-call thread pool runs them; if one raises,
    the queued tasks are cancelled and the running ones drained before the
    exception propagates, so no pool thread outlives the call.
    """
    workers = min(_cpu_count(), len(tasks))
    if workers <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers,
                            thread_name_prefix="tvla-chunk") as pool:
        futures = [pool.submit(task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _streamed_class_results(generator: PowerTraceGenerator,
                            campaigns: Sequence[CampaignPair],
                            config: TvlaConfig) -> List[Dict[int, WelchResult]]:
    """Per-class Welch results of a streaming campaign.

    Every ``(class, group, chunk)`` is one task (:func:`_run_tasks` spreads
    them over the CPUs); each task folds its chunk into a fresh
    accumulator.  Each ``(class, group)`` stream is then left-folded in
    global chunk order by :func:`~repro.tvla.moments.fold_moments` — the
    association of :func:`accumulate_campaign_slice`'s running fold and of
    :func:`repro.tvla.sharding.merge_shard_partials` — so t-values are
    bitwise equal to both, whatever the worker count.
    """
    n_chunks = config.n_chunks()
    tasks = [
        partial(_fold_chunk, generator, campaign, config,
                CounterStream(config.seed, class_index, group_index),
                chunk_index)
        for class_index, pair in enumerate(campaigns)
        for group_index, campaign in enumerate(pair)
        for chunk_index in range(n_chunks)
    ]
    chunks = _run_tasks(tasks)
    folded = [fold_moments(chunks[start:start + n_chunks])
              for start in range(0, len(chunks), n_chunks)]
    return [results_from_accumulators(acc0, acc1, config)
            for acc0, acc1 in zip(folded[0::2], folded[1::2])]


def results_from_accumulators(acc0: OnePassMoments, acc1: OnePassMoments,
                              config: TvlaConfig) -> Dict[int, WelchResult]:
    """Welch results for every configured TVLA order from merged moments."""
    results = {1: welch_from_accumulators(acc0, acc1)}
    for order in range(2, config.tvla_order + 1):
        results[order] = welch_higher_order(acc0, acc1, order)
    return results


def aggregate_class_results(
    class_results: Sequence[Dict[int, WelchResult]],
    netlist_name: str,
    gate_names: Tuple[str, ...],
    config: TvlaConfig,
    elapsed_seconds: float,
    n_shards: int = 1,
) -> LeakageAssessment:
    """Combine per-class per-order Welch results into one assessment.

    For every order the reported per-gate statistic is the worst-case
    (largest |t|) class; the order-1 mean |t| across classes additionally
    feeds the normalised leakage value.  Shared by the serial driver and
    :mod:`repro.tvla.sharding`, so both produce identical aggregation.
    """
    worst_t: Dict[int, np.ndarray] = {}
    worst_dof: Optional[np.ndarray] = None
    abs_sum: Optional[np.ndarray] = None
    for results in class_results:
        order1 = results[1]
        magnitude = np.abs(order1.t_statistic)
        if abs_sum is None:
            abs_sum = magnitude.copy()
            worst_dof = order1.degrees_of_freedom.copy()
        else:
            replace = magnitude > np.abs(worst_t[1])
            worst_dof = np.where(replace, order1.degrees_of_freedom, worst_dof)
            abs_sum = abs_sum + magnitude
        for order, result in results.items():
            current = worst_t.get(order)
            if current is None:
                worst_t[order] = result.t_statistic.copy()
            else:
                worst_t[order] = np.where(
                    np.abs(result.t_statistic) > np.abs(current),
                    result.t_statistic, current)
    return LeakageAssessment(
        design_name=netlist_name,
        gate_names=gate_names,
        t_values=worst_t[1],
        degrees_of_freedom=worst_dof,
        threshold=config.threshold,
        n_traces=config.n_traces,
        elapsed_seconds=elapsed_seconds,
        mean_abs_t=abs_sum / len(class_results),
        tvla_order=config.tvla_order,
        order_t_values={order: values for order, values in worst_t.items()
                        if order > 1},
        n_shards=n_shards,
    )


def validate_campaigns(netlist: Netlist, config: TvlaConfig,
                       campaigns: Sequence[CampaignPair]) -> None:
    """Check a pre-built schedule against a configuration and netlist.

    Raises:
        ValueError: for unknown campaign modes or a schedule that does not
            match the configuration.
    """
    if config.mode not in ("fixed_vs_random", "fixed_vs_fixed"):
        raise ValueError(f"unknown TVLA mode {config.mode!r}")
    n_classes = max(1, config.n_fixed_classes)
    if len(campaigns) != n_classes:
        raise ValueError(
            f"campaign schedule has {len(campaigns)} classes; the "
            f"configuration expects {n_classes}")
    for pair in campaigns:
        for campaign in pair:
            if tuple(campaign.input_names) != tuple(netlist.primary_inputs):
                raise ValueError(
                    "campaign schedule inputs do not match the "
                    f"netlist's primary inputs for {netlist.name!r}")
            if campaign.n_traces != config.n_traces:
                raise ValueError(
                    f"campaign has {campaign.n_traces} traces; the "
                    f"configuration expects {config.n_traces}")


def resolve_generator(netlist: Netlist, config: TvlaConfig,
                      generator: Optional[PowerTraceGenerator]
                      ) -> PowerTraceGenerator:
    """Return a generator for ``netlist``, validating a caller-supplied one."""
    if generator is None:
        return PowerTraceGenerator(netlist, config=config.power,
                                   seed=config.seed)
    if generator.netlist is not netlist:
        raise ValueError(
            f"generator was built for netlist {generator.netlist.name!r}, "
            f"not {netlist.name!r}")
    return generator


def assess_leakage(netlist: Netlist,
                   config: Optional[TvlaConfig] = None,
                   generator: Optional[PowerTraceGenerator] = None,
                   campaigns: Optional[Sequence[CampaignPair]] = None,
                   ) -> LeakageAssessment:
    """Run a full per-gate TVLA campaign on ``netlist``.

    Args:
        netlist: The design to assess.
        config: Campaign configuration; defaults to :class:`TvlaConfig`.
        generator: Optional pre-built trace generator for ``netlist``;
            passing one lets callers (e.g. the POLARIS pipeline) reuse the
            levelised simulator and power plan across assessments.
        campaigns: Optional pre-built stimulus schedule (one campaign pair
            per fixed class, as returned by :func:`campaign_schedule`);
            reused by the pipeline across before/after assessments.

    Returns:
        A :class:`LeakageAssessment` with one t value per non-port gate
        (per configured TVLA order).

    Raises:
        ValueError: for unknown campaign modes or a schedule that does not
            match the configuration.
    """
    config = config if config is not None else TvlaConfig()
    start = time.perf_counter()
    if campaigns is None:
        campaigns = campaign_schedule(netlist, config)
    else:
        validate_campaigns(netlist, config, campaigns)
    generator = resolve_generator(netlist, config, generator)
    class_results = _streamed_class_results(generator, campaigns, config)
    elapsed = time.perf_counter() - start
    return aggregate_class_results(class_results, netlist.name,
                                   generator.gate_names, config, elapsed)


def compare_assessments(before: LeakageAssessment,
                        after: LeakageAssessment) -> Dict[str, float]:
    """Summarise the leakage reduction between two assessments.

    Returns a dictionary with the before/after mean leakage values, the
    total leakage reduction percentage (the paper's Table II metric) and the
    reduction in the number of leaky gates.  Higher-order results present in
    *both* assessments are surfaced as ``order{k}_before_leaky`` /
    ``order{k}_after_leaky`` / ``order{k}_mean_abs_t_reduction_pct``.
    """
    before_mean = before.mean_leakage
    after_mean = after.mean_leakage
    reduction_pct = 0.0
    if before_mean > 0:
        reduction_pct = (before_mean - after_mean) / before_mean * 100.0
    report = {
        "before_mean_leakage": before_mean,
        "after_mean_leakage": after_mean,
        "leakage_reduction_pct": reduction_pct,
        "before_leaky_gates": before.n_leaky,
        "after_leaky_gates": after.n_leaky,
        "leaky_gate_reduction": before.n_leaky - after.n_leaky,
    }
    for order in sorted(set(before.order_t_values) & set(after.order_t_values)):
        before_abs = float(np.abs(before.t_values_for_order(order)).mean())
        after_abs = float(np.abs(after.t_values_for_order(order)).mean())
        report[f"order{order}_before_leaky"] = before.n_leaky_for_order(order)
        report[f"order{order}_after_leaky"] = after.n_leaky_for_order(order)
        report[f"order{order}_mean_abs_t_reduction_pct"] = (
            (before_abs - after_abs) / before_abs * 100.0 if before_abs > 0
            else 0.0)
    return report
