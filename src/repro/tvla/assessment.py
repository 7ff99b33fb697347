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
tests compare it with.

There is one fold path.  :func:`fold_trace_range` enumerates the ``(class,
group, chunk)`` tasks of a trace range and folds each chunk into a fresh
accumulator; :func:`merge_shard_partials` left-folds those per-chunk
accumulators in global chunk order.  :func:`assess_leakage` folds
``[0, n_traces)`` on every available CPU and merges it as a one-shard
campaign: with one CPU the chunks fold inline, with more the call forks one
child process per extra CPU, each folding a fixed share of the chunks, and
the children send their accumulators back over pipes (:func:`_run_tasks`).
Processes, not threads, because a chunk fold is many short numpy calls and
threads of one process would hand the GIL back and forth between them.  A
durable campaign shard (:mod:`repro.campaign.runner`) folds its
chunk-aligned range inline on its worker thread, and the collector merges
all shards.

Every chunk's mask/noise randomness is read off Philox counter blocks
addressed by its ``(seed, class, group, chunk)`` coordinates
(:mod:`repro.power.ctrsample`), so for a given ``TvlaConfig.seed`` and
``chunk_traces`` the generated traces — and therefore the t-values — do
not depend on the worker count or on the shard layout
(:func:`repro.tvla.sharding.shard_trace_ranges`): every layout merges
bitwise-exactly to the serial assessment.

With ``TvlaConfig.tvla_order > 1`` the driver additionally evaluates the
higher-order (centered-variance / standardised-skewness) t-tests from the
same accumulators; see :func:`repro.tvla.welch.welch_higher_order`.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from typing import (BinaryIO, Callable, Dict, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np

from ..netlist.netlist import Netlist
from ..power.bitops import column_blocks
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

#: One trace range's partials: per fixed class, a (group0, group1) pair of
#: **per-chunk accumulator lists** in chunk order, returned unmerged so
#: :func:`merge_shard_partials` can left-fold all chunks of a campaign in
#: global chunk order (the association that makes t-values independent of
#: the shard layout).
ShardChunkMoments = List[Tuple[List[OnePassMoments], List[OnePassMoments]]]


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
# The chunk fold and its merge (shared with repro.campaign.runner)
# ----------------------------------------------------------------------
#: Per-thread block buffers of :func:`_fold_chunk`, grown to the largest
#: chunk and block the thread has folded and reused for every later chunk.
_BLOCK_BUFFERS = threading.local()


def _thread_buffer(role: str, dtype: np.dtype, rows: int,
                   columns: int) -> np.ndarray:
    """This thread's C-order ``(rows, columns)`` buffer for ``role``."""
    buffers = getattr(_BLOCK_BUFFERS, "by_role", None)
    if buffers is None:
        buffers = _BLOCK_BUFFERS.by_role = {}
    size = rows * columns
    flat = buffers.get((role, dtype))
    if flat is None or flat.size < size:
        flat = buffers[(role, dtype)] = np.empty(size, dtype=dtype)
    return flat[:size].reshape(rows, columns)


def _fold_chunk(generator: PowerTraceGenerator, campaign: TraceCampaign,
                config: TvlaConfig, stream: CounterStream, chunk_index: int,
                first_chunk: int = 0) -> OnePassMoments:
    """Generate chunk ``chunk_index`` of ``campaign`` and fold it into a
    fresh accumulator.

    ``campaign`` may be a chunk-aligned shard slice whose first chunk is
    global chunk ``first_chunk``; the draws are those of the global chunk,
    so the traces are the ones :meth:`PowerTraceGenerator.generate_stream`
    yields for it.  The chunk never materialises: each gate block of
    :meth:`PowerTraceGenerator._fill_blocks` is folded while it is still
    cache-resident, through this thread's reused block buffers.  The
    blocks, their layout and the fold are those ``update_batch`` applies to
    ``generate``'s matrix, and ``update_batch`` on an empty accumulator
    stores the batch moments directly, so the accumulator is bitwise that
    of ``update_batch(generate(...).per_gate)``.
    """
    first_trace = chunk_index * config.chunk_traces
    chunk = campaign.slice(first_trace, min(campaign.n_traces,
                                            first_trace + config.chunk_traces))
    n_traces = chunk.n_traces
    blocks = column_blocks(generator.n_gates, n_traces)
    width = max((stop - start for start, stop in blocks), default=0)
    dtype = generator.trace_dtype
    fill = _thread_buffer("fill", dtype, width, n_traces)
    scratch = _thread_buffer("noise", dtype, width, n_traces)
    # Transposes of C-order gate-major buffers: the (n_traces, width)
    # F-order layout of generate's per_gate blocks.
    work = _thread_buffer("work", np.float64, width, n_traces).T
    chain = (_thread_buffer("chain", np.float64, width, n_traces).T
             if config.moment_order() > 2 else None)
    accumulator = OnePassMoments(max_order=config.moment_order(),
                                 shape=(generator.n_gates,))
    filled = generator._fill_blocks(
        chunk, stream.draws(first_chunk + chunk_index), blocks, fill, scratch)
    accumulator._update_blocks(
        n_traces, ((start, stop, block.T) for start, stop, block in filled),
        work, chain)
    return accumulator


def _cpu_count() -> int:
    """CPUs this process may run on: the worker count of the chunk driver."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity API on this platform
        return os.cpu_count() or 1


class ChunkWorkerError(RuntimeError):
    """A forked chunk-fold process died before it sent its share back, or
    failed with an exception that cannot cross the pipe."""


#: What Python 3.12+ warns on ``os.fork`` in a process with a second OS
#: thread (numpy's idle OpenBLAS pool is one).  A fold child only runs
#: numpy arithmetic on arrays it inherited, pickles its accumulators into
#: a pipe and leaves with ``os._exit``: it takes none of the locks the
#: caller's other threads use (glibc resets malloc's own at the fork), so
#: this one warning is silenced around the fork.
_FORK_THREADS_WARNING = (r"This process (\(pid=\d+\) )?is multi-threaded, "
                         r"use of fork\(\) may lead to deadlocks in the "
                         r"child\.")


def _fork() -> int:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=_FORK_THREADS_WARNING,
                                category=DeprecationWarning)
        return os.fork()


def _share_payload(share: Sequence[Callable[[], _T]]) -> bytes:
    """A child's pickled ``(True, results)``, or ``(False, exception)``."""
    try:
        return pickle.dumps((True, [task() for task in share]),
                            pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:
        try:
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            pickle.loads(payload)
            return payload
        except Exception:
            text = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
            return pickle.dumps((False, ChunkWorkerError(
                f"a chunk fold in process {os.getpid()} failed with an "
                f"exception that cannot be sent back:\n{text}")),
                pickle.HIGHEST_PROTOCOL)


def _fold_share(share: Sequence[Callable[[], _T]], read_fd: int,
                write_fd: int) -> None:
    """Body of a forked child: fold ``share``, send it, never return."""
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(_share_payload(share))
        code = 0
    finally:
        os._exit(code)


def _share_from(pid: int, payload: bytes, status: int) -> list:
    """The results a child sent, or the error it sent or died of."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0 and payload:
        ok, value = pickle.loads(payload)
        if ok:
            return value
        raise value
    how = (f"was killed by signal {-code}" if code < 0
           else f"exited with status {code}")
    raise ChunkWorkerError(
        f"chunk-fold process {pid} {how} before it sent its results")


def _run_tasks(tasks: Sequence[Callable[[], _T]], workers: int) -> List[_T]:
    """Run ``tasks`` in up to ``workers`` processes; results come in task
    order.

    With one worker (or one task), or where ``os.fork`` does not exist, the
    tasks run inline.  Otherwise the call forks ``workers - 1`` children:
    task ``i`` runs in process ``i % workers``, the caller folding share 0
    itself while the children fold theirs on copy-on-write views of the
    generator and the campaigns (a spawned worker would have to rebuild
    or unpickle both on every call).  Each child pickles its results into
    a pipe and leaves with ``os._exit``.  A chunk fold makes about ten short
    numpy calls per gate block, so threads in one process lose much of
    their time to GIL hand-offs; processes do not share a GIL.  A child's
    exception is re-raised here, and a child that dies, or whose exception
    cannot be pickled, raises :class:`ChunkWorkerError`.  On every path
    every child is reaped (killed first, if the call is leaving early), so
    none outlives the call.  Each share is a fixed function of the task
    list, and the results are put back in task order, so the outcome is
    bitwise the inline one.
    """
    workers = min(workers, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [task() for task in tasks]
    children: Dict[int, BinaryIO] = {}
    try:
        for rank in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = _fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _fold_share(tasks[rank::workers], read_fd, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        shares = [[task() for task in tasks[0::workers]]]
        for pid, pipe in list(children.items()):
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            pipe.close()
            del children[pid]
            shares.append(_share_from(pid, payload, status))
    finally:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
    results: List[_T] = [None] * len(tasks)  # type: ignore[list-item]
    for rank, share in enumerate(shares):
        results[rank::workers] = share
    return results


def fold_trace_range(generator: PowerTraceGenerator,
                     campaigns: Sequence[CampaignPair], config: TvlaConfig,
                     start: int, stop: int,
                     workers: int = 1) -> ShardChunkMoments:
    """Fold traces ``[start, stop)`` of every class into per-chunk
    accumulators.

    The one enumerator of a campaign's chunk tasks: every ``(class, group,
    chunk)`` of the range is one :func:`_fold_chunk` call, and
    :func:`_run_tasks` runs them in ``workers`` processes (inline for one).
    :func:`assess_leakage` folds ``[0, n_traces)`` on every CPU; a campaign
    shard (:func:`repro.campaign.runner.run_shard_task`) folds its
    chunk-aligned range inline on its worker thread.  Either way the
    partials go to :func:`merge_shard_partials`, in the same order
    whichever process folded each chunk.

    ``start`` must be a multiple of ``config.chunk_traces``, so every chunk
    reads the counter blocks of its global chunk index.
    """
    first_chunk = start // config.chunk_traces
    n_local = -(-(stop - start) // config.chunk_traces)
    # Group-major, so dealing the tasks round-robin gives every process
    # its share of the cheaper constant fixed-group chunks.
    tasks = [
        partial(_fold_chunk, generator, pair[group_index].slice(start, stop),
                config, CounterStream(config.seed, class_index, group_index),
                chunk_index, first_chunk)
        for group_index in (0, 1)
        for class_index, pair in enumerate(campaigns)
        for chunk_index in range(n_local)
    ]
    chunks = _run_tasks(tasks, workers)
    streams = [chunks[index:index + n_local]
               for index in range(0, len(chunks), n_local)]
    return list(zip(streams[:len(campaigns)], streams[len(campaigns):]))


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
    feeds the normalised leakage value.  The last step of
    :func:`merge_shard_partials`.
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


def merge_shard_partials(shard_results: Sequence[ShardChunkMoments],
                         config: TvlaConfig, design_name: str,
                         gate_names: Tuple[str, ...], elapsed_seconds: float,
                         n_shards: int) -> LeakageAssessment:
    """Merge per-shard accumulator sets into one design's assessment.

    The single merge of every assessment: :func:`assess_leakage` merges its
    one range, the durable runner (:mod:`repro.campaign.runner`) and the
    service's interim fold merge the shards present.  Shard ranges are
    contiguous and ascending, so concatenating the per-chunk accumulators
    in shard order lists every chunk in global chunk order, and the
    left-fold below (:func:`~repro.tvla.moments.fold_moments`) associates
    them the same way whatever the shard layout — so the merged
    accumulator, and every t-value, is **bitwise equal** to the serial
    run's.  The per-class Welch results are then aggregated by
    :func:`aggregate_class_results`.

    Args:
        shard_results: Each shard's partials, in shard order (a subset of
            the shards folds the chunks those shards cover).
        config: The campaign configuration.
        design_name: Recorded as :attr:`LeakageAssessment.design_name`.
        gate_names: Column order of the partials' accumulators.
        elapsed_seconds: Recorded as the assessment's wall-clock time.
        n_shards: Shards in the campaign's layout (recorded).
    """
    n_classes = len(shard_results[0])
    class_results = []
    for class_index in range(n_classes):
        streams: Tuple[List[OnePassMoments], List[OnePassMoments]] = ([], [])
        for partials in shard_results:
            for stream, part in zip(streams, partials[class_index]):
                stream.extend(part)
        class_results.append(results_from_accumulators(
            fold_moments(streams[0]), fold_moments(streams[1]), config))
    return aggregate_class_results(class_results, design_name, gate_names,
                                   config, elapsed_seconds, n_shards=n_shards)


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
        return PowerTraceGenerator(netlist, config=config.power)
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
    partials = fold_trace_range(generator, campaigns, config, 0,
                                config.n_traces, workers=_cpu_count())
    assessment = merge_shard_partials([partials], config, netlist.name,
                                      generator.gate_names, 0.0, n_shards=1)
    assessment.elapsed_seconds = time.perf_counter() - start
    return assessment


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
