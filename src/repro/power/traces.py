"""Per-gate power-trace generation.

Combines the logic simulator, the stimulus campaigns and the gate power
model into the substitute for the paper's "10,000 simulated traces": for a
given :class:`~repro.simulation.vectors.TraceCampaign`, every trace yields
one power sample per gate (plus an aggregated design-level sample), which is
exactly what the TVLA engine consumes.

:meth:`PowerTraceGenerator.generate` evaluates a whole campaign with
one-shot matrix operations in a gate-major layout: per-gate power
coefficients are applied by broadcasting, and masked composites are
handled as per-type sub-groups through exact fused power-value lookup
tables derived from
:meth:`~repro.power.model.GatePowerModel.masked_toggle_table`.

The fused levelised kernel (:mod:`repro.simulation.compiled`) simulates the
netlist, and toggles are extracted straight from the simulator's
**bit-packed** state matrix (:attr:`SimulationResult.packed_matrix`).  The
power plan adopts the simulator's row numbering; unmasked gate toggles are
one XOR over packed bytes followed by a single ``numpy.unpackbits`` of just
the watched rows, and masked-composite data codes are assembled from the
packed share rows with shifts/ORs.  The full ``(n_signals, batch)`` boolean
state matrix is **never materialised**, and the whole chunk is processed by
a few whole-array numpy calls.  The TVLA chunk driver runs chunks side by
side in forked processes (:func:`repro.tvla.assessment._run_tasks`), so
its parallelism does not rest on those calls releasing the GIL.

Each chunk is **one simulator sweep**: :meth:`PowerTraceGenerator.generate`
stacks the previous rows, padded with copies of row 0 to a multiple of 8,
and then the current rows into one batch, so previous and current are two
byte-column ranges of one packed matrix.  A chunk whose previous rows are
all equal and whose current rows are all equal — the fixed group of every
fixed-precharge campaign — simulates row 0 only; broadcasting spreads its
noiseless values and masked data codes over the chunk.  Masks and noise
are drawn per trace either way, so the traces are bitwise those of a
per-trace simulation.

A netlist the planner cannot fuse raises
:class:`~repro.simulation.compiled.CompilationError` when the generator is
built.  The engine's oracles live with the tests (``tests/oracles/``): the
per-gate loop simulator with bool-matrix extraction produces bit-identical
traces (pinned by ``tests/test_packed_power.py``), and ``generate_loop``
is the per-gate reference loop of the whole engine.

Each chunk is produced **gate block by gate block**: the private
:meth:`PowerTraceGenerator._fill_blocks` runs the chunk-wide steps (the
sweep, the unpack of the watched rows, the masked gather indices and the
noise draw), then fills each gate block of
:func:`~repro.power.bitops.column_blocks` (64 gates of a 2048-trace chunk)
into one reused float32 buffer.
:meth:`PowerTraceGenerator.generate` copies the blocks into its matrix;
the TVLA chunk fold (:mod:`repro.tvla.assessment`) folds each block while
it is cache-resident, so on the assessment path no chunk-sized float
trace matrix or scaled-noise temporary is ever allocated.

:meth:`PowerTraceGenerator.generate_stream` slices a campaign into chunks,
so memory stays bounded by one chunk.  Each chunk's mask bytes and noise
popcount words come straight off the Philox counter blocks of a
:class:`~repro.power.ctrsample.CounterStream`, addressed by ``(seed, class,
group, chunk, lane)``, so every chunk's draws are a pure function of its
global chunk coordinates — which is what lets :mod:`repro.tvla.sharding`
split one campaign across workers and still produce t-values bitwise equal
to the serial run.  The masked-composite gather indexes on the raw counter
byte (``d << 8 | byte`` into a 4096-entry replicated value table), so
per-trace mask integers never materialise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.cell_library import CellLibrary, GateType
from ..netlist.graph import gate_graph
from ..netlist.netlist import Gate, Netlist
from ..simulation.simulator import LogicSimulator, SimulationError
from ..simulation.vectors import TraceCampaign
from .bitops import column_blocks, combine_transition_codes
from .ctrsample import CounterDraws, CounterStream
from .model import GatePowerModel, PowerModelConfig


@dataclass
class PowerTraces:
    """Power samples for one trace campaign.

    Attributes:
        label: Campaign label ("fixed", "random", ...).
        gate_names: Gate order corresponding to the matrix columns.
        per_gate: Float matrix of shape ``(n_traces, n_gates)``.
    """

    label: str
    gate_names: Tuple[str, ...]
    per_gate: np.ndarray

    @cached_property
    def total(self) -> np.ndarray:
        """Design-level power per trace (row sums of ``per_gate``).

        Computed on first access: the TVLA drivers fold ``per_gate`` only,
        so streamed chunks never pay this strided pass.
        """
        return self.per_gate.sum(axis=1)

    @cached_property
    def _name_index(self) -> Dict[str, int]:
        # Cached name -> column dict: gate lookups are O(1) even when the
        # masking flow queries every gate of a large design.
        return {name: i for i, name in enumerate(self.gate_names)}

    @property
    def n_traces(self) -> int:
        """Number of traces."""
        return int(self.per_gate.shape[0])

    @property
    def n_gates(self) -> int:
        """Number of gates with a power column."""
        return int(self.per_gate.shape[1])

    def gate_column(self, gate_name: str) -> np.ndarray:
        """Return the power samples of one gate.

        Raises:
            KeyError: if the gate has no column.
        """
        index = self._name_index.get(gate_name)
        if index is None:
            raise KeyError(f"no power column for gate {gate_name!r}")
        return self.per_gate[:, index]


def _constant_rows(campaign: TraceCampaign) -> bool:
    """Whether every previous row and every current row equal row 0."""
    return all(bool((matrix[1:] == matrix[0]).all())
               for matrix in (campaign.previous, campaign.current))


def _sweep_inputs(campaign: TraceCampaign, n_sim: int,
                  split: int) -> Dict[str, np.ndarray]:
    """Stimulus of one sweep: previous rows ``[0, n_sim)``, copies of row
    0 up to ``split``, then current rows ``[0, n_sim)``, per input net."""
    batch = np.empty((len(campaign.input_names), split + n_sim), dtype=bool)
    batch[:, :n_sim] = campaign.previous[:n_sim].T
    batch[:, n_sim:split] = campaign.previous[:1].T
    batch[:, split:] = campaign.current[:n_sim].T
    return dict(zip(campaign.input_names, batch))


class _MaskedSubgroup:
    """Vectorised-plan bookkeeping for one masked composite sub-group.

    Masked gates are grouped by ``(gate type, fan-in, residual
    coefficient)``.  Within such a sub-group every power-model coefficient
    is a scalar, so the noiseless power of a (trace, gate) cell is a pure
    function of its 4 data-transition bits and its mask bits — precomputed
    into one fused float value table::

        value[d, m] = per_node_energy * toggle_count(d, m)
                      + residual_coeff/2 * input_toggles(d) + static_floor

    Trace generation then reduces to one table gather per cell.
    """

    __slots__ = ("gate_type", "row_slice", "a_rows", "b_rows",
                 "value_table", "mask_bits")

    def __init__(self, gate_type: GateType, row_slice: slice,
                 a_rows: np.ndarray, b_rows: np.ndarray,
                 value_table: np.ndarray, mask_bits: int) -> None:
        self.gate_type = gate_type
        #: Row range of this sub-group in the gate-major trace matrix.
        self.row_slice = row_slice
        #: Rows of the two data-input nets in the simulator's state
        #: matrix.
        self.a_rows = a_rows
        self.b_rows = b_rows
        #: Flattened ``(16 << mask_bits,)`` fused power-value table.
        self.value_table = value_table
        self.mask_bits = mask_bits


class PowerTraceGenerator:
    """Generates :class:`PowerTraces` for a fixed netlist.

    The generator owns one :class:`LogicSimulator` (levelised once) and one
    :class:`GatePowerModel`; successive campaigns reuse both, which matters
    because the POLARIS/VALIANT flows call it many times per design.

    Args:
        netlist: Design to trace.
        library: Cell library (defaults to the netlist's).
        config: Power-model configuration.

    Raises:
        SimulationError: if a masked gate has fewer than two data inputs
            (malformed masked composite); checked before the simulator is
            built.
        CompilationError: if the fused planner cannot plan the netlist.
    """

    #: dtype of the per-gate trace matrix.  float32 halves memory traffic
    #: on the hot path; statistics are still computed in float64
    #: downstream.
    trace_dtype = np.dtype(np.float32)

    def __init__(
        self,
        netlist: Netlist,
        library: Optional[CellLibrary] = None,
        config: Optional[PowerModelConfig] = None,
    ) -> None:
        self.netlist = netlist
        self.library = library if library is not None else netlist.library
        self.config = config if config is not None else PowerModelConfig()

        unmasked: List[Gate] = []
        masked: List[Gate] = []
        for gate in netlist.gates:
            if gate.gate_type.is_port:
                continue
            if gate.gate_type.is_masked:
                if len(gate.inputs) < 2:
                    raise SimulationError(
                        f"masked gate {gate.name!r} of type "
                        f"{gate.gate_type.value} has {len(gate.inputs)} "
                        f"input(s); masked composites require two data "
                        f"inputs (a, b)")
                masked.append(gate)
            else:
                unmasked.append(gate)
        self._simulator = LogicSimulator(netlist)
        self._model = GatePowerModel(self.library, self.config)

        graph = gate_graph(netlist)
        #: Per gate, the number of sinks its output drives (load model).
        self._fanouts = dict(zip(graph.names, map(len, graph.fanout)))
        #: Per masked gate, the residual-glitch multiplier derived from how
        #: many of its data inputs are driven by XOR-type gates.
        self._glitch_factors: Dict[str, float] = {}
        for gate in masked:
            drivers = netlist.fanin_gates(gate.name)[:2]
            if drivers:
                xor_fraction = sum(
                    d.gate_type in (GateType.XOR, GateType.XNOR) for d in drivers
                ) / len(drivers)
            else:
                xor_fraction = 0.0
            self._glitch_factors[gate.name] = self._model.input_glitch_factor(
                xor_fraction)

        self._build_plan(unmasked, masked)

    # ------------------------------------------------------------------
    # Vectorised plan
    # ------------------------------------------------------------------
    def _build_plan(self, unmasked: List[Gate], masked: List[Gate]) -> None:
        config = self.config
        # Both the unmasked watch rows and the masked data inputs index the
        # simulator's packed state matrix: rows adopt the plan's signal
        # numbering, and undriven nets share its constant-zero row.
        plan_index = self._simulator.plan.signal_index

        def net_row(net: str) -> int:
            return plan_index.get(net, 0)

        # Unmasked gates: one watch net per gate (the output for
        # combinational cells, the data input for registers) and broadcast
        # power coefficients.
        watch_rows: List[int] = []
        dynamic: List[float] = []
        static: List[float] = []
        for gate in unmasked:
            watch = gate.inputs[0] if gate.gate_type.is_sequential else gate.output
            watch_rows.append(net_row(watch))
            dyn, stat = self._model.unmasked_coefficients(
                gate, fanout=self._fanouts.get(gate.name, 1))
            dynamic.append(dyn)
            static.append(stat)
        self._watch_rows = np.asarray(watch_rows, dtype=np.intp)
        self._unmasked_dynamic = np.asarray(
            dynamic, dtype=np.float64).reshape(-1, 1)
        self._unmasked_static = np.asarray(
            static, dtype=np.float64).reshape(-1, 1)

        # Masked gates: group by (type, fan-in, residual coefficient) so
        # every coefficient is scalar within a sub-group and the power
        # value can be precomputed into one fused lookup table.
        subgroup_gates: Dict[Tuple[GateType, int, float], List[Gate]] = {}
        for gate in masked:
            beta = self._model.masked_residual_coefficient(
                gate, self._glitch_factors.get(gate.name, 1.0)) / 2.0
            key = (gate.gate_type, gate.fanin, beta)
            subgroup_gates.setdefault(key, []).append(gate)

        #: Gates that receive a power column: unmasked gates first (in
        #: netlist order), then one contiguous range per masked sub-group.
        self._gates: List[Gate] = list(unmasked)
        self._masked_subgroups: List[_MaskedSubgroup] = []
        mask_bits = 6 if config.mask_refresh else 3
        toggle_tables: Dict[GateType, np.ndarray] = {}
        # input_toggles(d) for the residual term, indexed by the 4-bit
        # data-transition code d = a_p | b_p<<1 | a_c<<2 | b_c<<3.
        data_codes = np.arange(16)
        input_toggles = (((data_codes ^ (data_codes >> 2)) & 1)
                         + (((data_codes >> 1) ^ (data_codes >> 3)) & 1))
        row = len(unmasked)
        for (gate_type, fanin, beta), gates in subgroup_gates.items():
            table = toggle_tables.get(gate_type)
            if table is None:
                table = self._model.masked_toggle_table(
                    gate_type, reuse_masks=not config.mask_refresh)
                toggle_tables[gate_type] = table
            n_nodes = max(1, self._model.masked_node_count(gate_type))
            energy = self.library.switching_energy(gate_type, fanin)
            value_table = (energy / n_nodes * table.astype(np.float64)
                           + beta * input_toggles[:, np.newaxis]
                           + config.static_fraction * energy)
            self._masked_subgroups.append(_MaskedSubgroup(
                gate_type=gate_type,
                row_slice=slice(row, row + len(gates)),
                a_rows=np.asarray([net_row(g.inputs[0]) for g in gates],
                                  dtype=np.intp),
                b_rows=np.asarray([net_row(g.inputs[1]) for g in gates],
                                  dtype=np.intp),
                value_table=np.ascontiguousarray(value_table.reshape(-1)),
                mask_bits=mask_bits,
            ))
            self._gates.extend(gates)
            row += len(gates)
        #: Column order of every trace matrix; ``_gates`` is final here.
        self._gate_names: Tuple[str, ...] = tuple(g.name for g in self._gates)
        #: Lazily built per-subgroup 4096-entry tables indexed by
        #: ``d << 8 | raw_mask_byte`` for the counter sampler; see
        #: :meth:`_counter_value_tables`.
        self._counter_tables: Optional[List[np.ndarray]] = None

    @property
    def gate_names(self) -> Tuple[str, ...]:
        """Order of the per-gate power columns."""
        return self._gate_names

    @property
    def n_gates(self) -> int:
        """Number of gates with a power column."""
        return len(self._gates)

    def _counter_value_tables(self, noise_offset: float) -> List[np.ndarray]:
        """Per-subgroup value tables indexed by ``d << 8 | raw_mask_byte``.

        The counter sampler feeds the table gather with **raw** uint8
        counter bytes instead of ``byte & (2**mask_bits - 1)`` indices;
        replicating each 16 x 2**mask_bits table along the mask axis to
        16 x 256 entries makes ``table[d << 8 | byte]`` hit the same value
        for every byte with equal low bits, so no masking ``&`` pass (and
        no per-trace mask integer) is needed in the hot loop.  Entries are
        cast to the trace dtype with the noise offset folded in.  The
        tables are pure functions of the (frozen) power config, so they are
        built once per generator, with a benign idempotent race (local
        list, atomic publish): one generator can be shared by concurrent
        chunk tasks.
        """
        cached = self._counter_tables
        if cached is None:
            cached = []
            for sub in self._masked_subgroups:
                period = 1 << sub.mask_bits
                table = np.tile(sub.value_table.reshape(16, period),
                                (1, 256 // period)).reshape(-1)
                table = table.astype(self.trace_dtype)
                if noise_offset:
                    table += self.trace_dtype.type(noise_offset)
                table.setflags(write=False)
                cached.append(table)
            self._counter_tables = cached
        return cached

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_stream(
        self,
        campaign: TraceCampaign,
        chunk_traces: int,
        counter_stream: CounterStream,
        first_chunk: int = 0,
    ) -> Iterator[PowerTraces]:
        """Yield ``campaign``'s traces in chunks of at most ``chunk_traces``.

        Memory use is bounded by ``chunk_traces * n_gates`` samples, which
        is what makes paper-scale streaming TVLA campaigns O(n_gates) in the
        number of traces.

        Args:
            campaign: The stimulus campaign (possibly a shard's sub-range).
            chunk_traces: Maximum traces per yielded block.
            counter_stream: The campaign group's draws: chunk ``i`` reads
                the stream's Philox counter blocks at global chunk index
                ``first_chunk + i``.
            first_chunk: Global index of this campaign's first chunk
                (shards pass their chunk offset).

        Raises:
            ValueError: if ``chunk_traces < 1``.
        """
        if chunk_traces < 1:
            raise ValueError("chunk_traces must be >= 1")
        n = campaign.n_traces
        for index, start in enumerate(range(0, n, chunk_traces)):
            chunk = campaign.slice(start, min(n, start + chunk_traces))
            yield self.generate(
                chunk, draws=counter_stream.draws(first_chunk + index))

    def generate(self, campaign: TraceCampaign,
                 draws: CounterDraws) -> PowerTraces:
        """Simulate ``campaign`` and return its per-gate power traces.

        One simulator sweep covers the whole chunk: the batch is the
        previous rows, padded with copies of row 0 to a multiple of 8,
        followed by the current rows, so the two halves are byte-aligned
        column ranges of one packed matrix.  When every previous row and
        every current row are equal — the fixed group of a
        fixed-precharge campaign — only row 0 is simulated, and
        broadcasting fills the noiseless values and masked data codes
        across the chunk.  Masks and noise are
        drawn for every trace either way, so the traces are bitwise those
        of a per-trace simulation.

        The values are those of :meth:`_fill_blocks`, copied block by
        block into the returned matrix; the TVLA chunk fold folds the same
        blocks without ever assembling the matrix.

        Args:
            campaign: The stimulus campaign to trace.
            draws: Counter-sampler draws for this campaign's coordinates:
                mask bytes and noise words come straight off Philox counter
                blocks.  The engine mutates no generator state, so one
                :class:`PowerTraceGenerator` can be shared by concurrent
                chunk tasks.
        """
        blocks = column_blocks(self.n_gates, campaign.n_traces)
        width = max((stop - start for start, stop in blocks), default=0)
        fill = np.empty((width, campaign.n_traces), dtype=self.trace_dtype)
        # Gate-major: every block is a run of whole rows.  The public
        # trace matrix is the (n_traces, n_gates) transpose view.
        power = np.empty((self.n_gates, campaign.n_traces),
                         dtype=self.trace_dtype)
        for start, stop, block in self._fill_blocks(
                campaign, draws, blocks, fill, np.empty_like(fill)):
            power[start:stop] = block
        return PowerTraces(campaign.label, self.gate_names, power.T)

    def _fill_blocks(self, campaign: TraceCampaign, draws: CounterDraws,
                     blocks: Sequence[Tuple[int, int]], fill: np.ndarray,
                     scratch: np.ndarray
                     ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield the gate-major trace rows of ``campaign`` block by block.

        The chunk-wide steps run first: the simulator sweep, the unpack of
        the watched rows, each masked subgroup's ``d << 8 | raw_byte``
        gather index and the noise draw.  Then, for each ``[start, stop)``
        gate range of ``blocks`` (in order), the rows ``start..stop`` of
        the ``(n_gates, n_traces)`` trace matrix are filled into
        ``fill[:stop - start]`` and yielded as ``(start, stop, block)``:
        the unmasked multiply/add (a broadcast copy of column 0 for a
        constant chunk), the masked table gathers, then the scaled noise
        added through ``scratch``.  The next block overwrites the block,
        so a consumer copies or folds it before asking for the next.

        Args:
            campaign: The stimulus campaign to trace.
            draws: Counter-sampler draws for this campaign's coordinates.
            blocks: Gate ranges covering ``[0, n_gates)`` in order, as
                :func:`~repro.power.bitops.column_blocks` gives them.
            fill: C-order ``(>= widest block, n_traces)`` buffer of
                :attr:`trace_dtype` that receives each block.
            scratch: A buffer like ``fill`` for the noise multiply.
        """
        n_traces = campaign.n_traces
        n_sim = 1 if n_traces > 1 and _constant_rows(campaign) else n_traces
        # The current half starts at vector ``split`` = byte ``split // 8``.
        split = -(-n_sim // 8) * 8
        result = self._simulator.evaluate(
            _sweep_inputs(campaign, n_sim, split))
        dtype = self.trace_dtype

        # The simulation results stay bit-packed: unpack only the rows the
        # power model actually reads (watched outputs and masked data
        # inputs).  The bool state matrix never materialises, and the lazy
        # SimulationResult never unpacks it either.
        matrix = result.packed_matrix
        packed_prev = matrix[:, :split // 8]
        packed_cur = matrix[:, split // 8:]
        noisy = self.config.noise_sigma > 0
        # The popcount sampler's -E[count]*scale centring term is folded
        # into the static offsets (one scalar per masked table, one column
        # add for the unmasked rows).
        noise_scale = 0.0
        noise_offset = 0.0
        if noisy:
            noise_scale, noise_offset = self._model.fast_noise_params()

        n_unmasked = len(self._watch_rows)
        if n_unmasked:
            # One XOR over packed bytes (8x less data than a bool
            # comparison), then a single unpack of just the watched rows.
            # unpackbits drops the padding bits of the last byte, and a
            # 0/1 uint8 multiplies exactly like a bool.
            toggled = np.unpackbits(
                packed_prev[self._watch_rows] ^ packed_cur[self._watch_rows],
                axis=1, count=n_sim)
            dynamic = self._unmasked_dynamic.astype(dtype)
            offset = (self._unmasked_static + noise_offset).astype(dtype)

        counter_tables = (self._counter_value_tables(noise_offset)
                          if self._masked_subgroups else [])
        indices = []
        for group_index, sub in enumerate(self._masked_subgroups):
            # Assemble the 4-bit data-transition code from the packed
            # share rows: one stacked gather, one unpack, shifts/ORs.
            stacked = np.concatenate(
                (packed_prev[sub.a_rows], packed_prev[sub.b_rows],
                 packed_cur[sub.a_rows], packed_cur[sub.b_rows]))
            bits = np.unpackbits(stacked, axis=1, count=n_sim)
            shares = bits.reshape(4, len(sub.a_rows), n_sim)
            # Word-wide code combine, then a gather index ``d << 8 |
            # raw_byte``: the raw Philox bytes index the replicated table
            # directly.  A constant chunk's (width, 1) codes broadcast
            # against the per-trace bytes; otherwise the OR runs in place.
            codes = combine_transition_codes(shares).astype(np.uint16)
            raw = draws.mask_bytes(group_index, codes.shape[0], n_traces)
            np.left_shift(codes, 8, out=codes)
            indices.append(np.bitwise_or(
                codes, raw, out=codes if codes.shape == raw.shape else None))

        if noisy:
            counts = draws.noise_counts((self.n_gates, n_traces))
            scale = dtype.type(noise_scale)

        for start, stop in blocks:
            block = fill[:stop - start]
            # Unmasked rows: values of the n_sim simulated columns, then a
            # broadcast copy of column 0 over the rest (an empty slice
            # unless constant): a plain copy is several times faster than
            # an arithmetic ufunc whose inputs both broadcast along the
            # trace axis.
            rows = slice(start, min(stop, n_unmasked))
            if rows.start < rows.stop:
                unmasked = block[:rows.stop - start]
                values = unmasked[:, :n_sim]
                np.multiply(toggled[rows], dynamic[rows], out=values)
                np.add(values, offset[rows], out=values)
                unmasked[:, n_sim:] = unmasked[:, :1]
            for sub, table, index in zip(self._masked_subgroups,
                                         counter_tables, indices):
                first = sub.row_slice.start
                low = max(start, first)
                high = min(stop, sub.row_slice.stop)
                if low < high:
                    # Indices are < len(table) by construction; mode="clip"
                    # skips the bounds-check buffering of the default mode.
                    np.take(table, index[low - first:high - first],
                            out=block[low - start:high - start], mode="clip")
            if noisy:
                noise = scratch[:stop - start]
                np.multiply(counts[start:stop], scale, out=noise)
                np.add(block, noise, out=block)
            yield start, stop, block
