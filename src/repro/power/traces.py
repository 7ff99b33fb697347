"""Per-gate power-trace generation.

Combines the logic simulator, the stimulus campaigns and the gate power
model into the substitute for the paper's "10,000 simulated traces": for a
given :class:`~repro.simulation.vectors.TraceCampaign`, every trace yields
one power sample per gate (plus an aggregated design-level sample), which is
exactly what the TVLA engine consumes.

Two implementations coexist:

* the **vectorised engine** (:meth:`PowerTraceGenerator.generate`)
  evaluates the whole campaign with one-shot matrix operations in a
  gate-major layout — net values are stacked into one value matrix via
  precomputed row indices, per-gate power coefficients are applied by
  broadcasting, and masked composites are handled as per-type sub-groups
  through exact fused power-value lookup tables derived from
  :meth:`~repro.power.model.GatePowerModel.masked_toggle_table`;
* :meth:`PowerTraceGenerator.generate_loop` keeps the original per-gate
  Python loop as the reference implementation for regression tests and the
  microbenchmark comparison.

The netlist picks the trace engine; no option does:

* a netlist the fused levelised kernel (:mod:`repro.simulation.compiled`)
  can plan is simulated by it, and toggles are extracted straight from the
  simulator's **bit-packed** state matrix
  (:attr:`SimulationResult.packed_matrix`).  The power plan adopts the
  simulator's row numbering; unmasked gate toggles are one XOR over packed
  bytes followed by a single ``numpy.unpackbits`` of just the watched
  rows, and masked-composite data codes are assembled from the packed
  share rows with shifts/ORs.  The full ``(n_signals, batch)`` boolean
  state matrix is **never materialised**, and the whole chunk is
  processed by GIL-releasing numpy calls;
* a netlist the planner cannot fuse runs on the per-gate loop simulator,
  and toggles come from a compact bool net-value matrix filled from its
  net-value mapping.

``sim_backend="loop"`` forces the second engine on any netlist.  That is
the oracle seam tests use: both engines draw masks and noise identically
and produce bit-identical traces — and therefore exactly equal t-values —
pinned by ``tests/test_packed_power.py``.

:meth:`PowerTraceGenerator.generate_stream` slices a campaign into chunks so
the TVLA drivers (:mod:`repro.tvla.assessment`) never materialise the full
``(n_traces, n_gates)`` matrix.  Each chunk's mask bytes and noise popcount
words come straight off the Philox counter blocks of a
:class:`~repro.power.ctrsample.CounterStream`, addressed by ``(seed, class,
group, chunk, lane)``, so every chunk's draws are a pure function of its
global chunk coordinates — which is what lets :mod:`repro.tvla.sharding`
split one campaign across workers and still produce t-values bitwise equal
to the serial run.  The masked-composite gather indexes on the raw counter
byte (``d << 8 | byte`` into a 4096-entry replicated value table), so
per-trace mask integers never materialise.  :meth:`~PowerTraceGenerator.
generate` always takes such counter draws; only the
:meth:`~PowerTraceGenerator.generate_loop` oracle reads a sequential
:class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..netlist.cell_library import CellLibrary, GateType
from ..netlist.netlist import Gate, Netlist
from ..simulation.simulator import LogicSimulator, SimulationError, SimulationResult
from ..simulation.vectors import TraceCampaign
from .bitops import (FAST_NOISE_BITS, combine_transition_codes, popcount16,
                     words_for_units)
from .ctrsample import CounterDraws, CounterStream
from .model import GatePowerModel, PowerModelConfig

#: Full range of a uint64 word, used by the loop oracle to draw raw bits.
_U64_MAX = np.iinfo(np.uint64).max
#: Bit count of the fast-noise popcount sampler (Binomial(16, 1/2) per
#: sample, sliced out of raw 64-bit generator words); canonical definition
#: lives in :mod:`repro.power.bitops`.
_FAST_NOISE_BITS = FAST_NOISE_BITS


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
        #: Row indices of the two data-input nets in the net-value matrix
        #: built once per campaign evaluation.
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
        seed: Seed of the sequential mask/noise stream of the
            :meth:`generate_loop` oracle; :meth:`generate` reads counter
            draws instead.
        trace_dtype: dtype of the per-gate trace matrix.  ``float32``
            (default) halves memory traffic on the hot path; statistics are
            still computed in float64 downstream.
        sim_backend: ``"compiled"`` (default) lets the netlist pick the
            engine: the fused kernel with packed toggle extraction when the
            planner can fuse it, the per-gate loop with bool-matrix
            extraction otherwise.  ``"loop"`` forces the second engine on
            any netlist; it is the bit-identical oracle tests compare the
            default against, not a production setting.

    Raises:
        SimulationError: if a masked gate has fewer than two data inputs
            (malformed masked composite).
        ValueError: for an unknown ``sim_backend`` selector.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: Optional[CellLibrary] = None,
        config: Optional[PowerModelConfig] = None,
        seed: int = 0,
        trace_dtype: np.dtype = np.float32,
        sim_backend: str = "compiled",
    ) -> None:
        self.netlist = netlist
        self.library = library if library is not None else netlist.library
        self.config = config if config is not None else PowerModelConfig()
        self.seed = seed
        self.trace_dtype = np.dtype(trace_dtype)
        self._simulator = LogicSimulator(netlist, backend=sim_backend)
        self._model = GatePowerModel(self.library, self.config, seed=seed)

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

        #: Per gate, the number of sinks its output drives (load model).
        self._fanouts: Dict[str, int] = {}
        #: Per masked gate, the residual-glitch multiplier derived from how
        #: many of its data inputs are driven by XOR-type gates.
        self._glitch_factors: Dict[str, float] = {}
        for gate in unmasked + masked:
            self._fanouts[gate.name] = len(netlist.fanout_gates(gate.name))
            if not gate.gate_type.is_masked:
                continue
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
        # Unique nets whose values feed the engine; both the unmasked watch
        # rows and the masked data inputs index one net-value matrix.  With
        # a compiled plan that matrix is the simulator's packed state
        # matrix (rows adopt the plan's signal numbering, undriven nets
        # share its constant-zero row); on the loop simulator a compact
        # bool matrix is filled from the net-value dict per evaluation.
        sim_plan = self._simulator.plan
        net_positions: Dict[str, int] = {}
        sim_nets: List[str] = []

        if sim_plan is not None:
            plan_index = sim_plan.signal_index

            def net_row(net: str) -> int:
                return plan_index.get(net, 0)
        else:
            def net_row(net: str) -> int:
                position = net_positions.get(net)
                if position is None:
                    position = len(sim_nets)
                    net_positions[net] = position
                    sim_nets.append(net)
                return position

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
        self._sim_nets: Tuple[str, ...] = tuple(sim_nets)
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

    @staticmethod
    def _fast_noise_counts(rng: np.random.Generator,
                           shape: Tuple[int, ...]) -> np.ndarray:
        """Raw Binomial(16, 1/2) popcounts of the loop oracle's noise."""
        count = int(np.prod(shape)) if shape else 1
        words = rng.integers(0, _U64_MAX, size=words_for_units(count, np.uint16),
                             dtype=np.uint64, endpoint=True)
        return popcount16(words.view(np.uint16)[:count].reshape(shape))

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

    # ------------------------------------------------------------------
    def _net_matrix(self, result: SimulationResult) -> np.ndarray:
        """Loop-simulator net values as a compact ``(n_nets, n)`` uint8
        matrix indexed by the plan's net rows."""
        n = result.n_vectors
        matrix = np.empty((len(self._sim_nets), n), dtype=bool)
        for index, net in enumerate(self._sim_nets):
            value = result.net_values.get(net)
            if value is None:
                # Undriven net that no gate reads: constant 0, matching the
                # simulator's semantics for floating inputs.
                matrix[index] = False
            else:
                matrix[index] = value
        return matrix.view(np.uint8)

    def generate(self, campaign: TraceCampaign,
                 draws: CounterDraws) -> PowerTraces:
        """Simulate ``campaign`` and return its per-gate power traces.

        Args:
            campaign: The stimulus campaign to trace.
            draws: Counter-sampler draws for this campaign's coordinates:
                mask bytes and noise words come straight off Philox counter
                blocks.  The engine mutates no generator state, so one
                :class:`PowerTraceGenerator` can be shared by concurrent
                chunk tasks.
        """
        prev_inputs, cur_inputs = campaign.as_dicts()
        previous = self._simulator.evaluate(prev_inputs)
        current = self._simulator.evaluate(cur_inputs)
        n_traces = campaign.n_traces
        n_gates = self.n_gates
        # Gate-major accumulation: every sub-group's rows are C-contiguous,
        # so fills, gathers and table lookups run at memcpy speed.  The
        # public trace matrix is the (n_traces, n_gates) transpose view.
        power = np.empty((n_gates, n_traces), dtype=self.trace_dtype)
        per_gate = power.T
        if n_gates == 0:
            return PowerTraces(campaign.label, self.gate_names, per_gate)

        # A compiled plan keeps the simulation results bit-packed: unpack
        # only the rows the power model actually reads (watched outputs and
        # masked data inputs).  The bool state matrix never materialises,
        # and the lazy SimulationResult never unpacks it either.
        packed = self._simulator.plan is not None
        if packed:
            packed_prev = previous.packed_matrix
            packed_cur = current.packed_matrix
        else:
            net_prev = self._net_matrix(previous)
            net_cur = self._net_matrix(current)
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
            if packed:
                # One XOR over packed bytes (8x less data than the bool
                # comparison), then a single unpack of just the watched
                # rows.  unpackbits drops the padding bits of the last
                # byte, and a 0/1 uint8 multiplies exactly like a bool.
                toggled = np.unpackbits(
                    packed_prev[self._watch_rows]
                    ^ packed_cur[self._watch_rows],
                    axis=1, count=n_traces)
            else:
                toggled = (net_prev[self._watch_rows]
                           != net_cur[self._watch_rows])
            np.multiply(toggled, self._unmasked_dynamic.astype(self.trace_dtype),
                        out=power[:n_unmasked])
            offset_column = (self._unmasked_static + noise_offset).astype(
                self.trace_dtype)
            np.add(power[:n_unmasked], offset_column, out=power[:n_unmasked])

        counter_tables = (self._counter_value_tables(noise_offset)
                          if self._masked_subgroups else None)
        for group_index, sub in enumerate(self._masked_subgroups):
            if packed:
                # Assemble the 4-bit data-transition code from the packed
                # share rows: one stacked gather, one unpack, shifts/ORs.
                stacked = np.concatenate(
                    (packed_prev[sub.a_rows], packed_prev[sub.b_rows],
                     packed_cur[sub.a_rows], packed_cur[sub.b_rows]))
                bits = np.unpackbits(stacked, axis=1, count=n_traces)
                shares = bits.reshape(4, len(sub.a_rows), n_traces)
            else:
                shares = np.stack((net_prev[sub.a_rows], net_prev[sub.b_rows],
                                   net_cur[sub.a_rows], net_cur[sub.b_rows]))
            # Word-wide code combine, then a gather on ``d << 8 | raw_byte``:
            # the raw Philox bytes index the replicated table directly.
            flat = combine_transition_codes(shares).astype(np.uint16)
            raw = draws.mask_bytes(group_index, flat.shape[0], n_traces)
            np.left_shift(flat, 8, out=flat)
            np.bitwise_or(flat, raw, out=flat)
            # Indices are < len(table) by construction; mode="clip" skips
            # the bounds-check buffering of the default mode.
            np.take(counter_tables[group_index], flat,
                    out=power[sub.row_slice], mode="clip")

        if noisy:
            counts = draws.noise_counts((n_gates, n_traces))
            noise = np.multiply(counts, self.trace_dtype.type(noise_scale))
            np.add(power, noise, out=power)

        return PowerTraces(campaign.label, self.gate_names, per_gate)

    # ------------------------------------------------------------------
    def generate_loop(self, campaign: TraceCampaign,
                      rng: Optional[np.random.Generator] = None) -> PowerTraces:
        """Reference per-gate loop implementation.

        Kept from the original engine for regression tests and the
        vectorised-vs-loop microbenchmark; ``generate`` is the fast path.
        Masks and the popcount noise are drawn per gate from ``rng``, which
        defaults to the model's own sequential stream.
        """
        prev_inputs, cur_inputs = campaign.as_dicts()
        previous = self._simulator.evaluate(prev_inputs)
        current = self._simulator.evaluate(cur_inputs)

        noisy = self.config.noise_sigma > 0
        noise_scale, _ = self._model.fast_noise_params()
        rng = rng if rng is not None else self._model._rng

        n_traces = campaign.n_traces
        per_gate = np.zeros((n_traces, len(self._gates)), dtype=float)
        for column, gate in enumerate(self._gates):
            if gate.gate_type.is_masked:
                a_net, b_net = gate.inputs[0], gate.inputs[1]
                power = self._model.masked_power(
                    gate,
                    (previous.net_values[a_net], previous.net_values[b_net]),
                    (current.net_values[a_net], current.net_values[b_net]),
                    glitch_input_factor=self._glitch_factors.get(gate.name, 1.0),
                    rng=rng,
                )
            else:
                if gate.gate_type.is_sequential:
                    # A register toggles when its captured value changes.
                    toggled = np.logical_xor(
                        previous.net_values[gate.inputs[0]],
                        current.net_values[gate.inputs[0]],
                    )
                else:
                    toggled = np.logical_xor(
                        previous.net_values[gate.output],
                        current.net_values[gate.output],
                    )
                power = self._model.unmasked_power(
                    gate, toggled, fanout=self._fanouts.get(gate.name, 1))
            if noisy:
                counts = self._fast_noise_counts(rng, (n_traces,))
                power = power + (counts - _FAST_NOISE_BITS / 2.0) * noise_scale
            per_gate[:, column] = power

        return PowerTraces(campaign.label, self.gate_names, per_gate)
