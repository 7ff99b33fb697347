"""Per-gate dynamic power models.

The paper measures leakage from gate-level power traces obtained with an
ASIC simulation flow.  This module provides the offline substitute: a
Hamming-distance (toggle) power model in which a gate contributes its
library switching energy whenever its output toggles between the previous
and the current stimulus of a trace.

Masked composite cells are treated specially: their power is computed from
the toggles of the *internal masked shares* of the Trichina construction
(paper Eq. 5) or of the DOM construction, using fresh per-trace randomness.
Because those internal signals are (re-)masked with fresh random bits, their
switching is largely independent of the processed data, which is exactly the
mechanism by which masking reduces power side-channel leakage.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..netlist.cell_library import CellLibrary, DEFAULT_LIBRARY, GateType
from ..netlist.netlist import Gate
from .bitops import FAST_NOISE_BITS

#: Process-wide cache of masked-composite toggle tables, keyed by
#: ``(model class, gate type, reuse_masks)``.  The tables are pure
#: functions of the share structure (no config or seed dependence), but
#: rebuilding one enumerates 16 * 64 mask/data combinations through the
#: share network — wasted work for every sharded/campaign worker that
#: rebuilds its generator.  Cached tables are returned read-only and
#: shared; consumers copy (or ``astype``) before deriving from them.
_TOGGLE_TABLE_CACHE: Dict[Tuple[type, GateType, bool], np.ndarray] = {}

#: Serialises cache fills: shards on a thread pool (or on QueueExecutor's
#: in-process workers) construct their trace generators concurrently, and
#: an unguarded check-then-build would let two threads enumerate (and
#: publish) the same table.  Duplicate work is only
#: the benign half of that race — callers compare tables by identity in
#: tests, and a torn publish under free-threaded builds is not.
_TOGGLE_TABLE_LOCK = threading.Lock()


@dataclass(frozen=True)
class PowerModelConfig:
    """Configuration of the dynamic power model.

    Attributes:
        noise_sigma: Standard deviation of additive measurement noise,
            expressed as a fraction of a NAND gate's switching energy.  The
            noise is a scaled Binomial(16, 1/2) drawn via popcounts of raw
            random words: it has exactly mean 0 and this standard deviation
            and is indistinguishable from Gaussian noise for first-order
            TVLA statistics (excess kurtosis -1/8); see
            :meth:`GatePowerModel.fast_noise_params`.
        glitch_factor: Multiplier > 1 modelling extra glitch activity on
            gates with large fan-in cones (applied per fan-in beyond 2).
        static_fraction: Fraction of the cell's switching energy added to
            every trace regardless of toggling (static/short-circuit floor).
        mask_refresh: Whether masked cells draw fresh randomness every trace
            (True, the secure behaviour) or reuse one mask (False, a faulty
            masking implementation useful for negative testing).
        masked_residual: Residual data-dependent leakage of a masked cell,
            as a fraction of the replaced primitive's switching energy.  The
            masked composite's *data input pins* still carry unmasked
            signals (the transform masks gates, not wires), so their
            transitions — and the glitches they induce — remain visible in
            the power trace.  This is the well-known first-order glitch
            leakage of Trichina-style gates, and it is what makes *where*
            a masking gate is inserted matter: the benefit of masking a gate
            depends on the activity of its local neighbourhood, which is the
            structural signal POLARIS learns.  Values slightly above 1
            model glitch amplification inside the composite (its four AND
            gates all toggle on an unmasked input transition), so a *badly
            placed* masked gate can leak as much as the primitive it
            replaced.
        valiant_residual: Residual factor applied to cells whose
            ``protection_style`` attribute is ``"valiant"``.  The VALIANT
            baseline's gate-level countermeasures retain more data-dependent
            activity per protected gate than the Trichina composite,
            reflecting the relative per-gate leakage the paper reports for
            the two flows (Table II); an ablation bench sets the two
            residuals equal to show the flows then converge.
        masked_glitch_base: Baseline multiplier of the residual glitch
            leakage for masked cells whose drivers produce few glitches
            (AND/OR-dominated fan-in, primary inputs).
        masked_glitch_xor: Additional residual multiplier per unit fraction
            of XOR/XNOR drivers.  XOR-type drivers propagate every input
            transition (transition probability 1 per toggling input), so a
            masked composite fed by XOR logic sees far more glitching on its
            unmasked input pins than one fed by attenuating AND/OR logic.
            This is the structural effect that makes *where* a masking gate
            is placed matter, and therefore what the POLARIS model learns.
        load_factor: Additional switching energy per fan-out connection of
            an *unmasked* gate (interconnect/load capacitance).  High
            fan-out gates therefore dominate a design's leakage — and
            because a masked composite re-randomises its output with the
            fresh mask, that load switching stops being data-dependent once
            the gate is masked, making high-fan-out gates the most valuable
            masking targets.
    """

    noise_sigma: float = 1.8
    glitch_factor: float = 0.15
    static_fraction: float = 0.05
    mask_refresh: bool = True
    masked_residual: float = 1.15
    valiant_residual: float = 2.30
    masked_glitch_base: float = 0.55
    masked_glitch_xor: float = 1.30
    load_factor: float = 0.70


class GatePowerModel:
    """Computes per-trace power for a single gate.

    The model is deliberately stateless across gates; the trace generator
    (:mod:`repro.power.traces`) instantiates it once and reuses it.
    """

    def __init__(self, library: Optional[CellLibrary] = None,
                 config: Optional[PowerModelConfig] = None,
                 seed: int = 0) -> None:
        self.library = library if library is not None else DEFAULT_LIBRARY
        self.config = config if config is not None else PowerModelConfig()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def unmasked_coefficients(self, gate: Gate,
                              fanout: int = 1) -> Tuple[float, float]:
        """Per-gate ``(dynamic, static)`` power coefficients of a plain cell.

        ``power = dynamic * toggled + static``; the vectorised trace engine
        precomputes these once per gate and applies them by broadcasting.
        """
        energy = self.library.switching_energy(gate.gate_type, gate.fanin)
        glitch = 1.0 + self.config.glitch_factor * max(0, gate.fanin - 2)
        load = 1.0 + self.config.load_factor * max(0, fanout - 1)
        return energy * glitch * load, self.config.static_fraction * energy

    def unmasked_power(self, gate: Gate, toggled: np.ndarray,
                       fanout: int = 1) -> np.ndarray:
        """Power of an ordinary cell: energy on toggle plus static floor.

        Args:
            gate: The gate instance.
            toggled: Boolean array (n_traces,) of output toggles.
            fanout: Number of sinks the gate drives; every extra load adds
                ``load_factor`` times the cell energy to each output toggle.

        Returns:
            Float array (n_traces,) of noiseless power samples.
        """
        dynamic, static = self.unmasked_coefficients(gate, fanout)
        return dynamic * toggled.astype(float) + static

    def masked_power(
        self,
        gate: Gate,
        data_prev: Tuple[np.ndarray, np.ndarray],
        data_cur: Tuple[np.ndarray, np.ndarray],
        glitch_input_factor: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Power of a masked composite cell from its internal share toggles.

        Args:
            gate: The masked gate instance.
            data_prev: Tuple of the two data inputs' values in the previous
                stimulus (boolean arrays of shape (n_traces,)).
            data_cur: Same for the current stimulus.
            glitch_input_factor: Multiplier on the residual data-dependent
                leakage reflecting how glitchy the gate's fan-in cone is
                (computed by the trace generator from the driver gate types
                via :meth:`input_glitch_factor`).
            rng: Generator for the fresh mask bits; defaults to the model's
                own stream.

        Returns:
            Float array (n_traces,) of noiseless power samples.
        """
        a_prev, b_prev = data_prev
        a_cur, b_cur = data_cur
        n_traces = a_cur.shape[0]
        nodes_prev = self._masked_internal_nodes(gate.gate_type, a_prev, b_prev,
                                                 rng=rng)
        if self.config.mask_refresh:
            nodes_cur = self._masked_internal_nodes(gate.gate_type, a_cur, b_cur,
                                                    rng=rng)
        else:
            # Faulty masking: reuse the previous masks, so the shares track
            # the data and leakage persists (used by negative tests).
            nodes_cur = self._masked_internal_nodes(
                gate.gate_type, a_cur, b_cur, reuse_last_masks=True, rng=rng)
        toggles = np.zeros(n_traces, dtype=float)
        for name in nodes_cur:
            toggles += np.logical_xor(nodes_prev[name], nodes_cur[name]).astype(float)
        total_energy = self.library.switching_energy(gate.gate_type, gate.fanin)
        per_node_energy = total_energy / max(1, len(nodes_cur))
        static = self.config.static_fraction * total_energy

        # Residual first-order leakage: the composite's data input pins carry
        # unmasked values, so their transitions (and the glitches they feed
        # into the masked core) remain data dependent.
        residual_coeff = self.masked_residual_coefficient(
            gate, glitch_input_factor)
        residual = np.zeros(n_traces, dtype=float)
        if residual_coeff > 0:
            input_toggles = (
                np.logical_xor(a_prev, a_cur).astype(float)
                + np.logical_xor(b_prev, b_cur).astype(float)
            ) / 2.0
            residual = residual_coeff * input_toggles

        return per_node_energy * toggles + residual + static

    def masked_residual_coefficient(self, gate: Gate,
                                    glitch_input_factor: float = 1.0) -> float:
        """Coefficient of the residual data-dependent leakage of a masked cell.

        ``residual_power = coefficient * mean_input_toggles`` where the mean
        input toggle count per trace is in [0, 1].  Returned once per gate so
        the vectorised engine can apply it by broadcasting.
        """
        style = str(gate.attributes.get("protection_style", "trichina"))
        residual_factor = (self.config.valiant_residual if style == "valiant"
                           else self.config.masked_residual)
        if residual_factor <= 0:
            return 0.0
        original = gate.attributes.get("masked_from")
        try:
            original_type = GateType(original) if original else GateType.NAND
        except ValueError:
            original_type = GateType.NAND
        original_energy = self.library.switching_energy(original_type, 2)
        return residual_factor * glitch_input_factor * original_energy

    def input_glitch_factor(self, xor_driver_fraction: float) -> float:
        """Residual-leakage multiplier for a masked cell's fan-in glitchiness.

        Args:
            xor_driver_fraction: Fraction of the cell's data inputs driven
                by XOR/XNOR gates (in [0, 1]).
        """
        fraction = float(np.clip(xor_driver_fraction, 0.0, 1.0))
        return self.config.masked_glitch_base + self.config.masked_glitch_xor * fraction

    # ------------------------------------------------------------------
    @staticmethod
    def _masked_nodes_for(
        gate_type: GateType,
        a: np.ndarray,
        b: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Internal signal values of the masked composite for given masks.

        For the Trichina masked AND (Eq. 5 of the paper) with input masks
        ``x``/``y`` and output mask ``z``::

            a_hat = a ^ x            b_hat = b ^ y
            t1 = a_hat & b_hat       t2 = x & b_hat
            t3 = x & y               t4 = t3 ^ z
            t5 = t2 ^ t4             t6 = t1 ^ t5
            t7 = y & a_hat           out = t6 ^ t7   (= (a & b) ^ z)

        OR is computed via De Morgan on the masked AND; XOR is share-wise.
        DOM uses the same share structure plus a register stage (modelled as
        two additional internal nodes).  This is a pure function of the data
        and mask bits; it is used both per-trace (with freshly drawn mask
        arrays) and to enumerate the exact toggle-count lookup tables of the
        vectorised trace engine.
        """
        if gate_type is GateType.MASKED_XOR:
            a_hat = np.logical_xor(a, x)
            b_hat = np.logical_xor(b, y)
            out_share = np.logical_xor(a_hat, b_hat)
            mask_share = np.logical_xor(x, y)
            return {"a_hat": a_hat, "b_hat": b_hat,
                    "out_share": out_share, "mask_share": mask_share}

        if gate_type is GateType.MASKED_OR:
            # OR(a, b) = NOT(AND(NOT a, NOT b)); masked by complementing the
            # data shares, which keeps the same internal node structure.
            a = np.logical_not(a)
            b = np.logical_not(b)

        a_hat = np.logical_xor(a, x)
        b_hat = np.logical_xor(b, y)
        t1 = np.logical_and(a_hat, b_hat)
        t2 = np.logical_and(x, b_hat)
        t3 = np.logical_and(x, y)
        t4 = np.logical_xor(t3, z)
        t5 = np.logical_xor(t2, t4)
        t6 = np.logical_xor(t1, t5)
        t7 = np.logical_and(y, a_hat)
        out = np.logical_xor(t6, t7)
        nodes = {
            "a_hat": a_hat, "b_hat": b_hat, "t1": t1, "t2": t2, "t3": t3,
            "t4": t4, "t5": t5, "t6": t6, "t7": t7, "out": out,
        }
        if gate_type is GateType.MASKED_AND_DOM:
            # DOM adds a register stage on the cross-domain terms.
            nodes["reg_t2"] = t2.copy()
            nodes["reg_t7"] = t7.copy()
        return nodes

    def _masked_internal_nodes(
        self,
        gate_type: GateType,
        a: np.ndarray,
        b: np.ndarray,
        reuse_last_masks: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, np.ndarray]:
        """Masked-composite node values for one stimulus with drawn masks."""
        if reuse_last_masks and hasattr(self, "_last_masks"):
            x, y, z = self._last_masks  # type: ignore[attr-defined]
        else:
            rng = rng if rng is not None else self._rng
            size = a.shape
            x = rng.integers(0, 2, size=size, dtype=np.uint8).astype(bool)
            y = rng.integers(0, 2, size=size, dtype=np.uint8).astype(bool)
            z = rng.integers(0, 2, size=size, dtype=np.uint8).astype(bool)
            self._last_masks = (x, y, z)
        return self._masked_nodes_for(gate_type, a, b, x, y, z)

    def masked_node_count(self, gate_type: GateType) -> int:
        """Number of internal nodes of a masked composite cell."""
        probe = np.zeros(1, dtype=bool)
        return len(self._masked_nodes_for(gate_type, probe, probe,
                                          probe, probe, probe))

    def masked_toggle_table(self, gate_type: GateType,
                            reuse_masks: bool = False) -> np.ndarray:
        """Exact toggle-count lookup table of a masked composite cell.

        The total internal-node toggle count of a masked composite between
        the previous and the current stimulus is a deterministic function of
        the four data bits ``(a_prev, b_prev, a_cur, b_cur)`` and the mask
        bits.  This enumerates that function once so the vectorised engine
        can replace per-trace share evaluation with a uint8 table gather:
        drawing a uniform mask index and looking up the count is *exactly*
        distribution-equivalent to drawing the masks and evaluating the
        shares.

        Args:
            gate_type: A ``MASKED_*`` composite type.
            reuse_masks: When True (faulty masking, ``mask_refresh=False``)
                the previous and current evaluations share one mask triple,
                so the table is indexed by 3 mask bits instead of 6.

        Returns:
            ``uint8`` array of shape ``(16, 8)`` (``reuse_masks``) or
            ``(16, 64)``, indexed by ``[data_index, mask_index]`` with
            ``data_index = a_prev | b_prev << 1 | a_cur << 2 | b_cur << 3``.
            The array is **read-only** and shared process-wide: repeated
            generator construction (e.g. sharded worker rebuilds) reuses
            the cached table instead of re-enumerating the composite.
        """
        cache_key = (type(self), gate_type, bool(reuse_masks))
        cached = _TOGGLE_TABLE_CACHE.get(cache_key)
        if cached is not None:
            if cached.flags.writeable:
                raise RuntimeError(
                    f"cached toggle table for {cache_key!r} became writable; "
                    f"a consumer must have flipped its write flag instead of "
                    f"copying before mutation")
            return cached
        with _TOGGLE_TABLE_LOCK:
            cached = _TOGGLE_TABLE_CACHE.get(cache_key)
            if cached is not None:
                return cached
            table = self._build_toggle_table(gate_type, reuse_masks)
            table.setflags(write=False)
            _TOGGLE_TABLE_CACHE[cache_key] = table
        return table

    def _build_toggle_table(self, gate_type: GateType,
                            reuse_masks: bool) -> np.ndarray:
        """Enumerate the toggle table (no caching; see the public method)."""
        mask_bits = 3 if reuse_masks else 6
        n_mask = 1 << mask_bits
        index = np.arange(16 * n_mask)
        data = index >> mask_bits
        mask = index & (n_mask - 1)
        a_prev = (data & 1).astype(bool)
        b_prev = ((data >> 1) & 1).astype(bool)
        a_cur = ((data >> 2) & 1).astype(bool)
        b_cur = ((data >> 3) & 1).astype(bool)
        x_prev = (mask & 1).astype(bool)
        y_prev = ((mask >> 1) & 1).astype(bool)
        z_prev = ((mask >> 2) & 1).astype(bool)
        if reuse_masks:
            x_cur, y_cur, z_cur = x_prev, y_prev, z_prev
        else:
            x_cur = ((mask >> 3) & 1).astype(bool)
            y_cur = ((mask >> 4) & 1).astype(bool)
            z_cur = ((mask >> 5) & 1).astype(bool)
        nodes_prev = self._masked_nodes_for(gate_type, a_prev, b_prev,
                                            x_prev, y_prev, z_prev)
        nodes_cur = self._masked_nodes_for(gate_type, a_cur, b_cur,
                                           x_cur, y_cur, z_cur)
        toggles = np.zeros(index.shape, dtype=np.uint8)
        for name in nodes_cur:
            toggles += np.logical_xor(nodes_prev[name], nodes_cur[name])
        return toggles.reshape(16, n_mask)

    def noise_sigma_abs(self) -> float:
        """Absolute noise standard deviation (in switching-energy units)."""
        if self.config.noise_sigma <= 0:
            return 0.0
        return self.config.noise_sigma * self.library.switching_energy(
            GateType.NAND)

    def fast_noise_params(self) -> Tuple[float, float]:
        """``(scale, offset)`` of the popcount fast-noise sampler.

        A raw Binomial(16, 1/2) popcount times ``scale`` plus ``offset``
        has mean 0 and standard deviation :meth:`noise_sigma_abs` — the
        offset is the ``-E[count] * scale`` centring term the trace engine
        folds into its static offsets and value tables.  Defined once here
        so the vectorised engine, the reference loop and any future
        backend apply bit-identical constants.
        """
        scale = self.noise_sigma_abs() / np.sqrt(FAST_NOISE_BITS / 4.0)
        return scale, -(FAST_NOISE_BITS / 2.0) * scale
