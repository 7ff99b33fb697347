"""Input-vector generation for simulation and TVLA campaigns.

TVLA (paper §II-A) compares the power distribution of two groups of traces:

* **fixed vs random** — one group repeatedly applies the same "fixed" input
  (e.g. a chosen plaintext/key), the other applies uniformly random inputs;
* **fixed vs fixed** — both groups apply fixed inputs chosen to exercise a
  known intermediate-value difference.

This module generates those campaigns as numpy boolean matrices of shape
``(n_traces, n_inputs)`` together with the per-trace *previous* state used by
the Hamming-distance power model (each trace models the transition from a
precharge/previous vector to the target vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..netlist.netlist import Netlist


@dataclass(frozen=True)
class TraceCampaign:
    """A set of stimulus pairs for one TVLA group.

    Attributes:
        label: Group label (``"fixed"`` or ``"random"``).
        previous: Boolean matrix ``(n_traces, n_inputs)`` applied first.
        current: Boolean matrix ``(n_traces, n_inputs)`` applied second; the
            power of a trace is derived from the transition previous→current.
        input_names: Primary-input order corresponding to the columns.

    Raises:
        ValueError: unless ``previous`` and ``current`` are 2-D matrices of
            one shape with ``len(input_names)`` columns.
    """

    label: str
    previous: np.ndarray
    current: np.ndarray
    input_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        previous = np.shape(self.previous)
        current = np.shape(self.current)
        if len(previous) != 2 or previous != current:
            raise ValueError(
                f"campaign {self.label!r}: previous and current must be 2-D "
                f"matrices of one shape, got {previous} and {current}")
        if previous[1] != len(self.input_names):
            raise ValueError(
                f"campaign {self.label!r}: stimulus has {previous[1]} "
                f"column(s) for {len(self.input_names)} input name(s)")

    @property
    def n_traces(self) -> int:
        """Number of traces in the campaign."""
        return int(self.previous.shape[0])

    def as_dicts(self) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Return (previous, current) as input-name keyed dictionaries."""
        prev = {name: self.previous[:, i] for i, name in enumerate(self.input_names)}
        cur = {name: self.current[:, i] for i, name in enumerate(self.input_names)}
        return prev, cur

    def slice(self, start: int, stop: int) -> "TraceCampaign":
        """Return the sub-campaign covering traces ``[start, stop)``.

        The stimulus matrices are views (no copy); used by the streaming
        TVLA driver to process a campaign in bounded-memory chunks.
        """
        if not 0 <= start <= stop <= self.n_traces:
            raise ValueError(
                f"invalid trace slice [{start}, {stop}) for a campaign of "
                f"{self.n_traces} traces")
        return TraceCampaign(self.label, self.previous[start:stop],
                             self.current[start:stop], self.input_names)


#: Fallback seed of :func:`random_vectors` when no generator is injected.
#: Stimulus generation must never be silently nondeterministic: an unseeded
#: ``default_rng()`` here once made "random"-group traces unreproducible
#: whenever a caller forgot to pass ``rng`` (polaris-lint PL001's first
#: real catch).
_DEFAULT_STIMULUS_SEED = 0x51A7


def random_vectors(n_vectors: int, n_bits: int,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Uniformly random boolean matrix of shape ``(n_vectors, n_bits)``.

    Args:
        n_vectors: Number of rows (stimulus vectors).
        n_bits: Number of columns (input bits).
        rng: Generator for the draws.  The TVLA campaign builders always
            inject their seeded generator; without one the draws come from
            a **fixed** seed (:data:`_DEFAULT_STIMULUS_SEED`) rather than
            OS entropy, so repeated bare calls return the same matrix —
            deterministic by default, never silently irreproducible.
    """
    if n_vectors < 1 or n_bits < 1:
        raise ValueError("n_vectors and n_bits must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(
        _DEFAULT_STIMULUS_SEED)
    return rng.integers(0, 2, size=(n_vectors, n_bits), dtype=np.uint8).astype(bool)


def fixed_vector(n_bits: int, seed: int = 0) -> np.ndarray:
    """A deterministic 'fixed' stimulus of ``n_bits`` bits (seeded)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8).astype(bool)


def input_matrix_to_dict(matrix: np.ndarray,
                         input_names: Sequence[str]) -> Dict[str, np.ndarray]:
    """Convert a ``(n, len(input_names))`` matrix to a name-keyed dict."""
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 2 or matrix.shape[1] != len(input_names):
        raise ValueError("matrix shape does not match input_names")
    return {name: matrix[:, i] for i, name in enumerate(input_names)}


def fixed_vs_random_campaigns(
    netlist: Netlist,
    n_traces: int,
    seed: int = 0,
    fixed_seed: int = 1,
    fixed_precharge: bool = True,
) -> Tuple[TraceCampaign, TraceCampaign]:
    """Build the fixed and random TVLA groups for ``netlist``.

    The fixed group repeatedly applies the same target vector; the random
    group applies fresh uniform vectors.  With ``fixed_precharge=True`` (the
    default, matching the classic fixed-vs-random methodology where the whole
    operation sequence of the fixed group is identical) the fixed group also
    re-uses a constant *previous* vector, so its power is data-deterministic
    up to noise.  With ``fixed_precharge=False`` the previous vectors of both
    groups are random, which only exposes second-order toggle-probability
    differences (a strictly harder detection setting).

    Returns:
        ``(fixed_campaign, random_campaign)`` each with ``n_traces`` traces.
    """
    if n_traces < 2:
        raise ValueError("n_traces must be >= 2")
    inputs = netlist.primary_inputs
    if not inputs:
        raise ValueError(f"netlist {netlist.name!r} has no primary inputs")
    rng = np.random.default_rng(seed)
    n_bits = len(inputs)

    fixed_value = fixed_vector(n_bits, seed=fixed_seed)
    fixed_current = np.tile(fixed_value, (n_traces, 1))
    if fixed_precharge:
        precharge_value = fixed_vector(n_bits, seed=fixed_seed + 7919)
        fixed_previous = np.tile(precharge_value, (n_traces, 1))
    else:
        fixed_previous = random_vectors(n_traces, n_bits, rng)
    random_current = random_vectors(n_traces, n_bits, rng)
    random_previous = random_vectors(n_traces, n_bits, rng)

    fixed = TraceCampaign("fixed", fixed_previous, fixed_current, inputs)
    random_group = TraceCampaign("random", random_previous, random_current, inputs)
    return fixed, random_group


def fixed_vs_fixed_campaigns(
    netlist: Netlist,
    n_traces: int,
    seed: int = 0,
    fixed_seed_a: int = 1,
    fixed_seed_b: int = 2,
) -> Tuple[TraceCampaign, TraceCampaign]:
    """Build two fixed-input TVLA groups differing in their target vector."""
    if n_traces < 2:
        raise ValueError("n_traces must be >= 2")
    inputs = netlist.primary_inputs
    if not inputs:
        raise ValueError(f"netlist {netlist.name!r} has no primary inputs")
    rng = np.random.default_rng(seed)
    n_bits = len(inputs)

    value_a = fixed_vector(n_bits, seed=fixed_seed_a)
    value_b = fixed_vector(n_bits, seed=fixed_seed_b)
    if bool(np.all(value_a == value_b)):
        value_b = np.logical_not(value_b)
    previous_a = random_vectors(n_traces, n_bits, rng)
    previous_b = random_vectors(n_traces, n_bits, rng)
    group_a = TraceCampaign("fixed_a", previous_a, np.tile(value_a, (n_traces, 1)),
                            inputs)
    group_b = TraceCampaign("fixed_b", previous_b, np.tile(value_b, (n_traces, 1)),
                            inputs)
    return group_a, group_b
