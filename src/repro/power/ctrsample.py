"""Counter-based stateless mask/noise sampling.

The streaming TVLA engine draws two kinds of randomness per trace chunk:
per-trace mask bytes for every masked composite sub-group and raw words for
the popcount measurement-noise sampler.  Both come from a Philox-4x64-10
counter-block cipher keyed by the campaign seed, where the 256-bit counter
encodes the draw *coordinates* ``(class, group, chunk, lane)``.  Every
chunk's bits are a pure function of its coordinates: no generator object
advances, no seed tree is walked, and shard-layout invariance holds **by
construction** — any chunking/sharding/executor layout reads the very same
blocks.  The raw counter words are consumed directly: a 64-bit block *is*
eight packed mask bytes (the per-gate table gather indexes on the raw byte,
so a separate per-trace mask integer never materialises), and noise
popcounts are taken straight off 16-bit views of the same words.

Production bits come from :class:`numpy.random.Philox` (C implementation).
The tests' ``philox_blocks_reference`` (``tests/oracles/ctrsample.py``)
re-implements the full 10-round bumped-key Philox network in pure
vectorised numpy and is pinned bitwise against the native generator — the
``ctr-philox`` oracle pair — so the counter mapping cannot silently drift
from the published Philox function.

Coordinate packing
------------------

======  ==========================================================
word    contents
======  ==========================================================
0       block counter (advanced by Philox itself)
1       lane — :data:`NOISE_LANE`, :data:`GAUSS_LANE`, or
        :data:`MASK_LANE_BASE` + masked-sub-group index
2       global chunk index
3       ``class_index << 32 | group_index``
======  ==========================================================

The 128-bit Philox key is the campaign seed XOR-folded with fixed
domain-separation constants, so counter-sampler streams can never collide
with any other Philox user of the same seed integer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .bitops import popcount16_inplace, words_for_units

#: Lane of the fast-noise popcount words.
NOISE_LANE = 0
#: Lane of the exact-Gaussian reference stream (:meth:`CounterDraws.gauss`).
GAUSS_LANE = 1
#: First mask lane; masked sub-group ``k`` draws on lane
#: ``MASK_LANE_BASE + k``.
MASK_LANE_BASE = 2

#: Domain-separation constants XOR-folded into the Philox key (the 64-bit
#: fractional expansions of sqrt(5) and sqrt(7), same provenance as the
#: Philox Weyl constants).
_KEY_DOMAIN = (0x3C6EF372FE94F82B, 0xA54FF53A5F1D36F1)


def counter_key(seed: int) -> np.ndarray:
    """128-bit Philox key for a campaign seed (domain-separated).

    Accepts any Python int; the low 128 bits are used, so the full
    ``TvlaConfig.seed`` range maps injectively onto keys.
    """
    folded = int(seed) & ((1 << 128) - 1)
    return np.array([(folded & 0xFFFFFFFFFFFFFFFF) ^ _KEY_DOMAIN[0],
                     (folded >> 64) ^ _KEY_DOMAIN[1]], dtype=np.uint64)


def counter_block(class_index: int, group_index: int, chunk_index: int,
                  lane: int) -> np.ndarray:
    """256-bit Philox counter encoding one draw coordinate.

    Word 0 is the intra-stream block counter (advanced by the generator);
    words 1..3 pin the stream to its ``(lane, chunk, class, group)``
    coordinates, making every stream reproducible in isolation.
    """
    for name, value, bound in (("class_index", class_index, 1 << 32),
                               ("group_index", group_index, 1 << 32),
                               ("chunk_index", chunk_index, 1 << 64),
                               ("lane", lane, 1 << 64)):
        if not 0 <= value < bound:
            raise ValueError(f"{name} must be in [0, {bound}), got {value}")
    return np.array(
        [0, lane, chunk_index, (class_index << 32) | group_index],
        dtype=np.uint64)


def philox_bit_generator(seed: int, class_index: int, group_index: int,
                         chunk_index: int, lane: int) -> np.random.Philox:
    """Native Philox bit generator positioned at a draw coordinate.

    This is the counter sampler's single RNG seam: every byte the
    ``"counter"`` discipline emits comes out of a generator constructed
    here, keyed by :func:`counter_key` and positioned by
    :func:`counter_block` — seedless-by-design in the sense that no call
    site ever constructs an unseeded generator.
    """
    return np.random.Philox(
        counter=counter_block(class_index, group_index, chunk_index, lane),
        key=counter_key(seed))


def philox_raw(seed: int, class_index: int, group_index: int,
               chunk_index: int, lane: int, n_words: int) -> np.ndarray:
    """First ``n_words`` raw uint64 words of a coordinate's Philox stream.

    Pure function of its arguments (a fresh native generator per call);
    pinned bitwise against the pure-numpy ``philox_blocks_reference`` of
    the tests — the ``ctr-philox`` oracle pair.
    """
    return philox_bit_generator(
        seed, class_index, group_index, chunk_index, lane).random_raw(n_words)


class CounterDraws:
    """All randomness of one ``(seed, class, group, chunk)`` cell.

    Stateless: every method derives its bits from the cell coordinates and
    a per-consumer lane, so calls commute and repeat — the property the
    ``tests/test_ctrsample.py`` suite pins (coordinate determinism, stream
    independence, layout invariance).
    """

    __slots__ = ("seed", "class_index", "group_index", "chunk_index")

    def __init__(self, seed: int, class_index: int, group_index: int,
                 chunk_index: int) -> None:
        self.seed = int(seed)
        self.class_index = int(class_index)
        self.group_index = int(group_index)
        self.chunk_index = int(chunk_index)

    def _raw(self, lane: int, n_words: int) -> np.ndarray:
        return philox_raw(self.seed, self.class_index, self.group_index,
                          self.chunk_index, lane, n_words)

    def mask_bytes(self, subgroup_index: int, width: int,
                   n_traces: int) -> np.ndarray:
        """Raw mask bytes for one masked sub-group, ``(width, n_traces)``.

        Full-range uint8 — the consumer's fused value table absorbs the
        reduction to ``mask_bits`` (byte ``& (2**mask_bits - 1)`` indexes
        the same entry), so no per-trace mask integer is ever formed.
        """
        count = width * n_traces
        words = self._raw(MASK_LANE_BASE + subgroup_index,
                          words_for_units(count, np.uint8))
        return words.view(np.uint8)[:count].reshape(width, n_traces)

    def noise_counts(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Binomial(16, 1/2) popcounts straight off counter words.

        On NumPy >= 2 the counts overwrite the freshly drawn word buffer
        (:func:`~repro.power.bitops.popcount16_inplace`), so no second
        buffer of the chunk's size is allocated.
        """
        count = int(np.prod(shape)) if shape else 1
        words = self._raw(NOISE_LANE, words_for_units(count, np.uint16))
        return popcount16_inplace(words)[:count].reshape(shape)

    def gauss(self, shape: Tuple[int, ...],
              dtype: np.dtype = np.float32) -> np.ndarray:
        """Exact standard normals on the Gaussian lane.

        The trace engine draws popcount noise (:meth:`noise_counts`); these
        normals are the Gaussian reference of the TVLA null-calibration
        tests.
        """
        generator = np.random.Generator(philox_bit_generator(
            self.seed, self.class_index, self.group_index,
            self.chunk_index, GAUSS_LANE))
        return generator.standard_normal(size=shape, dtype=dtype)


class CounterStream:
    """Per-``(seed, class, group)`` factory of chunk draws.

    Returns a :class:`CounterDraws` for any **global** chunk index on
    demand — shards never re-derive local coordinates, they just ask for
    the global chunks of their range.
    """

    __slots__ = ("seed", "class_index", "group_index")

    def __init__(self, seed: int, class_index: int, group_index: int) -> None:
        self.seed = int(seed)
        self.class_index = int(class_index)
        self.group_index = int(group_index)

    def draws(self, chunk_index: int) -> CounterDraws:
        """Draws of global chunk ``chunk_index`` of this campaign."""
        return CounterDraws(self.seed, self.class_index, self.group_index,
                            chunk_index)
