"""Shared bit-level primitives for packed-trace processing.

The simulator's compiled backend keeps the whole state matrix **bit-packed**
(eight stimulus vectors per byte, ``numpy.packbits`` MSB-first order), and
the power engine consumes those bytes directly whenever a compiled plan
exists.  The bit-level primitives of that engine live here: the
population counts and word counts of the counter sampler
(:mod:`repro.power.ctrsample`, whose measurement noise is Binomial(16,
1/2) popcounts of raw generator words) and the data-transition codes
that index the masked composites' toggle tables (:mod:`.traces`).

:func:`column_blocks` is the gate-block partition shared by the trace
engine's block producer and the gate-blocked moment fold
(:mod:`repro.tvla.moments`): both walk a chunk's gates in the same blocks,
so a block can be filled and folded while it is cache-resident.

The counts come from ``numpy.bitwise_count`` (NumPy >= 2.0).  It is
SIMD-vectorised for uint8 but runs a scalar loop on uint16 (2.1 ms
against 0.28 ms for the same 3.6 MB on a 2-vCPU x86-64 VM), so bulk
16-bit counts go through :func:`popcount16_inplace`: byte counts, then
one in-place fold of each byte pair.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Bit count of the fast measurement-noise sampler: one Binomial(16, 1/2)
#: popcount per sample, sliced out of raw 64-bit generator words (four
#: samples per word).  Shared by the trace engine (:mod:`.traces`) and the
#: power model's sampler parameters (:meth:`.model.GatePowerModel.
#: fast_noise_params`).
FAST_NOISE_BITS = 16


#: Bytes of one float64 block of the gate-blocked fold: 1 MiB, so a
#: block's two fold buffers stay L2-resident through every order's pass.
FOLD_BLOCK_BYTES = 1 << 20
#: Fewest gates (columns of a ``(n_traces, n_gates)`` batch) per block of
#: :func:`column_blocks`: the 1 MiB width of a 2048-trace chunk.
FOLD_BLOCK_COLUMNS = 64


def column_blocks(width: int, n_rows: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` column ranges of the gate-blocked fold over
    ``width`` columns of ``n_rows`` rows.

    A block holds as many columns as fill :data:`FOLD_BLOCK_BYTES` of
    float64 rows, and at least :data:`FOLD_BLOCK_COLUMNS`: 64 for a
    2048-trace chunk, 131 for a 1000-trace one.  Every block costs a fixed
    number of numpy calls, so short chunks take wider blocks.  (Calls of
    a campaign's worker threads, which fold shards in one process at once,
    are each a GIL hand-off; ``assess_leakage`` folds in forked processes,
    which share no GIL.)  The partition does not change the
    result as long as no block is a single column: a column's sum
    associates the same way in any block of two or more columns, but a
    one-column block of a C-order batch is contiguous, so numpy would sum
    it pairwise, while the same column of the whole batch is summed row
    by row.  A trailing single column is therefore joined to the block
    before it.
    """
    step = max(FOLD_BLOCK_COLUMNS, FOLD_BLOCK_BYTES // (8 * max(1, n_rows)))
    edges = list(range(0, width, step)) + [width]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges, edges[1:]))


def words_for_units(n_units: int, dtype: np.dtype) -> int:
    """uint64 generator words covering ``n_units`` items of ``dtype``.

    Every raw-bits consumer draws whole 64-bit words and reinterprets them
    as smaller units (uint8 mask bytes, uint16 noise popcount fields), so
    the word count is ``ceil(n_units * itemsize / 8)`` — the single
    definition behind what used to be separate ``(count + 7) // 8`` and
    ``(count + 3) // 4`` expressions at the draw sites.  The final word's
    tail units beyond ``n_units`` are discarded by the caller's
    ``.view(unit)[:n_units]`` slice.
    """
    if n_units < 0:
        raise ValueError(f"n_units must be >= 0, got {n_units}")
    itemsize = np.dtype(dtype).itemsize
    if itemsize > 8 or 8 % itemsize:
        raise ValueError(
            f"dtype {np.dtype(dtype)} does not tile a 64-bit word")
    return (int(n_units) * itemsize + 7) // 8


def combine_transition_codes(shares: np.ndarray) -> np.ndarray:
    """Fuse four 0/1 share planes into 4-bit data-transition codes.

    Args:
        shares: ``(4, width, n)`` uint8 array of 0/1 values, in the order
            ``(a_prev, b_prev, a_cur, b_cur)``.

    Returns:
        ``(width, n)`` uint8 codes ``a_prev | b_prev<<1 | a_cur<<2 |
        b_cur<<3`` — the masked-composite table row index.

    Eight byte lanes are combined per operation through a ``uint64`` view
    when the plane size is word-aligned (byte values <= 1 shifted by <= 3
    never cross a byte boundary, so the wide ops are exact); other shapes
    take a byte-wise fallback that is bit-identical.
    """
    shares = np.ascontiguousarray(shares, dtype=np.uint8)
    if shares.ndim != 3 or shares.shape[0] != 4:
        raise ValueError(
            f"shares must have shape (4, width, n), got {shares.shape}")
    flat = shares.reshape(4, -1)
    if flat.shape[1] and flat.shape[1] % 8 == 0:
        lanes = flat.view(np.uint64)
        codes = (lanes[0] | (lanes[1] << np.uint64(1))
                 | (lanes[2] << np.uint64(2)) | (lanes[3] << np.uint64(3)))
        return codes.view(np.uint8).reshape(shares.shape[1:])
    return (flat[0] | (flat[1] << 1) | (flat[2] << 2)
            | (flat[3] << 3)).reshape(shares.shape[1:])


#: Keeps the low byte of every 16-bit lane of a uint64 word.
_LOW_BYTES = np.uint64(0x00FF00FF00FF00FF)
#: Words per fold block of :func:`popcount16_inplace`: the shifted copy
#: lives in one 128 KiB scratch block, never a buffer-sized temporary.
_FOLD_WORDS = 1 << 14


def popcount16(values: np.ndarray) -> np.ndarray:
    """Per-element population count of uint16 (or uint8) arrays."""
    return np.bitwise_count(values)


def popcount16_inplace(words: np.ndarray) -> np.ndarray:
    """Population counts of the 16-bit lanes of a uint64 word buffer.

    Equal to ``popcount16(words.view(np.uint16))`` lane for lane, but
    computed **in place**: the SIMD uint8 ``bitwise_count`` overwrites
    every byte with its count, then each byte pair is summed into its
    16-bit lane (``w += w >> 8; w &= 0x00FF00FF00FF00FF``; a byte
    count is at most 8, so no sum carries across a lane).  The shift
    moves each lane's high byte onto its low byte on either byte
    order.  The fold runs in fixed blocks, so its only temporary is
    one block.

    Args:
        words: 1-D C-contiguous uint64 buffer; overwritten.

    Returns:
        The uint16 view of ``words`` holding the counts.
    """
    lanes = words.view(np.uint8)
    np.bitwise_count(lanes, out=lanes)
    shifted = np.empty(min(words.size, _FOLD_WORDS), dtype=np.uint64)
    eight = np.uint64(8)
    for start in range(0, words.size, _FOLD_WORDS):
        block = words[start:start + _FOLD_WORDS]
        high = shifted[:block.size]
        np.right_shift(block, eight, out=high)
        np.add(block, high, out=block)
        np.bitwise_and(block, _LOW_BYTES, out=block)
    return words.view(np.uint16)
