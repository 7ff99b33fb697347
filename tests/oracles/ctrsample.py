"""Pure-numpy Philox-4x64-10 oracle of the counter sampler's native bits.

:func:`philox_blocks_reference` re-implements the full 10-round
bumped-key Philox network in vectorised numpy.  It is pinned bitwise
against :func:`repro.power.ctrsample.philox_raw` (PL002 pair
``ctr-philox``), so the counter mapping cannot silently drift from the
published Philox function.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_U64 = np.uint64
#: Philox-4x64 round multipliers and Weyl key increments (Salmon et al.,
#: "Parallel random numbers: as easy as 1, 2, 3", SC'11).
_PHILOX_M0 = _U64(0xD2E7470EE14C6C93)
_PHILOX_M1 = _U64(0xCA5A826395121157)
_PHILOX_W0 = _U64(0x9E3779B97F4A7C15)
_PHILOX_W1 = _U64(0xBB67AE8584CAA73B)
_LO32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)


def _mulhilo64(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of the 128-bit product ``a * b``."""
    low = a * b
    a_hi, a_lo = a >> _S32, a & _LO32
    b_hi, b_lo = b >> _S32, b & _LO32
    mid = a_hi * b_lo + ((a_lo * b_lo) >> _S32)
    high = (a_hi * b_hi + (mid >> _S32)
            + ((a_lo * b_hi + (mid & _LO32)) >> _S32))
    return high, low


def philox_blocks_reference(key: np.ndarray, counter: np.ndarray,
                            n_blocks: int) -> np.ndarray:
    """Pure-numpy Philox-4x64-10 oracle for the native ``random_raw``.

    Emits ``4 * n_blocks`` uint64 words bit-identical to
    ``numpy.random.Philox(counter=counter, key=key).random_raw(4 * n_blocks)``.
    The native generator **pre-increments**: emitted block ``j`` encrypts
    ``counter + j + 1`` (with 256-bit carry), which this oracle reproduces
    with an explicit carry chain.  Ten S-box rounds, the key bumped by the
    Weyl constants before every round after the first.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    key = np.asarray(key, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        index = np.arange(1, n_blocks + 1, dtype=np.uint64)
        x0 = counter[0] + index
        carry = (x0 < index).astype(np.uint64)
        x1 = counter[1] + carry
        carry = (x1 < carry).astype(np.uint64)
        x2 = counter[2] + carry
        carry = (x2 < carry).astype(np.uint64)
        x3 = counter[3] + carry
        k0, k1 = key[0], key[1]
        for round_index in range(10):
            if round_index:
                k0 = k0 + _PHILOX_W0
                k1 = k1 + _PHILOX_W1
            hi0, lo0 = _mulhilo64(_PHILOX_M0, x0)
            hi1, lo1 = _mulhilo64(_PHILOX_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=1).reshape(-1)
