"""A fixed block of reference work that measures how fast the host runs now.

The benchmark shares its host with other work, and the speed the host gives
it drifts by 10-20 % over minutes; such a drift moves every unit of a run
together.  The reference block -- a pure-Python loop and a few numpy passes
over 16 MiB, code outside the library -- is timed after each timed unit of
an untraced pass.  :func:`at_reference_speed` scales a pass by
``REFERENCE_S`` over the block's median in that pass, which reports it at a
fixed host speed: a change to the library still moves the result in full,
a slow or fast moment of the host does not.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: About the median seconds of :func:`reference_block` on a 2-core x86-64
#: (Haswell class) host; only the ratio to it matters.
REFERENCE_S = 0.09

_LOOP = 800_000
_ARRAY = np.random.default_rng(0).integers(0, 2**63, size=2 << 20,
                                           dtype=np.uint64)  # 16 MiB


def reference_block() -> float:
    """Seconds of the fixed reference work."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    for _ in range(8):
        np.bitwise_xor(_ARRAY, _ARRAY >> 3, out=_ARRAY)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, references: Sequence[float]) -> float:
    """``seconds`` scaled from the host speed ``references`` measured."""
    return seconds * REFERENCE_S / statistics.median(references)
