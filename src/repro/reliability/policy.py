"""Shared retry policy: bounded exponential backoff, deterministic jitter.

Every retry loop in the campaign/service stack (queue outcome reporting,
service-client reconnects) routes through one
:class:`RetryPolicy` so backoff behaviour is uniform, bounded, and — like
everything else in this repo — reproducible: the jitter fraction for
attempt *k* is a pure Philox function of ``(policy seed, k)``, not a
global RNG draw.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple, Type, TypeVar, Union

from ..power.ctrsample import philox_raw

T = TypeVar("T")

#: Jitter lane ("JIT" shifted), disjoint from sampler and fault lanes.
_JITTER_LANE = 0x4A495400


class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attempt *k* (0-based) sleeps ``min(base_delay * multiplier**k,
    max_delay)`` stretched by a jitter fraction in ``[0, jitter]`` drawn
    from a Philox stream keyed by ``seed`` — two processes with the same
    policy back off identically.
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.05,
                 max_delay: float = 2.0, multiplier: float = 2.0,
                 jitter: float = 0.25, seed: int = 0) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = int(seed)

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        base = min(self.base_delay * self.multiplier ** attempt,
                   self.max_delay)
        if self.jitter == 0 or base == 0:
            return base
        word = int(philox_raw(self.seed, 0, 0, attempt, _JITTER_LANE, 1)[0])
        return base * (1.0 + self.jitter * (word / 2.0 ** 64))

    def call(self, fn: Callable[[], T], *,
             retry_on: Union[Type[BaseException],
                             Tuple[Type[BaseException], ...]],
             sleep: Callable[[float], None] = time.sleep,
             on_retry: Optional[Callable[[int, BaseException],
                                         None]] = None,
             reraise: bool = True) -> Optional[T]:
        """Call ``fn`` up to ``max_attempts`` times, retrying ``retry_on``.

        ``on_retry(attempt, error)`` fires after every failed attempt
        (including the last) — use it to re-establish state, e.g. a
        reconnect, before the next try.  With ``reraise=False`` the final
        failure is swallowed and ``None`` returned, preserving
        best-effort semantics for observational paths.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except retry_on as error:
                last = error
                if on_retry is not None:
                    on_retry(attempt, error)
                if attempt + 1 < self.max_attempts:
                    sleep(self.delay(attempt))
        if reraise and last is not None:
            raise last
        return None
