"""One-pass (incremental) raw and central moment computation.

The paper (§II-A, citing Schneider & Moradi) notes that naive TVLA is slow
because mean and variance require two passes over the traces; the remedy is
an online accumulator that updates the raw moment ``M1`` and central sums as
each trace ``y`` arrives::

    M1' = M1 + delta / n,      delta = y - M1
    mu  = M1,                  s^2 = CM2 = M2 - M1^2

This module implements that accumulator for central moments of *arbitrary*
order (the general pairwise-update formulas of Pébay, which reduce to the
classic Welford/Chan updates at orders 2-4), vectorised so one accumulator
tracks all gates of a design simultaneously.  Higher-order moments enable
the higher-order TVLA variants discussed by Schneider & Moradi: the order-d
standardised t-test needs central sums up to order ``2 * d``, so order-2
(variance) TVLA tracks up to ``M4`` and order-3 (skewness) TVLA up to
``M6``.  Accumulators also merge losslessly (:meth:`OnePassMoments.merge`),
which is what lets sharded campaigns combine partial acquisitions.
"""

from __future__ import annotations

import json
import struct
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..power.bitops import column_blocks

ArrayLike = Union[float, np.ndarray]

#: Magic + version prefix of the :meth:`OnePassMoments.to_bytes` wire format.
_WIRE_MAGIC = b"OPM1"
#: On-the-wire array dtype: explicit little-endian float64, so blobs written
#: on any host deserialise bit-identically everywhere.
_WIRE_DTYPE = "<f8"

#: One column block of a batch: ``(start, stop, block)`` with ``block`` the
#: batch's columns ``[start, stop)`` as an ``(n_samples, stop - start)``
#: array.
ColumnBlock = Tuple[int, int, np.ndarray]


class OnePassMoments:
    """Streaming estimator of mean, variance, skewness and kurtosis.

    The accumulator accepts scalar samples or vectors of samples (one entry
    per gate / trace point); all entries are updated in parallel in a single
    pass, matching the acquisition-time computation advocated by the paper.

    Args:
        max_order: Highest central-moment order to track (any integer >= 2;
            order-d standardised TVLA needs ``2 * d``).
        shape: Shape of each incoming sample (``()`` for scalars).
    """

    def __init__(self, max_order: int = 2, shape: Tuple[int, ...] = ()) -> None:
        if not isinstance(max_order, (int, np.integer)) or max_order < 2:
            raise ValueError("max_order must be an integer >= 2")
        self.max_order = int(max_order)
        self.shape = tuple(shape)
        self.count = 0
        self._mean = np.zeros(self.shape, dtype=float)
        #: Central sums M_p = sum((y - mean)^p); index p - 2 holds order p.
        self._sums: List[np.ndarray] = [
            np.zeros(self.shape, dtype=float)
            for _ in range(2, self.max_order + 1)
        ]

    # ------------------------------------------------------------------
    def update(self, sample: ArrayLike) -> None:
        """Fold one sample (scalar or array of ``shape``) into the moments."""
        sample = np.asarray(sample, dtype=float)
        if sample.shape != self.shape:
            raise ValueError(
                f"sample shape {sample.shape} does not match accumulator "
                f"shape {self.shape}"
            )
        # A single sample is a degenerate batch: every central sum is zero,
        # so the pairwise combine reduces to the classic Welford update.
        zeros = [np.zeros(self.shape, dtype=float) for _ in self._sums]
        self._combine(1, sample, zeros)

    def update_batch(self, samples: np.ndarray) -> None:
        """Fold a batch of samples (first axis indexes the samples).

        The batch's mean and central sums are computed with vectorised
        matrix reductions and merged into the running state with the exact
        pairwise (Chan et al. / Pébay) formulas — one accumulator update per
        batch instead of one Python-level Welford step per sample, which is
        what makes chunked streaming TVLA practical at paper scale.

        The fold is **gate-blocked**: a 2-D batch is processed in the
        :func:`~repro.power.bitops.column_blocks` of its shape (1 MiB of
        float64 rows, at least 64 columns) by :meth:`_update_blocks`.  Each block is converted into
        one float64 work buffer in the batch's own memory layout, reduced
        to its mean, centred in place, and every order's power is one
        in-place multiply into a second block buffer followed by a column
        sum.  Both buffers stay L2-resident through all the passes, and no
        full-chunk float64 temporary is ever allocated, so concurrent
        folds on several threads do not contend for multi-MB allocations.  Per column the operand order, dtype and summation
        association (sequential row adds for C-order batches, contiguous
        pairwise sums for F-order ones) are those of
        :meth:`update_batch_naive`, so results are **bit-identical** to it
        (pinned by ``tests/test_packed_power.py``).  1-D batches, batches
        of more than two dimensions and strided layouts that are neither
        C- nor F-contiguous take the naive path itself.

        Accumulators configured for ``max_order == 2`` (first-order TVLA
        campaigns) never build odd-order central sums: the batch reduction
        stops at the squared deviations.
        """
        samples = np.asarray(samples)
        if samples.ndim < 1 or samples.shape[1:] != self.shape:
            raise ValueError(
                f"batch shape {samples.shape} does not match accumulator "
                f"shape (n, *{self.shape})"
            )
        n_b = samples.shape[0]
        if n_b == 0:
            return
        if samples.ndim != 2 or not (samples.flags.c_contiguous
                                     or samples.flags.f_contiguous):
            self.update_batch_naive(samples)
            return
        # numpy associates a column sum by memory layout, and the naive
        # path's temporaries inherit the batch's layout, so the block
        # buffers must share it.
        order = "C" if samples.flags.c_contiguous else "F"
        blocks = column_blocks(samples.shape[1], n_b)
        block_width = max((stop - start for start, stop in blocks), default=0)
        work = np.empty((n_b, block_width), dtype=np.float64, order=order)
        chain = np.empty_like(work) if self.max_order > 2 else None
        self._update_blocks(n_b, ((start, stop, samples[:, start:stop])
                                  for start, stop in blocks), work, chain)

    def _update_blocks(self, n_b: int, blocks: Iterable[ColumnBlock],
                       work: np.ndarray, chain: Optional[np.ndarray]) -> None:
        """Fold a batch of ``n_b`` samples given as column blocks.

        The one blocked fold: :meth:`update_batch` hands it the column
        blocks of a batch in memory, and the TVLA chunk fold
        (:func:`repro.tvla.assessment._fold_chunk`) the blocks of
        :meth:`~repro.power.PowerTraceGenerator._fill_blocks` as they are
        produced.  ``blocks`` must cover the accumulator's columns in
        order.  ``work`` and ``chain`` (``None`` when ``max_order == 2``)
        are ``(n_b, >= widest block)`` float64 buffers in the blocks'
        memory layout; each block folds through their leading columns.
        """
        mean_b = np.empty(self.shape)
        sums_b = [np.empty(self.shape) for _ in self._sums]
        for start, stop, block in blocks:
            delta = work[:, :stop - start]
            if block.dtype != np.float64:
                delta[...] = block
                block = delta
            mean = np.mean(block, axis=0, out=mean_b[start:stop])
            np.subtract(block, mean, out=delta)
            if chain is None:
                # Order-2 needs no preserved delta: square it in place.
                np.multiply(delta, delta, out=delta)
                np.sum(delta, axis=0, out=sums_b[0][start:stop])
                continue
            power = chain[:, :stop - start]
            np.multiply(delta, delta, out=power)
            np.sum(power, axis=0, out=sums_b[0][start:stop])
            for sums in sums_b[1:]:
                np.multiply(power, delta, out=power)
                np.sum(power, axis=0, out=sums[start:stop])
        self._combine(n_b, mean_b, sums_b)

    def update_batch_naive(self, samples: np.ndarray) -> None:
        """Reference implementation of :meth:`update_batch`.

        Converts the whole batch to float64 up front and materialises the
        full ``delta**k`` power chain, one batch-sized matrix per order.
        Kept as the bit-identical oracle for the property tests and the
        ``microbench_moment_update`` comparison, and run by
        :meth:`update_batch` itself for layouts it does not block;
        production paths call :meth:`update_batch`.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim < 1 or samples.shape[1:] != self.shape:
            raise ValueError(
                f"batch shape {samples.shape} does not match accumulator "
                f"shape (n, *{self.shape})"
            )
        n_b = samples.shape[0]
        if n_b == 0:
            return
        mean_b = samples.mean(axis=0)
        delta = samples - mean_b
        power = delta * delta
        sums_b = [power.sum(axis=0)]
        for _ in range(3, self.max_order + 1):
            power = power * delta
            sums_b.append(power.sum(axis=0))
        self._combine(n_b, mean_b, sums_b)

    def _combine(self, n_b: int, mean_b: np.ndarray,
                 sums_b: Sequence[np.ndarray]) -> None:
        """Merge a partial stream's (count, mean, central sums) in place.

        Implements Pébay's arbitrary-order pairwise formula::

            M_p = M_p^A + M_p^B
                  + sum_{k=1}^{p-2} C(p,k) [ (-n_B d/n)^k M_{p-k}^A
                                             + (n_A d/n)^k M_{p-k}^B ]
                  + (n_A n_B d / n)^p [ 1/n_B^{p-1} - (-1/n_A)^{p-1} ]

        with ``d = mean_B - mean_A``; at p = 2, 3, 4 this reduces to the
        familiar Chan et al. merge used by streaming variance computations.
        Every order, 2 included, takes this one loop.
        """
        n_a = self.count
        if n_b == 0:
            return
        n = n_a + n_b
        if n_a == 0:
            self.count = n_b
            self._mean = np.array(mean_b, dtype=float)
            self._sums = [np.array(s, dtype=float) for s in sums_b]
            return
        delta = mean_b - self._mean
        sums_a = self._sums
        step_a = -n_b * delta / n
        step_b = n_a * delta / n
        cross = n_a * n_b * delta / n
        new_sums: List[np.ndarray] = []
        for p in range(2, self.max_order + 1):
            index = p - 2
            value = sums_a[index] + sums_b[index]
            for k in range(1, p - 1):
                lower = p - k - 2  # index of M_{p-k}; p - k >= 2 here
                value = value + comb(p, k) * (step_a ** k * sums_a[lower]
                                              + step_b ** k * sums_b[lower])
            value = value + cross ** p * (1.0 / n_b ** (p - 1)
                                          - (-1.0 / n_a) ** (p - 1))
            new_sums.append(value)
        self._sums = new_sums
        self._mean = self._mean + delta * (n_b / n)
        self.count = n

    # ------------------------------------------------------------------
    @property
    def mean(self) -> np.ndarray:
        """First raw moment (sample mean)."""
        return self._mean.copy()

    def central_moment(self, order: int) -> np.ndarray:
        """Biased central moment ``CM_order`` (central sum / n)."""
        if order != 1 and not 2 <= order <= self.max_order:
            raise ValueError(f"order {order} not tracked (max {self.max_order})")
        if self.count == 0 or order == 1:
            return np.zeros(self.shape, dtype=float)
        return self._sums[order - 2] / self.count

    @property
    def variance(self) -> np.ndarray:
        """Unbiased sample variance (``n - 1`` denominator)."""
        if self.count < 2:
            return np.zeros(self.shape, dtype=float)
        return self._sums[0] / (self.count - 1)

    @property
    def standard_deviation(self) -> np.ndarray:
        """Unbiased sample standard deviation."""
        return np.sqrt(self.variance)

    def skewness(self) -> np.ndarray:
        """Standardised third central moment (0 where variance is 0)."""
        if self.max_order < 3:
            raise ValueError("accumulator was not configured for order 3")
        cm2 = self.central_moment(2)
        cm3 = self.central_moment(3)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = np.where(cm2 > 0, cm3 / np.power(np.maximum(cm2, 1e-300), 1.5),
                              0.0)
        return result

    def kurtosis(self) -> np.ndarray:
        """Standardised fourth central moment (0 where variance is 0)."""
        if self.max_order < 4:
            raise ValueError("accumulator was not configured for order 4")
        cm2 = self.central_moment(2)
        cm4 = self.central_moment(4)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = np.where(cm2 > 0, cm4 / np.power(np.maximum(cm2, 1e-300), 2.0),
                              0.0)
        return result

    def merge(self, other: "OnePassMoments") -> "OnePassMoments":
        """Return an accumulator equivalent to having seen both streams.

        Mean and all tracked central sums are combined with the exact
        pairwise (Chan et al. / Pébay) formulas, so merging partial TVLA
        acquisitions — e.g. the per-shard accumulators of
        :mod:`repro.tvla.sharding` — is lossless.
        """
        if self.shape != other.shape or self.max_order != other.max_order:
            raise ValueError("cannot merge accumulators with different config")
        merged = OnePassMoments(self.max_order, self.shape)
        merged.count = self.count
        merged._mean = self._mean.copy()
        merged._sums = [s.copy() for s in self._sums]
        merged._combine(other.count, other._mean, other._sums)
        return merged

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise the accumulator to a compact, lossless byte string.

        The format is ``b"OPM1"`` + a length-prefixed JSON header
        ``{max_order, shape, count}`` + the mean and every central sum as
        raw little-endian float64 buffers.  Raw buffers (not decimal text)
        make the round-trip bit-identical, which is what lets
        :mod:`repro.campaign` checkpoint shard partials to disk, ship them
        between worker processes and still merge them losslessly.
        """
        header = json.dumps({
            "max_order": self.max_order,
            "shape": list(self.shape),
            "count": self.count,
        }).encode("ascii")
        chunks = [_WIRE_MAGIC, struct.pack("<I", len(header)), header,
                  np.ascontiguousarray(self._mean, dtype=_WIRE_DTYPE).tobytes()]
        chunks.extend(np.ascontiguousarray(s, dtype=_WIRE_DTYPE).tobytes()
                      for s in self._sums)
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "OnePassMoments":
        """Rebuild an accumulator serialised by :meth:`to_bytes`.

        Raises:
            ValueError: for truncated, corrupt or foreign payloads.
        """
        if len(payload) < len(_WIRE_MAGIC) + 4 or \
                not payload.startswith(_WIRE_MAGIC):
            raise ValueError("not an OnePassMoments payload")
        offset = len(_WIRE_MAGIC)
        (header_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        try:
            header = json.loads(payload[offset:offset + header_len])
            max_order = header["max_order"]
            shape = tuple(header["shape"])
            count = header["count"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt OnePassMoments header: {exc}") from exc
        offset += header_len
        acc = cls(max_order=max_order, shape=shape)
        n_arrays = 1 + len(acc._sums)
        n_values = int(np.prod(shape, dtype=np.int64)) if shape else 1
        expected = offset + n_arrays * n_values * 8
        if len(payload) != expected:
            raise ValueError(
                f"truncated OnePassMoments payload: expected {expected} "
                f"bytes, got {len(payload)}")

        def read_array() -> np.ndarray:
            nonlocal offset
            flat = np.frombuffer(payload, dtype=_WIRE_DTYPE, count=n_values,
                                 offset=offset)
            offset += n_values * 8
            # Copy out of the read-only buffer view and drop the explicit
            # byte order: in-memory accumulators use the native dtype.
            return flat.astype(float, copy=True).reshape(shape)

        acc.count = int(count)
        acc._mean = read_array()
        acc._sums = [read_array() for _ in acc._sums]
        return acc


def fold_moments(accumulators: Iterable[OnePassMoments]) -> OnePassMoments:
    """Left-fold accumulators, in the given order, into a fresh one.

    ``fold_moments([a, b, c])`` is bitwise equal to ``a.merge(b).merge(c)``
    — the same pairwise combines in the same association — without copying
    the running state at every step, and the inputs are left untouched.
    The TVLA drivers fold per-chunk accumulators in global chunk order with
    it, which reproduces one running accumulator's association exactly
    (``update_batch`` on an empty accumulator stores the batch moments
    directly, and each later chunk replays the very same combine).

    Raises:
        ValueError: for an empty sequence or mismatched configurations.
    """
    accumulators = list(accumulators)
    if not accumulators:
        raise ValueError("fold_moments needs at least one accumulator")
    folded = OnePassMoments(accumulators[0].max_order, accumulators[0].shape)
    for accumulator in accumulators:
        if accumulator.shape != folded.shape \
                or accumulator.max_order != folded.max_order:
            raise ValueError("cannot merge accumulators with different config")
        folded._combine(accumulator.count, accumulator._mean,
                        accumulator._sums)
    return folded
