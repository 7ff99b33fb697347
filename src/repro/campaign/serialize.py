"""Lossless (de)serialisation of campaign work products.

Two wire formats live here:

* **Shard partials** — a shard's
  :data:`~repro.tvla.assessment.ShardChunkMoments` packed as ``SHM2``:
  length-prefixed :meth:`OnePassMoments.to_bytes` blobs, per class and
  group a **list** of per-chunk accumulators, kept unmerged so the
  campaign merge can left-fold them in global chunk order.  This is the
  unit the checkpoint layer persists and the queue ships between workers;
  the round-trip is bit-identical, so resumed/distributed merges equal
  in-process ones.
* **Assessments** — a full :class:`~repro.tvla.assessment.LeakageAssessment`
  as a JSON-able dict whose arrays are base64 of the raw little-endian
  float64 buffers (never decimal text), so a result served from the
  content-addressed store is bit-identical to the run that produced it.
"""

from __future__ import annotations

import base64
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..tvla.assessment import LeakageAssessment, ShardChunkMoments
from ..tvla.moments import OnePassMoments

#: Magic + version prefix of the packed shard-partial format (unmerged
#: per-chunk accumulator lists per class and group).
_SHARD_CHUNK_MAGIC = b"SHM2"


# ----------------------------------------------------------------------
# Shard partials
# ----------------------------------------------------------------------
def _read_u32(payload: bytes, offset: int) -> Tuple[int, int]:
    if offset + 4 > len(payload):
        raise ValueError("truncated shard-moments payload")
    (value,) = struct.unpack_from("<I", payload, offset)
    return value, offset + 4


def _read_accumulator(payload: bytes,
                      offset: int) -> Tuple[OnePassMoments, int]:
    length, offset = _read_u32(payload, offset)
    blob = payload[offset:offset + length]
    if len(blob) != length:
        raise ValueError("truncated shard-moments payload")
    return OnePassMoments.from_bytes(blob), offset + length


def pack_shard_moments(partials: ShardChunkMoments) -> bytes:
    """Pack one shard's per-class, per-chunk accumulators into a byte
    string (``SHM2``: a chunk-count prefix per group, then the
    length-prefixed accumulator blobs)."""
    chunks = [_SHARD_CHUNK_MAGIC, struct.pack("<I", len(partials))]
    for pair in partials:
        for group in pair:
            chunks.append(struct.pack("<I", len(group)))
            for accumulator in group:
                blob = accumulator.to_bytes()
                chunks.append(struct.pack("<I", len(blob)))
                chunks.append(blob)
    return b"".join(chunks)


def unpack_shard_moments(payload: bytes) -> ShardChunkMoments:
    """Rebuild the partials packed by :func:`pack_shard_moments`.

    Raises:
        ValueError: for truncated or foreign payloads.
    """
    if not payload.startswith(_SHARD_CHUNK_MAGIC):
        raise ValueError("not a packed shard-moments payload")
    offset = len(_SHARD_CHUNK_MAGIC)
    n_classes, offset = _read_u32(payload, offset)
    per_chunk: ShardChunkMoments = []
    for _ in range(n_classes):
        groups: List[List[OnePassMoments]] = []
        for _ in range(2):
            n_chunks, offset = _read_u32(payload, offset)
            group: List[OnePassMoments] = []
            for _ in range(n_chunks):
                accumulator, offset = _read_accumulator(payload, offset)
                group.append(accumulator)
            groups.append(group)
        per_chunk.append((groups[0], groups[1]))
    return per_chunk


# ----------------------------------------------------------------------
# Assessments
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray) -> Dict[str, object]:
    """Encode an ndarray as ``{dtype, shape, data(base64)}`` losslessly."""
    array = np.ascontiguousarray(array)
    # Normalise to an explicit byte order so the blob decodes identically
    # on any host; float64 stays float64 bit for bit.
    dtype = array.dtype.newbyteorder("<")
    array = array.astype(dtype, copy=False)
    return {
        "dtype": dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(data: Dict[str, object]) -> np.ndarray:
    """Decode an array encoded by :func:`encode_array` (bit-identical)."""
    raw = base64.b64decode(data["data"])
    array = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
    array = array.reshape(tuple(data["shape"]))
    # Copy into a native-order, writeable array matching in-memory results.
    return array.astype(array.dtype.newbyteorder("="), copy=True)


def _encode_optional(array: Optional[np.ndarray]) -> Optional[Dict[str, object]]:
    return None if array is None else encode_array(array)


def _decode_optional(data: Optional[Dict[str, object]]) -> Optional[np.ndarray]:
    return None if data is None else decode_array(data)


def assessment_to_dict(assessment: LeakageAssessment) -> Dict[str, object]:
    """Serialise a :class:`LeakageAssessment` to a JSON-able dict."""
    return {
        "design_name": assessment.design_name,
        "gate_names": list(assessment.gate_names),
        "t_values": encode_array(assessment.t_values),
        "degrees_of_freedom": encode_array(assessment.degrees_of_freedom),
        "threshold": assessment.threshold,
        "n_traces": assessment.n_traces,
        "elapsed_seconds": assessment.elapsed_seconds,
        "mean_abs_t": _encode_optional(assessment.mean_abs_t),
        "tvla_order": assessment.tvla_order,
        "order_t_values": {str(order): encode_array(values)
                           for order, values in
                           sorted(assessment.order_t_values.items())},
        "n_shards": assessment.n_shards,
        "failed_shards": list(assessment.failed_shards),
    }


def assessment_from_dict(data: Dict[str, object]) -> LeakageAssessment:
    """Rebuild the :class:`LeakageAssessment` serialised by
    :func:`assessment_to_dict`; every array round-trips bit-identically.

    A ``"streamed"`` key, written by builds that still had a two-pass
    driver, is ignored: every stored result was folded from moments.
    """
    return LeakageAssessment(
        design_name=data["design_name"],
        gate_names=tuple(data["gate_names"]),
        t_values=decode_array(data["t_values"]),
        degrees_of_freedom=decode_array(data["degrees_of_freedom"]),
        threshold=data["threshold"],
        n_traces=data["n_traces"],
        elapsed_seconds=data["elapsed_seconds"],
        mean_abs_t=_decode_optional(data.get("mean_abs_t")),
        tvla_order=data["tvla_order"],
        order_t_values={int(order): decode_array(values)
                        for order, values in data["order_t_values"].items()},
        n_shards=data["n_shards"],
        # .get(): objects stored before degraded results existed carry no
        # failed_shards key and are, by definition, complete.
        failed_shards=tuple(data.get("failed_shards", ())),
    )
