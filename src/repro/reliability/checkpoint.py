"""Sha256-sealed shard checkpoints with quarantine instead of crash.

A shard checkpoint (``shards/shard_NNNN.moments``) used to be raw packed
moments; a truncated or tampered file crashed the merge with a bare
``ValueError`` and wedged the campaign.  Sealed checkpoints append a
fixed trailer — an 8-byte magic plus the sha256 of the payload — so
corruption is *detected* at read time and handled by policy: the file is
renamed aside (``.corrupt``) and the shard requeued, never silently
merged and never fatal.

Only sealed checkpoints load.  A file without a valid trailer — foreign
bytes, a truncated seal, or a payload whose trailer was stripped and which
may then have been edited — is corrupt and is recomputed.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Union

#: Trailer magic; the version byte bumps if the digest scheme changes.
TRAILER_MAGIC = b"SHSEAL\x01\n"
_DIGEST_LEN = 32
_TRAILER_LEN = len(TRAILER_MAGIC) + _DIGEST_LEN


class CheckpointCorruptError(ValueError):
    """A checkpoint failed its integrity check (bad digest, foreign
    bytes, or truncation)."""


def seal_checkpoint(payload: bytes) -> bytes:
    """Packed payload + integrity trailer, ready for durable publication."""
    return payload + TRAILER_MAGIC + hashlib.sha256(payload).digest()


def unseal_checkpoint(data: bytes) -> bytes:
    """Verify a checkpoint file's bytes and return the packed payload.

    Raises :class:`CheckpointCorruptError` on digest mismatch or a
    missing trailer (unsealed or truncated bytes).
    """
    if len(data) >= _TRAILER_LEN \
            and data[-_TRAILER_LEN:-_DIGEST_LEN] == TRAILER_MAGIC:
        payload, digest = data[:-_TRAILER_LEN], data[-_DIGEST_LEN:]
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointCorruptError(
                "checkpoint digest mismatch: file was truncated or "
                "tampered with after sealing")
        return payload
    raise CheckpointCorruptError(
        "checkpoint carries no seal trailer: it is unsealed, truncated or "
        "foreign bytes")


def load_checkpoint(path: Union[str, Path]) -> bytes:
    """Read and verify a checkpoint, returning the packed payload.

    Raises ``FileNotFoundError`` when absent and
    :class:`CheckpointCorruptError` when the bytes fail verification.
    """
    return unseal_checkpoint(Path(path).read_bytes())


def checkpoint_ok(path: Union[str, Path]) -> bool:
    """Whether ``path`` holds a checkpoint that passes verification."""
    try:
        load_checkpoint(path)
    except (FileNotFoundError, CheckpointCorruptError):
        return False
    return True


def quarantine_checkpoint(path: Union[str, Path]) -> Path:
    """Atomically rename a bad checkpoint aside and return its new path.

    The quarantined file keeps its bytes for post-mortem (``.corrupt``,
    then ``.corrupt1`` … if a shard is corrupted repeatedly); the original
    name is freed so the requeued shard can republish cleanly.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    suffix = 0
    while target.exists():
        suffix += 1
        target = path.with_name(f"{path.name}.corrupt{suffix}")
    os.replace(path, target)
    return target
