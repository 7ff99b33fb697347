"""Typed wire protocol of the live assessment service.

Every frame on the wire is one line of canonical JSON (sorted keys,
compact separators, UTF-8) wrapped in a versioned envelope::

    {"body": {...}, "type": "SubmitCampaign", "v": 2}\n

The body is a frozen dataclass — construction *is* validation, and the
codec round-trips each message through its declared fields only: unknown
message types, version mismatches, missing fields and stray fields are
all hard :class:`ProtocolError`\\ s rather than silently-ignored keys, so
a peer speaking another version cannot half-work against this one.
Whatever the bytes, :func:`decode_message` returns a message or raises
:class:`ProtocolError`, never another exception.  Canonical encoding also
makes frames byte-stable: encoding the same message twice yields
identical bytes, which the tests use to pin the wire format.

Clients only submit and watch; shard results never travel the wire
inbound — the server reads them from sealed checkpoints on disk.  The
t-value arrays it sends out ride inside bodies using the campaign layer's
lossless encodings — base64 raw little-endian buffers via
:mod:`repro.campaign.serialize` — so a t-value streamed through the
service is *bitwise* the t-value the batch ``collect`` path produces.

Tenant namespacing: every campaign-scoped message carries a validated
``tenant`` id.  On the server a tenant maps to a private sub-root (own
store, own checkpoint tree) while all tenants share one fleet-wide task
queue under tenant-prefixed idempotency keys, keeping cross-tenant specs
with equal hashes from deduplicating into one task; the layout is
:class:`repro.campaign.runner.CampaignPaths`'s.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from typing import Dict, Tuple, Type, Union

from ..campaign import runner

PROTOCOL_VERSION = 2

#: Longest frame line (bytes, newline excluded) the server reads —
#: asyncio's default stream limit.  A client frame is a few hundred bytes
#: plus the spec's netlist text: submitting the largest bundled design
#: (log2, 879 gates) takes 34 KB, so a netlist much past ~1,700 gates does
#: not fit and goes through ``submit_campaign`` on the shared root instead.
#: :meth:`~repro.service.client.ServiceClient.send` refuses longer frames
#: before writing them.
FRAME_LIMIT = 2 ** 16

#: A campaign spec hash: the SHA-256 hex digest of the canonical spec.
_SPEC_HASH_PATTERN = re.compile(r"^[0-9a-f]{64}\Z")

DEFAULT_TENANT = "default"


class ProtocolError(ValueError):
    """A frame violates the wire protocol (version, shape, or type)."""


def validate_tenant(tenant: str) -> str:
    """Return ``tenant`` if it is a legal tenant id, else raise.

    The rule is the campaign layer's
    (:func:`repro.campaign.runner.validate_tenant`); on the wire a bad id
    is a protocol error, which the server answers with ``bad-tenant``.

    Raises:
        ProtocolError: for ids that are empty, too long (> 64 chars), or
            contain characters unsafe in paths/queue keys.
    """
    try:
        return runner.validate_tenant(tenant)
    except ValueError as error:
        raise ProtocolError(str(error)) from None


# ----------------------------------------------------------------------
# Message bodies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitCampaign:
    """Client → server: register a campaign and enqueue missing shards.

    ``spec_json`` is the self-contained :class:`CampaignSpec` JSON (the
    server re-verifies its content hash); ``follow`` keeps the connection
    subscribed for progress frames after the accept.
    """

    tenant: str
    spec_json: str
    follow: bool = True


@dataclass(frozen=True)
class CampaignAccepted:
    """Server → client: the submission outcome (mirrors SubmitOutcome)."""

    tenant: str
    spec_hash: str
    status: str  # "submitted" | "resumed" | "cached"
    n_shards_total: int
    n_shards_done: int
    n_enqueued: int


@dataclass(frozen=True)
class WatchCampaign:
    """Client → server: subscribe to an existing campaign's stream.

    ``spec_hash`` must be a SHA-256 hex digest: the server uses it as a
    dict key and a directory name.
    """

    tenant: str
    spec_hash: str

    def __post_init__(self):
        if not (isinstance(self.spec_hash, str)
                and _SPEC_HASH_PATTERN.match(self.spec_hash)):
            raise ProtocolError(
                f"invalid spec_hash {self.spec_hash!r}: expected 64 "
                f"lowercase hex characters")


@dataclass(frozen=True)
class CampaignProgress:
    """Server → subscribers: live progress with interim t-values.

    ``t_values`` / ``order_t_values`` are lossless array encodings (see
    :func:`repro.campaign.serialize.encode_array`) of the fold over the
    shards listed in ``shards_done`` — after the final shard they are
    bitwise equal to the collected assessment's arrays.  Empty dicts mean
    no shard has reported yet.
    """

    tenant: str
    spec_hash: str
    n_shards_total: int
    shards_done: Tuple[int, ...]
    t_values: Dict[str, object]
    order_t_values: Dict[str, Dict[str, object]]
    max_abs_t: float
    leaking_gates: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "shards_done",
                           tuple(int(k) for k in self.shards_done))
        object.__setattr__(self, "leaking_gates",
                           tuple(str(g) for g in self.leaking_gates))


@dataclass(frozen=True)
class CampaignComplete:
    """Server → subscribers: the final stored assessment.

    ``assessment`` is :func:`repro.campaign.serialize.assessment_to_dict`
    output — decoding it yields arrays bitwise equal to
    ``collect_result``'s, because both sides read the same store entry.
    """

    tenant: str
    spec_hash: str
    assessment: Dict[str, object]


@dataclass(frozen=True)
class ServiceError:
    """Server → client: a request failed; the connection stays usable.

    Stable ``code`` values: ``bad-frame``, ``bad-tenant``, ``bad-spec``,
    ``unknown-campaign``, ``internal``.
    """

    code: str
    message: str


Message = Union[SubmitCampaign, CampaignAccepted, WatchCampaign,
                CampaignProgress, CampaignComplete, ServiceError]

MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.__name__: cls
    for cls in (SubmitCampaign, CampaignAccepted, WatchCampaign,
                CampaignProgress, CampaignComplete, ServiceError)
}


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def encode_message(message: Message) -> bytes:
    """One canonical-JSON wire frame (newline-terminated UTF-8)."""
    type_name = type(message).__name__
    if MESSAGE_TYPES.get(type_name) is not type(message):
        raise ProtocolError(f"not a protocol message: {type(message)!r}")
    envelope = {"v": PROTOCOL_VERSION, "type": type_name,
                "body": dataclasses.asdict(message)}
    return (json.dumps(envelope, sort_keys=True,
                       separators=(",", ":")).encode("utf-8") + b"\n")


def decode_message(line: Union[str, bytes]) -> Message:
    """Parse one wire frame back into its typed message.

    Raises:
        ProtocolError: for malformed JSON (nesting too deep and integer
            literals too long included), a non-object envelope, an
            unsupported version, an unknown type, a body whose keys do not
            exactly match the message's declared fields, or field values
            its constructor rejects (``1e400`` in an integer field too).
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        envelope = json.loads(line)
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(envelope, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(envelope).__name__}")
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this peer speaks {PROTOCOL_VERSION})")
    type_name = envelope.get("type")
    cls = MESSAGE_TYPES.get(type_name) if isinstance(type_name, str) else None
    if cls is None:
        raise ProtocolError(f"unknown message type {type_name!r}")
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise ProtocolError(f"{type_name} body must be a JSON object")
    declared = {field.name for field in dataclasses.fields(cls)}
    required = {field.name for field in dataclasses.fields(cls)
                if field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING}
    extra = set(body) - declared
    missing = required - set(body)
    if extra or missing:
        raise ProtocolError(
            f"{type_name} body mismatch: "
            f"missing={sorted(missing)} unexpected={sorted(extra)}")
    try:
        return cls(**body)
    except (TypeError, ValueError, OverflowError, RecursionError) as error:
        raise ProtocolError(f"bad {type_name} body: {error}") from error


def read_frames(buffer: bytes) -> Tuple[Tuple[Message, ...], bytes]:
    """Split a byte buffer into decoded frames + the unterminated tail.

    The convenience for sans-io consumers (the sync client feeds its
    socket recv chunks through this); newline-terminated frames decode
    strictly, the trailing partial line is returned for the next call.
    """
    messages = []
    while b"\n" in buffer:
        line, buffer = buffer.split(b"\n", 1)
        if line.strip():
            messages.append(decode_message(line))
    return tuple(messages), buffer


__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_TENANT",
    "ProtocolError",
    "Message",
    "MESSAGE_TYPES",
    "SubmitCampaign",
    "CampaignAccepted",
    "WatchCampaign",
    "CampaignProgress",
    "CampaignComplete",
    "ServiceError",
    "encode_message",
    "decode_message",
    "read_frames",
    "validate_tenant",
]
