"""Live multi-tenant assessment service over the durable campaign layer.

The campaign package (queue + checkpoints + store) is strictly
submit/poll; this package adds the long-lived interactive layer on top:

* :mod:`repro.service.protocol` — versioned typed messages with a
  canonical newline-delimited-JSON wire codec and tenant namespacing;
* :mod:`repro.service.server` — :class:`AssessmentService`, an asyncio
  TCP server that accepts submissions, fans shards into the shared
  queue, folds the sealed shard checkpoints plain ``polaris-campaign
  work`` processes publish in global shard order, and pushes live
  interim t-values to subscribers;
* :mod:`repro.service.client` — the synchronous :class:`ServiceClient`
  used by the CLI verbs (``submit --follow`` / ``watch``) and tests.

Everything is stdlib + numpy: the wire format is JSON lines over TCP,
and all durability still lives in the campaign layer — the service can
die and restart without losing a shard.  See ``docs/service.md``.
"""

from .client import ServiceClient, ServiceUnavailableError
from .protocol import (
    DEFAULT_TENANT,
    FRAME_LIMIT,
    PROTOCOL_VERSION,
    CampaignAccepted,
    CampaignComplete,
    CampaignProgress,
    Message,
    ProtocolError,
    ServiceError,
    SubmitCampaign,
    WatchCampaign,
    decode_message,
    encode_message,
    read_frames,
    validate_tenant,
)
from .server import AssessmentService, serve

__all__ = [
    "AssessmentService",
    "CampaignAccepted",
    "CampaignComplete",
    "CampaignProgress",
    "DEFAULT_TENANT",
    "FRAME_LIMIT",
    "Message",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "SubmitCampaign",
    "WatchCampaign",
    "decode_message",
    "encode_message",
    "read_frames",
    "serve",
    "validate_tenant",
]
