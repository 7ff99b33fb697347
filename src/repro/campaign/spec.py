"""Campaign specifications with stable content hashes.

A :class:`CampaignSpec` is the self-contained, serialisable description of
one TVLA campaign: the netlist (as BENCH text), the full
:class:`~repro.tvla.assessment.TvlaConfig` and the shard layout.  Its
:attr:`~CampaignSpec.content_hash` is a SHA-256 over a canonical JSON
payload, which gives the campaign subsystem its two core properties:

* **Work units are pure functions of the spec.**  A worker anywhere can
  rebuild the netlist, the stimulus schedule and every chunk's counter
  draws from the spec alone (randomness is keyed to global chunk
  coordinates), so shard partials computed on different machines merge
  losslessly.
* **Results are content-addressed.**  Two submissions with the same hash
  are by construction the same campaign; the second is served from
  :class:`repro.campaign.store.ResultStore` bit-identically, without
  re-simulating.

The hash covers the *effective* configuration: ``streaming`` is resolved
to a concrete boolean (sharded and queue-backed drivers always stream
their accumulators, and a serial two-pass run differs from a streamed one
at the ~1e-12 level), so a cache hit always reproduces the exact driver
arithmetic of the run that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

from ..netlist.netlist import Netlist
from ..netlist.parser import parse_bench
from ..netlist.writer import write_bench
from ..power.model import PowerModelConfig
from ..tvla.assessment import TvlaConfig
from ..tvla.sharding import shard_trace_ranges

#: Bumped whenever the hashed payload layout (or the semantics of any
#: hashed field) changes, so stale stores can never serve foreign results.
#: Format 2 added the power engine's toggle-extraction selector to the
#: hashed config; format 3 added the mask/noise sampler.  Only format 3 loads: format-2
#: campaigns drew through a sampler this build no longer has.  The
#: sampler, simulation and power-extraction selectors have since left
#: ``TvlaConfig``; format 3 keeps hashing them as constants (see
#: :data:`_RETIRED_KEYS`).
SPEC_FORMAT = 3

#: Hashed ``TvlaConfig`` fields that have since been removed, with the one
#: value each can still take: every campaign draws through the counter
#: sampler, and the trace engine now follows the netlist (the fused kernel
#: with packed extraction whenever the planner can fuse it).  The
#: serialised config keeps the constant keys so every stored format-3 hash
#: stays valid.
_RETIRED_KEYS = {"sampler": "counter", "sim_backend": "compiled",
                 "power_backend": "packed"}


def tvla_config_to_dict(config: TvlaConfig) -> Dict[str, object]:
    """Flatten a :class:`TvlaConfig` (power config included) to plain JSON."""
    data = {field.name: getattr(config, field.name)
            for field in fields(config) if field.name != "power"}
    data["power"] = {field.name: getattr(config.power, field.name)
                     for field in fields(PowerModelConfig)}
    # Constant, but hashed: format-3 hashes were computed with these keys.
    data.update(_RETIRED_KEYS)
    return data


def tvla_config_from_dict(data: Dict[str, object]) -> TvlaConfig:
    """Rebuild a :class:`TvlaConfig` serialised by :func:`tvla_config_to_dict`.

    Raises:
        ValueError: for a retired key (see :data:`_RETIRED_KEYS`) with any
            value but its one supported value.
    """
    data = dict(data)
    for key, supported in _RETIRED_KEYS.items():
        value = data.pop(key, supported)
        if value != supported:
            raise ValueError(
                f"campaign {key} {value!r} is not supported: every campaign "
                f"runs with {key}={supported!r}")
    power = PowerModelConfig(**data.pop("power"))
    return TvlaConfig(power=power, **data)


@dataclass(frozen=True)
class CampaignSpec:
    """One TVLA campaign as a first-class, hashable job description.

    Attributes:
        design_name: Name of the assessed design (also embedded in the
            BENCH text).
        bench_text: The netlist serialised by
            :func:`repro.netlist.writer.write_bench`; workers parse it back
            rather than unpickling live objects, so specs are portable
            across processes, machines and library versions.
        tvla: The effective campaign configuration (``streaming`` already
            resolved to a concrete boolean, see :meth:`from_netlist`).
        n_shards: Requested shard count; the actual shard layout is the
            chunk-aligned :meth:`shard_ranges` (which caps at the chunk
            count, exactly like the in-process sharded driver).
    """

    design_name: str
    bench_text: str
    tvla: TvlaConfig
    n_shards: int

    @classmethod
    def from_netlist(cls, netlist: Netlist, config: Optional[TvlaConfig],
                     n_shards: int = 1,
                     force_streaming: bool = False) -> "CampaignSpec":
        """Build the spec of assessing ``netlist`` under ``config``.

        Args:
            netlist: The design to assess.
            config: Campaign configuration (defaults to ``TvlaConfig()``).
            n_shards: Shard layout of the campaign.  Normalised to the
                *effective* count (capped at the chunk count, like the
                in-process sharded driver), so requesting 8 shards of a
                5-chunk campaign hashes identically to requesting 5.
            force_streaming: Resolve ``streaming`` to True regardless of
                the config's own auto-selection.  Every sharded driver and
                the queue-backed runner stream their accumulators (partials
                are the checkpoint unit), so they force this; the serial
                driver passes the resolved value, keeping two-pass and
                streamed runs on different hashes — a cache hit always
                reproduces the exact arithmetic of the run that stored it.

        Raises:
            ValueError: for non-positive ``n_shards``.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        config = config if config is not None else TvlaConfig()
        n_shards = len(shard_trace_ranges(config.n_traces, n_shards,
                                          config.chunk_traces))
        streamed = (True if force_streaming or n_shards > 1
                    else config.resolved_streaming())
        return cls(design_name=netlist.name,
                   bench_text=write_bench(netlist),
                   tvla=replace(config, streaming=streamed),
                   n_shards=n_shards)

    # ------------------------------------------------------------------
    def netlist(self) -> Netlist:
        """Parse the spec's BENCH text back into a :class:`Netlist`."""
        return parse_bench(self.bench_text, name=self.design_name)

    def shard_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """The chunk-aligned trace ranges of the campaign's shards."""
        return shard_trace_ranges(self.tvla.n_traces, self.n_shards,
                                  self.tvla.chunk_traces)

    def canonical_payload(self) -> str:
        """The canonical JSON string the content hash is computed over."""
        return json.dumps({
            "format": SPEC_FORMAT,
            "design_name": self.design_name,
            "bench_text": self.bench_text,
            "tvla": tvla_config_to_dict(self.tvla),
            "n_shards": self.n_shards,
        }, sort_keys=True, separators=(",", ":"))

    @property
    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_payload`.

        Stable across processes and hosts: the payload is canonical JSON
        (sorted keys, no whitespace) and Python's float repr round-trips
        exactly, so equal specs — and only equal specs — collide.
        """
        return hashlib.sha256(
            self.canonical_payload().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the spec for ``spec.json`` in a campaign directory."""
        return json.dumps({
            "format": SPEC_FORMAT,
            "design_name": self.design_name,
            "bench_text": self.bench_text,
            "tvla": tvla_config_to_dict(self.tvla),
            "n_shards": self.n_shards,
            "content_hash": self.content_hash,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Rebuild a spec written by :meth:`to_json`.

        Raises:
            ValueError: for a format other than :data:`SPEC_FORMAT` (a
                format-2 spec drew through a retired sampler), a retired
                selector other than its one supported value (see
                :func:`tvla_config_from_dict`), or a stored
                ``content_hash`` that no longer matches (corrupt or
                hand-edited spec files must never be silently trusted).
        """
        data = json.loads(text)
        spec_format = data.get("format")
        if spec_format != SPEC_FORMAT:
            raise ValueError(
                f"unsupported campaign spec format {spec_format!r}: this "
                f"build reads format {SPEC_FORMAT} only (format-2 specs "
                f"drew through the retired SeedSequence sampler)")
        spec = cls(design_name=data["design_name"],
                   bench_text=data["bench_text"],
                   tvla=tvla_config_from_dict(data["tvla"]),
                   n_shards=data["n_shards"])
        stored = data.get("content_hash")
        if stored is not None:
            expected = spec.content_hash
            if stored != expected:
                raise ValueError(
                    f"campaign spec hash mismatch: file says "
                    f"{stored[:12]}…, recomputed {expected[:12]}…")
        return spec
