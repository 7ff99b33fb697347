"""Distributed, resumable TVLA campaign orchestration.

This package turns one-shot in-process TVLA assessments into durable,
multi-worker jobs:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, the content-hashed
  job description (netlist + config + shard layout);
* :mod:`repro.campaign.queue` — a SQLite task queue with lease/ack/retry
  semantics and :func:`run_worker`, the claim/execute/ack loop;
* :mod:`repro.campaign.runner` — submit / work / checkpoint / resume /
  collect orchestration over a shared campaign root;
* :mod:`repro.campaign.store` — the content-addressed result store
  (cache hits are bit-identical, keyed on the spec hash);
* :mod:`repro.campaign.serialize` — lossless wire formats for shard
  partials and assessments;
* :mod:`repro.campaign.cli` — the ``polaris-campaign`` console script
  (``submit`` / ``work`` / ``status`` / ``result`` / ``gc``).

Quickstart (single host, two worker threads)::

    from repro.campaign import run_campaign
    assessment = run_campaign("runs", netlist, config, n_shards=4,
                              n_workers=2)

Multi-process / multi-host: ``submit`` once, start ``polaris-campaign
work --root ...`` anywhere the root is mounted, then ``result`` merges the
shard checkpoints.  See ``docs/campaigns.md``.
"""

from .queue import (
    ClaimedTask,
    TaskQueue,
    run_worker,
)
from .runner import (
    CampaignError,
    CampaignPaths,
    CampaignStatus,
    GcOutcome,
    SubmitOutcome,
    campaign_queue,
    campaign_status,
    campaign_store,
    collect_result,
    gc_campaign_root,
    list_campaigns,
    load_spec,
    run_campaign,
    run_shard_task,
    submit_campaign,
)
from .serialize import (
    assessment_from_dict,
    assessment_to_dict,
    pack_shard_moments,
    unpack_shard_moments,
)
from .spec import (
    CampaignSpec,
    tvla_config_from_dict,
    tvla_config_to_dict,
)
from .store import ResultStore

__all__ = [
    "CampaignError",
    "CampaignPaths",
    "CampaignSpec",
    "CampaignStatus",
    "ClaimedTask",
    "GcOutcome",
    "ResultStore",
    "SubmitOutcome",
    "TaskQueue",
    "assessment_from_dict",
    "assessment_to_dict",
    "campaign_queue",
    "campaign_status",
    "campaign_store",
    "collect_result",
    "gc_campaign_root",
    "list_campaigns",
    "load_spec",
    "pack_shard_moments",
    "run_campaign",
    "run_shard_task",
    "run_worker",
    "submit_campaign",
    "tvla_config_from_dict",
    "tvla_config_to_dict",
    "unpack_shard_moments",
]
