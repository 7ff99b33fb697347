"""Workload suites used by the experiments.

The paper trains on six small ISCAS-85 designs and evaluates on eleven
larger EPFL / MIT-CEP designs (Table II).  This module wraps the benchmark
registry into the two suites with a uniform ``scale`` knob, so tests use
tiny designs, the default benches use medium designs, and a user with more
time can push ``scale`` up towards the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.benchmarks import (
    EVALUATION_SUITE,
    TRAINING_SUITE,
    benchmark_spec,
    load_benchmark,
)
from ..netlist.netlist import Netlist


@dataclass(frozen=True)
class WorkloadConfig:
    """Sizing and seeding of a workload suite.

    Attributes:
        scale: Uniform gate-count multiplier for every design.
        seed: Base seed forwarded to the generators.
        designs: Optional explicit subset of design names (defaults to the
            full suite).
    """

    scale: float = 1.0
    seed: int = 2025
    designs: Optional[Tuple[str, ...]] = None


def training_designs(config: Optional[WorkloadConfig] = None) -> List[Netlist]:
    """Instantiate the training-suite netlists (ISCAS-85 stand-ins)."""
    config = config if config is not None else WorkloadConfig()
    names = config.designs if config.designs is not None else TRAINING_SUITE
    return [load_benchmark(name, scale=config.scale, seed=config.seed)
            for name in names]


def evaluation_designs(config: Optional[WorkloadConfig] = None) -> List[Netlist]:
    """Instantiate the evaluation-suite netlists (EPFL / MIT-CEP stand-ins)."""
    config = config if config is not None else WorkloadConfig()
    names = config.designs if config.designs is not None else EVALUATION_SUITE
    return [load_benchmark(name, scale=config.scale, seed=config.seed)
            for name in names]


def suite_campaign_specs(designs: Sequence[Netlist],
                         config=None, n_shards: int = 1):
    """Content-hashed campaign specs for every design of a suite.

    Thin bridge into :mod:`repro.campaign`: the returned mapping (design
    name -> :class:`~repro.campaign.spec.CampaignSpec`) is what a
    scheduler fans out to a worker fleet, and the hashes are the keys the
    result store answers to.
    """
    from ..campaign.spec import CampaignSpec
    return {design.name: CampaignSpec.from_netlist(design, config,
                                                   n_shards=n_shards)
            for design in designs}


def submit_suite(root, designs: Sequence[Netlist], config=None,
                 n_shards: int = 1):
    """Submit one campaign per design of a suite under a shared root.

    Idempotent exactly like :func:`repro.campaign.runner.submit_campaign`
    (cache hits are reported, queued shards are never duplicated), so a
    nightly suite sweep can simply resubmit everything and only the
    changed designs cost anything.

    Returns:
        Mapping design name ->
        :class:`~repro.campaign.runner.SubmitOutcome`, in input order.
    """
    from ..campaign.runner import submit_campaign
    return {design.name: submit_campaign(root, netlist=design, config=config,
                                         n_shards=n_shards)
            for design in designs}


def suite_summary(designs: Sequence[Netlist]) -> List[Dict[str, object]]:
    """Per-design summary rows (name, gate counts, maskable gates)."""
    rows = []
    for design in designs:
        stats = design.stats()
        try:
            spec = benchmark_spec(design.name)
            stats["suite"] = spec.suite
            stats["profile"] = spec.profile
        except KeyError:
            stats["suite"] = "custom"
            stats["profile"] = "unknown"
        rows.append(stats)
    return rows
