#!/usr/bin/env python
"""End-to-end smoke test of the distributed campaign subsystem.

Run by the CI ``campaign-smoke`` job (and runnable locally with
``python tools/campaign_smoke.py``).  Exercises the full multi-process
story that unit tests only simulate:

1. submit a small campaign into a fresh root;
2. start **two** ``polaris-campaign work`` worker *processes* against the
   shared queue;
3. SIGKILL one of them mid-run — its leased shard must be redelivered to
   the survivor once the lease expires;
4. wait for the survivor to drain the queue, merge the shard checkpoints,
   and assert the distributed result equals the serial in-process
   ``assess_leakage`` bitwise;
5. resubmit the identical campaign and assert it is served from the
   content-addressed store bit-identically, without re-simulating.

Exits non-zero with a diagnostic on any violation.  The temporary campaign
root is deleted when the run passes and kept, its path printed, when it
fails.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.campaign import (  # noqa: E402 (path setup above)
    campaign_queue,
    collect_result,
    submit_campaign,
)
from repro.netlist import load_benchmark  # noqa: E402
from repro.tvla import TvlaConfig, assess_leakage  # noqa: E402

#: The smoke campaign: 600 traces in 75-trace chunks -> 8 chunks, 4 shards.
DESIGN = dict(name="des3", scale=0.25, seed=99)
CONFIG = TvlaConfig(n_traces=600, n_fixed_classes=2, seed=9,
                    chunk_traces=75)
N_SHARDS = 4
#: Short lease so the killed worker's shard is redelivered quickly.
LEASE_SECONDS = 3.0


def start_worker(root: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.campaign.cli", "work",
         "--root", str(root), "--drain",
         "--lease-seconds", str(LEASE_SECONDS)],
        env=env)


def smoke(root: Path) -> int:
    netlist = load_benchmark(DESIGN["name"], scale=DESIGN["scale"],
                             seed=DESIGN["seed"])
    print(f"serial reference: {netlist.name}, {len(netlist)} gates, "
          f"{CONFIG.n_traces} traces x {CONFIG.n_fixed_classes} classes")
    reference = assess_leakage(netlist, CONFIG)

    outcome = submit_campaign(root, netlist=netlist, config=CONFIG,
                              n_shards=N_SHARDS)
    print(f"submitted {outcome.spec_hash[:12]}… "
          f"({outcome.n_shards_total} shards) under {root}")
    if outcome.status != "submitted":
        print(f"FAIL: fresh submission reported {outcome.status!r}")
        return 1

    workers = [start_worker(root), start_worker(root)]
    time.sleep(1.0)  # let both claim work
    victim, survivor = workers
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    print(f"killed worker pid {victim.pid} mid-run; "
          f"survivor pid {survivor.pid} must pick up its lease")
    if survivor.wait(timeout=300) != 0:
        print("FAIL: surviving worker exited non-zero")
        return 1

    counts = campaign_queue(root).counts()
    print(f"queue after drain: {counts}")
    if counts["failed"] or counts["pending"] or counts["leased"]:
        print("FAIL: queue not fully drained")
        return 1

    result = collect_result(root, outcome.spec_hash, timeout=60)
    if not np.array_equal(result.t_values, reference.t_values):
        print("FAIL: distributed t-values differ from serial (bitwise)")
        return 1
    print(f"distributed result equals serial bitwise "
          f"({len(result.gate_names)} gates, {result.n_shards} shards)")

    resubmitted = submit_campaign(root, netlist=netlist, config=CONFIG,
                                  n_shards=N_SHARDS)
    if resubmitted.status != "cached":
        print(f"FAIL: resubmission reported {resubmitted.status!r}, "
              f"expected 'cached'")
        return 1
    cached = collect_result(root, resubmitted.spec_hash)
    if not (np.array_equal(cached.t_values, result.t_values)
            and np.array_equal(cached.mean_abs_t, result.mean_abs_t)):
        print("FAIL: cached result is not bit-identical")
        return 1
    print("resubmission served from the store bit-identically; smoke ok")
    return 0


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="campaign-smoke-"))
    code = 1
    try:
        code = smoke(root)
    finally:
        if code == 0:
            shutil.rmtree(root)
        else:
            print(f"campaign root kept for post-mortem: {root}")
    return code


if __name__ == "__main__":
    sys.exit(main())
