#!/usr/bin/env python
"""Chaos soak of the campaign/service stack under a seeded fault plan.

Run by the CI ``chaos-smoke`` job (and runnable locally with
``python tools/chaos_soak.py``).  One seeded :class:`FaultPlan` spans
**four fault domains** and the campaign must still converge *bitwise*
to an uninjected run:

1. start ``polaris-campaign serve`` as a real subprocess and submit a
   campaign through a following client;
2. **worker kill** — a doomed ``polaris-campaign work`` process whose
   fault plan SIGKILLs it mid-shard (``worker.shard:mode=crash``); its
   lease expires and the shard is redelivered;
3. **checkpoint corruption + queue faults** — a surviving
   ``work --connect`` process runs under
   ``checkpoint.write:mode=corrupt`` (one shard's on-disk seal is
   silently flipped) and ``queue.ack:mode=error`` (transient ack
   failures absorbed by the shared retry policy);
4. **severed watch connection** — the soak's own client drops its
   socket mid-stream (``service.recv:mode=sever``) and must redial,
   re-subscribe and dedupe the server's replay;
5. afterwards the corrupt checkpoint is quarantined (``.corrupt``
   kept for post-mortem), its shard requeued and healed by a fresh
   worker, and the streamed, collected and clean-rerun t-values are
   asserted bitwise equal.

Exits non-zero with a diagnostic on any violation.
"""

from __future__ import annotations

import os
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

from repro.campaign import (  # noqa: E402
    CampaignPaths,
    campaign_queue,
    collect_result,
    run_campaign,
    run_worker,
)
from repro.campaign.runner import verified_checkpoint  # noqa: E402
from repro.campaign.serialize import decode_array  # noqa: E402
from repro.campaign.spec import CampaignSpec  # noqa: E402
from repro.netlist import load_benchmark  # noqa: E402
from repro.reliability import (  # noqa: E402
    FaultPlan,
    checkpoint_ok,
    set_fault_plan,
)
from repro.service import (  # noqa: E402
    CampaignComplete,
    CampaignProgress,
    ServiceClient,
    ServiceError,
    tenant_key_prefix,
    tenant_root,
)
from repro.tvla import TvlaConfig  # noqa: E402

#: The soak campaign: 240 traces in 48-trace chunks -> 5 chunks, 3 shards.
DESIGN = dict(name="des3", scale=0.25, seed=99)
N_SHARDS = 3
#: The campaign configuration every soak run (and its clean rerun) uses.
CONFIG = TvlaConfig(n_traces=240, n_fixed_classes=2, seed=9,
                    chunk_traces=48)

#: The doomed worker SIGKILLs itself at its first shard's entry point.
DOOMED_PLAN = "worker.shard:mode=crash,max=1"
#: The survivor silently corrupts one checkpoint on disk and suffers two
#: transient ack failures (absorbed by the shared retry policy).
SURVIVOR_PLAN = ("seed=42;checkpoint.write:mode=corrupt,max=1;"
                 "queue.ack:mode=error,max=2")
#: The watching client's connection is severed on its next receive.
WATCHER_PLAN = "service.recv:mode=sever,max=1"


def _env(fault_plan: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("POLARIS_FAULT_PLAN", None)
    if fault_plan:
        env["POLARIS_FAULT_PLAN"] = fault_plan
    return env


def start_server(root: Path) -> tuple:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign.cli", "serve",
         "--root", str(root), "--port", "0"],
        env=_env(), stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline().strip()  # "serving on HOST:PORT"
    if not line.startswith("serving on "):
        raise RuntimeError(f"unexpected serve banner: {line!r}")
    host, _, port = line.rpartition(" ")[2].rpartition(":")
    return process, host, int(port)


def soak(root: Path, host: str, port: int) -> int:
    tenant = "soak"
    netlist = load_benchmark(DESIGN["name"], scale=DESIGN["scale"],
                             seed=DESIGN["seed"])
    spec = CampaignSpec.from_netlist(netlist, CONFIG,
                                     n_shards=N_SHARDS)
    queue = campaign_queue(root)
    client = ServiceClient(host, port)
    try:
        accepted = client.submit(tenant, spec.to_json(), follow=True)
        print(f"submitted {accepted.spec_hash[:12]}… "
              f"({accepted.n_enqueued} shards enqueued)")

        # Fault domain 1: the doomed worker SIGKILLs mid-shard; its
        # short, unrenewed lease expires and the shard is redelivered.
        doomed = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign.cli", "work",
             "--root", str(root), "--max-tasks", "1",
             "--lease-seconds", "0.7", "--no-renew"],
            env=_env(DOOMED_PLAN))
        doomed.wait(timeout=120)
        if doomed.returncode != -9:
            print(f"FAIL: doomed worker exited {doomed.returncode}, "
                  f"expected SIGKILL (-9)")
            return 1
        print(f"doomed worker pid {doomed.pid} SIGKILLed "
              f"mid-shard; lease will expire")

        # Fault domains 2+3: the survivor corrupts one on-disk
        # checkpoint (its *streamed* partial stays clean) and retries
        # through injected ack errors; --drain waits out the dead lease.
        survivor = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign.cli", "work",
             "--root", str(root), "--drain",
             "--connect", f"{host}:{port}",
             "--lease-seconds", "2", "--fault-plan", SURVIVOR_PLAN],
            env=_env())
        if survivor.wait(timeout=300) != 0:
            print("FAIL: surviving worker exited non-zero")
            return 1

        # Fault domain 4: our own watch connection is severed on the
        # next receive; the client must redial, re-subscribe, and dedupe
        # the server's replay of the stream.
        set_fault_plan(FaultPlan.parse(WATCHER_PLAN))
        progress, complete = [], None
        for frame in client.events(timeout=300):
            if isinstance(frame, CampaignProgress):
                progress.append(frame)
            elif isinstance(frame, CampaignComplete):
                complete = frame
                break
            elif isinstance(frame, ServiceError):
                print(f"FAIL: service error [{frame.code}]: "
                      f"{frame.message}")
                return 1
        if complete is None:
            print("FAIL: stream ended without CampaignComplete")
            return 1
        seen = [frame.shards_done for frame in progress]
        if len(seen) != len(set(seen)):
            print(f"FAIL: reconnect replayed progress frames: {seen}")
            return 1
        print("stream survived sever + reconnect "
              f"({len(progress)} progress frames, no replays)")
    finally:
        client.close()
        set_fault_plan(None)

    # Post-mortem + healing: exactly one checkpoint fails its seal; it
    # is quarantined (bytes kept aside), requeued and recomputed.
    troot = tenant_root(root, tenant)
    prefix = tenant_key_prefix(tenant)
    paths = CampaignPaths(troot, spec.content_hash, key_prefix=prefix)
    bad = [k for k in range(N_SHARDS)
           if not checkpoint_ok(paths.shard_path(k))]
    if len(bad) != 1:
        print(f"FAIL: expected exactly 1 corrupt checkpoint, got {bad}")
        return 1
    verified_checkpoint(paths, bad[0], queue=queue)
    corpses = [p.name for p in paths.shards_dir.iterdir()
               if ".corrupt" in p.name]
    if len(corpses) != 1:
        print(f"FAIL: quarantine left {corpses}")
        return 1
    run_worker(queue, worker="healer", drain=True)
    if not checkpoint_ok(paths.shard_path(bad[0])):
        print(f"FAIL: shard {bad[0]} still corrupt after healing")
        return 1
    print(f"shard {bad[0]} quarantined ({corpses[0]}) and "
          f"healed")

    # Convergence: streamed == collected == a clean uninjected rerun.
    streamed = decode_array(complete.assessment["t_values"])
    collected = collect_result(troot, spec.content_hash, timeout=60,
                               queue=queue, shard_key_prefix=prefix)
    if not np.array_equal(streamed, collected.t_values):
        print("FAIL: streamed final t-values != collect result (bitwise)")
        return 1
    with tempfile.TemporaryDirectory(prefix="chaos-clean-") as clean_dir:
        clean = run_campaign(clean_dir, netlist, CONFIG,
                             n_shards=N_SHARDS, n_workers=1)
    if not np.array_equal(collected.t_values, clean.t_values):
        print("FAIL: chaos campaign != uninjected campaign (bitwise)")
        return 1
    print("chaos t-values converge bitwise to the clean "
          f"run ({clean.t_values.shape[-1]} gates)")
    return 0


def main() -> int:
    started = time.monotonic()
    root = Path(tempfile.mkdtemp(prefix="chaos-soak-"))
    server, host, port = start_server(root)
    print(f"service pid {server.pid} on {host}:{port}, root {root}")
    try:
        code = soak(root, host, port)
        if code != 0:
            return code
    finally:
        server.terminate()
        server.wait(timeout=30)
    print("chaos soak ok: 4 fault domains in "
          f"{time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
