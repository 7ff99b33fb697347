#!/usr/bin/env python
"""End-to-end smoke test of the live assessment service (`repro.service`).

Run by the CI ``service-smoke`` job (and runnable locally with
``python tools/service_smoke.py``).  Exercises the full multi-process
service story:

1. start ``polaris-campaign serve`` as a real subprocess (port 0 — the
   bound port is read off its stdout);
2. submit a campaign *through the service* with a following client;
3. attach **two** plain ``polaris-campaign work`` processes on the
   server's root — the server folds the sealed checkpoints they publish;
4. SIGKILL one of them mid-shard (shards are stretched by a
   ``worker.shard`` delay fault plan so "mid-shard" is deterministic) — the
   campaign must complete anyway, via lease expiry + redelivery;
5. assert the streamed interim t-values converge **bitwise** to the
   batch ``collect_result`` for the same spec, and that the final
   ``CampaignComplete`` assessment round-trips bit-identically;
6. run ``polaris-campaign status --tenant T --json`` and ``polaris-campaign
   gc --all --dry-run`` on the root as subprocesses: the status must show
   the campaign complete, and gc must list the tenant's stored result.

Exits non-zero with a diagnostic on any violation.  The temporary campaign
root is deleted when the run passes and kept, its path printed, when it
fails.
"""

from __future__ import annotations

import json
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

from repro.campaign import campaign_queue, collect_result  # noqa: E402
from repro.campaign.serialize import (  # noqa: E402
    assessment_from_dict,
    decode_array,
)
from repro.campaign.spec import CampaignSpec  # noqa: E402
from repro.netlist import load_benchmark  # noqa: E402
from repro.service import (  # noqa: E402
    CampaignComplete,
    CampaignProgress,
    ServiceClient,
    ServiceError,
)
from repro.tvla import TvlaConfig  # noqa: E402

#: The smoke campaign: 240 traces in 48-trace chunks -> 5 chunks, 3 shards.
DESIGN = dict(name="des3", scale=0.25, seed=99)
CONFIG = TvlaConfig(n_traces=240, n_fixed_classes=2, seed=9,
                    chunk_traces=48)
N_SHARDS = 3
TENANT = "smoke"
#: Every shard is stretched to ~1.2s so mid-shard kills are deterministic,
#: and the victim's lease (1.0s) expires while the shard is still running.
SHARD_DELAY_PLAN = "worker.shard:mode=delay,delay=1.2"
LEASE_SECONDS = 1.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["POLARIS_FAULT_PLAN"] = SHARD_DELAY_PLAN
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


def start_worker(root: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.campaign.cli", "work",
         "--root", str(root), "--drain",
         "--lease-seconds", str(LEASE_SECONDS)],
        env=_env())


def smoke(root: Path) -> int:
    netlist = load_benchmark(DESIGN["name"], scale=DESIGN["scale"],
                             seed=DESIGN["seed"])
    spec = CampaignSpec.from_netlist(netlist, CONFIG, n_shards=N_SHARDS)
    server, host, port = start_server(root)
    print(f"service pid {server.pid} on {host}:{port}, root {root}")

    workers = []
    try:
        client = ServiceClient(host, port)
        accepted = client.submit(TENANT, spec.to_json(), follow=True)
        print(f"submitted {accepted.spec_hash[:12]}… as tenant "
              f"{TENANT!r}: {accepted.status}, "
              f"{accepted.n_enqueued} enqueued")
        if accepted.status != "submitted":
            print(f"FAIL: fresh submission reported {accepted.status!r}")
            return 1

        workers.append(start_worker(root))
        workers.append(start_worker(root))
        victim, survivor = workers

        # Wait until both workers hold a shard lease, then kill the victim
        # mid-shard: its lease must expire and the shard be redelivered.
        queue = campaign_queue(root)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if queue.counts()["leased"] >= 2:
                break
            time.sleep(0.05)
        time.sleep(0.4)  # well inside the stretched shard
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        print(f"killed worker pid {victim.pid} mid-shard; survivor pid "
              f"{survivor.pid} must complete via lease expiry")

        progress, complete = [], None
        for frame in client.events(timeout=300):
            if isinstance(frame, CampaignProgress):
                progress.append(frame)
                print(f"  progress {len(frame.shards_done)}/"
                      f"{frame.n_shards_total} shards  "
                      f"max|t|={frame.max_abs_t:.3f}")
            elif isinstance(frame, CampaignComplete):
                complete = frame
                break
            elif isinstance(frame, ServiceError):
                print(f"FAIL: service error [{frame.code}]: "
                      f"{frame.message}")
                return 1
        client.close()
        if complete is None:
            print("FAIL: stream ended without CampaignComplete")
            return 1
        if survivor.wait(timeout=300) != 0:
            print("FAIL: surviving worker exited non-zero")
            return 1
        final = progress[-1]
        if final.shards_done != tuple(range(N_SHARDS)):
            print(f"FAIL: final frame saw shards {final.shards_done}")
            return 1

        collected = collect_result(root, spec.content_hash, timeout=60,
                                   tenant=TENANT)
        streamed = decode_array(final.t_values)
        if not np.array_equal(streamed, collected.t_values):
            print("FAIL: streamed interim t-values != collect result "
                  "(bitwise)")
            return 1
        served = assessment_from_dict(complete.assessment)
        if not np.array_equal(served.t_values, collected.t_values):
            print("FAIL: CampaignComplete assessment != collect result")
            return 1
        print(f"streamed t-values converge bitwise to collect "
              f"({len(collected.gate_names)} gates, "
              f"{len(progress)} progress frames)")
        return check_cli(root, spec.content_hash)
    finally:
        for process in workers:
            if process.poll() is None:
                process.kill()
                process.wait()
        server.terminate()
        server.wait(timeout=30)


def _cli(*args: str) -> str:
    """Run one ``polaris-campaign`` command; its stdout (raises on failure)."""
    return subprocess.run(
        [sys.executable, "-m", "repro.campaign.cli", *args], env=_env(),
        check=True, stdout=subprocess.PIPE, text=True).stdout


def check_cli(root: Path, spec_hash: str) -> int:
    """The tenant's campaign as ``status`` and ``gc`` see it on the root."""
    statuses = json.loads(_cli("status", "--root", str(root),
                               "--tenant", TENANT, "--json"))
    if [(s["spec_hash"], s["state"], s["complete"]) for s in statuses] \
            != [(spec_hash, "complete", True)]:
        print(f"FAIL: status --tenant {TENANT} --json reported {statuses}")
        return 1
    gc = _cli("gc", "--root", str(root), "--all", "--dry-run")
    if f"result {TENANT}/{spec_hash[:12]}" not in gc:
        print(f"FAIL: gc --all --dry-run does not list the tenant's "
              f"result:\n{gc}")
        return 1
    print(f"status shows the campaign complete and gc lists "
          f"{TENANT}/{spec_hash[:12]}…; smoke ok")
    return 0


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="service-smoke-"))
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
