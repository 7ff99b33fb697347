"""``polaris-campaign`` — the campaign orchestration command line.

Subcommands over a shared campaign root directory::

    polaris-campaign submit --root RUNS --benchmark des3 --traces 600 \\
        --chunk-traces 128 --shards 4
    polaris-campaign work   --root RUNS --drain          # run on N hosts
    polaris-campaign work   --root RUNS --forever --max-idle 300   # daemon
    polaris-campaign status --root RUNS [--json]
    polaris-campaign result --root RUNS <spec-hash>
    polaris-campaign gc     --root RUNS --max-age-days 30 --shards

``submit`` registers the campaign (idempotent; cache hits short-circuit),
``work`` serves the queue until stopped or drained (``--forever`` turns it
into a daemon with exponential poll backoff; ``--max-idle`` bounds how
long an idle worker lives, the CI-friendly cutoff), ``status`` shows shard
progress (``--json`` emits the stable machine-readable form), ``result``
waits for completion, merges the shard checkpoints, stores the assessment
content-addressed, and prints the verdict, and ``gc`` evicts old store
objects and redundant shard checkpoints.

The live-service verbs (see ``docs/service.md``)::

    polaris-campaign serve  --root RUNS --port 7611
    polaris-campaign work   --root RUNS --connect HOST:PORT --forever
    polaris-campaign submit --root RUNS ... --follow --connect HOST:PORT
    polaris-campaign watch  --connect HOST:PORT --tenant lab <spec-hash>

``serve`` runs the asyncio front-end, ``work --connect`` attaches a
worker that streams shard partials + heartbeats, ``submit --follow``
submits through the service and renders the live interim t-value stream,
and ``watch`` subscribes to an already-running campaign.  See
``docs/campaigns.md`` for the batch walkthrough.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..netlist.benchmarks import load_benchmark
from ..netlist.parser import parse_bench_file
from ..tvla.assessment import SUPPORTED_TVLA_ORDERS, TvlaConfig
from .queue import run_worker
from .runner import (
    CampaignError,
    campaign_queue,
    campaign_status,
    collect_result,
    gc_campaign_root,
    list_campaigns,
    submit_campaign,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaris-campaign",
        description="Distributed, resumable TVLA campaign orchestration.")
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="register a campaign and enqueue its missing shards")
    submit.add_argument("--root", required=True, type=Path,
                        help="shared campaign root directory")
    source = submit.add_mutually_exclusive_group(required=True)
    source.add_argument("--benchmark",
                        help="built-in benchmark design name (e.g. des3)")
    source.add_argument("--bench-file", type=Path,
                        help="path to a BENCH netlist file")
    submit.add_argument("--scale", type=float, default=1.0,
                        help="benchmark size multiplier (with --benchmark)")
    submit.add_argument("--design-seed", type=int, default=2025,
                        help="benchmark generator seed (with --benchmark)")
    submit.add_argument("--shards", type=int, default=2,
                        help="shard count (capped at the chunk count)")
    submit.add_argument("--traces", type=int, default=1000,
                        help="traces per campaign group")
    submit.add_argument("--chunk-traces", type=int, default=2048,
                        help="trace-chunk size (shard/RNG granularity)")
    submit.add_argument("--classes", type=int, default=4,
                        help="number of fixed input classes")
    submit.add_argument("--seed", type=int, default=0,
                        help="campaign stimulus/noise seed")
    submit.add_argument("--order", type=int, default=1,
                        choices=SUPPORTED_TVLA_ORDERS,
                        help="highest TVLA order to evaluate")
    submit.add_argument("--mode", default="fixed_vs_random",
                        choices=("fixed_vs_random", "fixed_vs_fixed"))
    submit.add_argument("--tenant", default=None,
                        help="tenant id: campaign lives under "
                             "<root>/tenants/<tenant> with namespaced "
                             "queue keys (default: the plain root)")
    submit.add_argument("--follow", action="store_true",
                        help="submit through a running service and stream "
                             "live progress (requires --connect)")
    submit.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="service endpoint for --follow")

    work = commands.add_parser(
        "work", help="serve the queue: claim, execute and ack shard tasks")
    work.add_argument("--root", required=True, type=Path)
    work.add_argument("--worker", default=None,
                      help="worker id recorded on leases (default: pid)")
    work.add_argument("--max-tasks", type=int, default=None,
                      help="exit after this many tasks")
    work.add_argument("--lease-seconds", type=float, default=None,
                      help="per-claim lease override")
    work.add_argument("--poll-interval", type=float, default=0.1,
                      help="idle sleep between empty claims (initial "
                           "sleep in --forever mode)")
    work.add_argument("--drain", action="store_true",
                      help="exit once no outstanding work remains "
                           "(waits out other workers' live leases)")
    work.add_argument("--forever", action="store_true",
                      help="daemon mode: never exit on an empty queue; "
                           "idle polls back off exponentially up to "
                           "--max-poll-interval")
    work.add_argument("--max-poll-interval", type=float, default=5.0,
                      help="backoff ceiling of --forever mode (seconds)")
    work.add_argument("--max-idle", type=float, default=None,
                      help="exit after this many seconds without claiming "
                           "a task (CI cutoff for daemon workers)")
    work.add_argument("--connect", default=None, metavar="HOST:PORT",
                      help="attach to a running service: stream shard "
                           "partials and heartbeats while draining the "
                           "shared queue")
    work.add_argument("--no-renew", action="store_true",
                      help="disable half-lease heartbeat renewal "
                           "(simulates pre-renewal workers; leases must "
                           "then outlast one shard)")
    work.add_argument("--fault-plan", default=None, metavar="PLAN",
                      help="deterministic fault-injection plan for this "
                           "worker process (grammar in "
                           "docs/reliability.md; equivalent to setting "
                           "POLARIS_FAULT_PLAN)")

    serve = commands.add_parser(
        "serve", help="run the live assessment service (asyncio TCP)")
    serve.add_argument("--root", required=True, type=Path,
                       help="shared service root (queue + tenant subroots)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 picks a free port; the bound "
                            "port is printed on stdout)")

    watch = commands.add_parser(
        "watch", help="stream a running campaign's live progress")
    watch.add_argument("--connect", required=True, metavar="HOST:PORT")
    watch.add_argument("--tenant", default=None,
                       help="tenant id (default: the shared default tenant)")
    watch.add_argument("spec_hash")

    gc = commands.add_parser(
        "gc", help="evict old store results and redundant shard checkpoints")
    gc.add_argument("--root", required=True, type=Path)
    age = gc.add_mutually_exclusive_group(required=True)
    age.add_argument("--max-age", type=float, default=None,
                     help="evict results older than this many seconds")
    age.add_argument("--max-age-days", type=float, default=None,
                     help="evict results older than this many days")
    age.add_argument("--all", action="store_true", dest="evict_all",
                     help="evict every result not listed in --keep")
    gc.add_argument("--keep", action="append", default=[], metavar="HASH",
                    help="content hash to retain regardless of age "
                         "(repeatable)")
    gc.add_argument("--shards", action="store_true", dest="prune_shards",
                    help="also delete shard checkpoints of campaigns "
                         "whose merged result is stored")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")

    status = commands.add_parser(
        "status", help="show campaign progress under a root")
    status.add_argument("--root", required=True, type=Path)
    status.add_argument("spec_hash", nargs="?", default=None,
                        help="restrict to one campaign")
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output: a JSON array of "
                             "{spec_hash, state, design, n_traces, "
                             "n_shards_done, n_shards_total, complete, "
                             "failed_shards} objects (stable keys, see "
                             "docs/campaigns.md)")
    status.add_argument("--tenant", default=None,
                        help="inspect one tenant's sub-root")

    result = commands.add_parser(
        "result", help="wait for, merge, store and print a campaign result")
    result.add_argument("--root", required=True, type=Path)
    result.add_argument("spec_hash")
    result.add_argument("--timeout", type=float, default=None,
                        help="give up after this many seconds")
    result.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full result as JSON")
    result.add_argument("--tenant", default=None,
                        help="collect from one tenant's sub-root")
    result.add_argument("--allow-partial", action="store_true",
                        help="degrade instead of failing once every "
                             "missing shard has exhausted its retries: "
                             "merge the completed shards and report the "
                             "failed ones (the partial result is not "
                             "stored)")
    return parser


def _parse_endpoint(value: str) -> tuple:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: --connect expects HOST:PORT, got {value!r}")
    return host, int(port)


def _tenant_scope(root: Path, tenant: Optional[str]):
    """(campaign_root, queue, key_prefix) of one tenant under ``root``."""
    if tenant is None:
        return root, None, ""
    from ..service.protocol import tenant_key_prefix, tenant_root
    return (tenant_root(root, tenant), campaign_queue(root),
            tenant_key_prefix(tenant))


def _submit(args: argparse.Namespace) -> int:
    if args.follow and args.connect is None:
        print("error: --follow needs --connect HOST:PORT", file=sys.stderr)
        return 2
    try:
        config = TvlaConfig(n_traces=args.traces, mode=args.mode,
                            n_fixed_classes=args.classes, seed=args.seed,
                            chunk_traces=args.chunk_traces,
                            tvla_order=args.order)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.benchmark is not None:
        netlist = load_benchmark(args.benchmark, scale=args.scale,
                                 seed=args.design_seed)
    else:
        netlist = parse_bench_file(args.bench_file)
    if args.follow:
        return _submit_follow(args, netlist, config)
    root, queue, prefix = _tenant_scope(args.root, args.tenant)
    outcome = submit_campaign(root, netlist=netlist, config=config,
                              n_shards=args.shards, queue=queue,
                              shard_key_prefix=prefix)
    print(f"{outcome.status} {outcome.spec_hash}")
    print(f"  design       {outcome.spec.design_name}")
    print(f"  shards       {outcome.n_shards_done}/{outcome.n_shards_total} "
          f"done, {outcome.n_enqueued} newly enqueued")
    if outcome.status == "cached":
        print("  result is already in the store; "
              "`polaris-campaign result` serves it without re-simulating")
    return 0


def _submit_follow(args: argparse.Namespace, netlist, config) -> int:
    from ..service.client import ServiceClient
    from ..service.protocol import DEFAULT_TENANT
    from .spec import CampaignSpec

    host, port = _parse_endpoint(args.connect)
    tenant = args.tenant or DEFAULT_TENANT
    spec = CampaignSpec.from_netlist(netlist, config, n_shards=args.shards)
    with ServiceClient(host, port) as client:
        accepted = client.submit(tenant, spec.to_json(), follow=True)
        print(f"{accepted.status} {accepted.spec_hash} (tenant {tenant})",
              flush=True)
        return _render_stream(client)


def _render_stream(client) -> int:
    """Print live frames until the campaign completes (or errors)."""
    from ..service.protocol import (CampaignComplete, CampaignProgress,
                                    ServiceError)
    from .serialize import assessment_from_dict

    for frame in client.events():
        if isinstance(frame, CampaignProgress):
            shards = len(frame.shards_done)
            print(f"progress {shards}/{frame.n_shards_total} shards  "
                  f"max|t|={frame.max_abs_t:.3f}  "
                  f"leaky={len(frame.leaking_gates)}", flush=True)
        elif isinstance(frame, CampaignComplete):
            assessment = assessment_from_dict(frame.assessment)
            summary = assessment.summary()
            print(f"complete {frame.spec_hash}")
            print(f"  leaky gates  {assessment.n_leaky}/{summary['gates']}")
            print(f"  max |t|      {summary['max_abs_t']:.3f}")
            return 0
        elif isinstance(frame, ServiceError):
            print(f"service error [{frame.code}]: {frame.message}",
                  file=sys.stderr, flush=True)
            if frame.code != "internal":
                return 1
    print("stream closed before completion", file=sys.stderr)
    return 1


def _work(args: argparse.Namespace) -> int:
    if args.forever and args.drain:
        print("error: --forever and --drain are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.fault_plan is not None:
        from ..reliability.faults import FaultPlan, set_fault_plan
        # Parse eagerly so a bad plan is a CLI error, not a mid-shard one.
        try:
            set_fault_plan(FaultPlan.parse(args.fault_plan))
        except ValueError as error:
            print(f"error: bad --fault-plan: {error}", file=sys.stderr)
            return 2
    worker_kwargs = dict(worker=args.worker,
                         max_tasks=args.max_tasks,
                         poll_interval=args.poll_interval,
                         lease_seconds=args.lease_seconds,
                         drain=args.drain,
                         forever=args.forever,
                         max_poll_interval=args.max_poll_interval,
                         max_idle=args.max_idle,
                         renew_leases=not args.no_renew)
    if args.connect is not None:
        from ..service.worker import run_service_worker
        host, port = _parse_endpoint(args.connect)
        executed = run_service_worker(args.root, host, port,
                                      **worker_kwargs)
    else:
        queue = campaign_queue(args.root)
        executed = run_worker(queue, **worker_kwargs)
    print(f"worker exit: {executed} task(s) executed")
    return 0


def _serve(args: argparse.Namespace) -> int:
    from ..service.server import serve as run_service

    def announce(host: str, port: int) -> None:
        print(f"serving on {host}:{port}", flush=True)

    run_service(args.root, host=args.host, port=args.port,
                ready_callback=announce)
    return 0


def _watch(args: argparse.Namespace) -> int:
    from ..service.client import ServiceClient
    from ..service.protocol import DEFAULT_TENANT

    host, port = _parse_endpoint(args.connect)
    with ServiceClient(host, port) as client:
        client.watch(args.tenant or DEFAULT_TENANT, args.spec_hash)
        return _render_stream(client)


def _gc(args: argparse.Namespace) -> int:
    if args.evict_all:
        max_age = None  # no age filter: evict everything not in --keep
    elif args.max_age_days is not None:
        max_age = args.max_age_days * 86400.0
    else:
        max_age = args.max_age
    outcome = gc_campaign_root(args.root, max_age=max_age,
                               keep_hashes=args.keep,
                               prune_shards=args.prune_shards,
                               dry_run=args.dry_run)
    verb = "would evict" if outcome.dry_run else "evicted"
    print(f"{verb} {len(outcome.pruned_results)} result(s), "
          f"kept {outcome.kept_results}")
    for key in outcome.pruned_results:
        print(f"  result {key[:12]}…")
    for key in outcome.pruned_shard_dirs:
        print(f"  shards {key[:12]}… "
              f"({'would be ' if outcome.dry_run else ''}removed: "
              f"merged result is stored)")
    return 0


def _status(args: argparse.Namespace) -> int:
    root, queue, prefix = _tenant_scope(args.root, args.tenant)
    if args.spec_hash is not None:
        statuses = [campaign_status(root, args.spec_hash, queue=queue,
                                    shard_key_prefix=prefix)]
    else:
        statuses = list_campaigns(root, queue=queue,
                                  shard_key_prefix=prefix)
    if args.as_json:
        # The stable machine-readable form (documented in
        # docs/campaigns.md): a JSON array, one object per campaign,
        # exactly these keys.  CI scripts parse this instead of scraping
        # the human text below.
        print(json.dumps([{
            "spec_hash": status.spec_hash,
            "state": status.state,
            "design": status.design_name,
            "n_traces": status.n_traces,
            "n_shards_done": status.n_shards_done,
            "n_shards_total": status.n_shards_total,
            "complete": status.complete,
            "failed_shards": list(status.failed_shards),
        } for status in statuses], indent=2))
        return 0
    if not statuses:
        print("no campaigns submitted under this root")
        return 0
    for status in statuses:
        print(f"{status.spec_hash[:12]}  {status.state:9s} "
              f"{status.n_shards_done}/{status.n_shards_total} shards  "
              f"{status.design_name} ({status.n_traces} traces)")
        for shard in status.failed_shards:
            print(f"  shard {shard}: FAILED (see queue error)")
    return 0


def _result(args: argparse.Namespace) -> int:
    root, queue, prefix = _tenant_scope(args.root, args.tenant)
    try:
        assessment = collect_result(root, args.spec_hash,
                                    timeout=args.timeout, queue=queue,
                                    shard_key_prefix=prefix,
                                    allow_partial=args.allow_partial)
    except (CampaignError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if assessment.failed_shards:
        print(f"warning: degraded result — shard(s) "
              f"{list(assessment.failed_shards)} failed and are excluded "
              f"(not stored)", file=sys.stderr)
    if args.as_json:
        from .serialize import assessment_to_dict
        print(json.dumps(assessment_to_dict(assessment), indent=2))
        return 0
    summary = assessment.summary()
    print(f"design         {assessment.design_name}")
    print(f"gates          {summary['gates']}")
    print(f"leaky gates    {assessment.n_leaky}")
    print(f"mean leakage   {assessment.mean_leakage:.4f}")
    print(f"max |t|        {summary['max_abs_t']:.3f}")
    print(f"n_traces       {assessment.n_traces}")
    print(f"n_shards       {assessment.n_shards}")
    for order in sorted(assessment.order_t_values):
        print(f"order-{order} leaky  {assessment.n_leaky_for_order(order)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``polaris-campaign`` console script."""
    args = _build_parser().parse_args(argv)
    handlers = {"submit": _submit, "work": _work, "status": _status,
                "result": _result, "gc": _gc, "serve": _serve,
                "watch": _watch}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
