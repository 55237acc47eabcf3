"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``demo``     — the quickstart flow (build → convert → lazy deploy);
* ``dedup``    — Table II dedup study on a corpus subset;
* ``storage``  — Fig. 7-style Docker-vs-Gear registry footprints;
* ``deploy``   — deploy one series under docker/gear/slacker at a chosen
  bandwidth and print the pull/run breakdown;
* ``crash``    — crash-consistency sweep: kill a Gear deployment at each
  instrumented crash point, fsck, resume, and check the golden
  resume-equivalence invariant;
* ``chunks``   — chunk-granular big-file sweep: a concurrent reader wave
  pulls ranges of a model file chunk by chunk under clean / chunk-fault /
  mid-chunk-crash / byzantine scenarios; exits nonzero unless every run
  ends byte-identical to a whole-file control with zero poisoned pool
  commits, zero duplicate chunk fetches, and zero re-fetched salvaged
  chunks after crash recovery;
* ``ha``       — highly-available registry sweep: a client fleet deploys
  against a replicated Gear registry tier under healthy / outage /
  brownout / byzantine / overload scenarios and the report carries
  failover, hedging, and load-shedding accounting;
* ``trace``    — telemetry run: deploy under Gear with the span tracer
  attached, print the critical-path phase table, and export a Chrome
  ``trace_event`` JSON (Perfetto-loadable) plus a flat metrics dump;
* ``edge``     — multi-tier edge/P2P sweep: a fleet deploys through
  peer-serving edge sites under quiet / churn / byzantine scenarios;
  exits nonzero on any integrity violation or degraded fallback.
  ``--equivalence`` instead checks a zero-churn single-node edge run is
  byte- and time-identical to the single-tier testbed;
* ``faas``     — serverless spike sweep: a Zipf-popular function fleet
  invoked on a seeded Poisson/bursty schedule, each cold start pulling
  through node pool → shared cache tier → registry; exits nonzero when
  any invocation fails, any container filesystem diverges from the
  fault-free registry-only control, or stampede suppression slips;
* ``perf``     — simulator throughput: events/sec on the canonical
  microflow and deploy-wave scenarios, with cross-mode equivalence and
  double-run determinism gates (exit 1 on drift);
* ``slo``      — readiness-aware SLO gate: fleet, edge, FaaS, and
  overlapped-prefetch scenarios each run with the virtual-time timeline
  sampler attached, declarative objectives (time-to-ready and deploy
  tails, zero degraded fallbacks, zero poisoned commits) are evaluated
  with windowed burn rates over the sampled series, and every scenario
  is run twice — exit 1 on any violated objective or any byte drift
  between the two runs' timeline/SLO JSON;
* ``catalog``  — list the Table I series catalog.

All commands run entirely in-process on the simulated testbed; sizes and
times are virtual but deterministic in ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis import compute_dedup_table
from repro.baselines.slacker import SlackerDriver
from repro.bench.deploy import (
    deploy_with_docker,
    deploy_with_gear,
    deploy_with_gear_overlapped,
    deploy_with_gear_resumable,
    deploy_with_slacker,
)
from repro.bench.deploy import container_fs_digest, viewer_fs_digest
from repro.bench.environment import (
    make_edge_testbed,
    make_faas_testbed,
    make_testbed,
    make_timeline_sampler,
    publish_images,
)
from repro.bench.reporting import format_table, gb, pct
from repro.bench.storage import compare_storage
from repro.blob import Blob, DEFAULT_CHUNK_SIZE
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import ClientCrash
from repro.common.stats import percentile
from repro.common.units import MiB
from repro.gear.bigfile import ChunkFetchStats, ChunkedGearFileViewer
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.journal import IntentJournal
from repro.gear.pool import SharedFilePool
from repro.gear.recovery import fsck
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
from repro.net.faults import (
    BrownoutWindow,
    CrashInjector,
    CrashPlan,
    CrashPoint,
    FaultPlan,
    FaultyLink,
    OutageWindow,
    byzantine_plan,
    chunk_plan,
)
from repro.net.link import Link
from repro.net.resilience import RetryPolicy, poisoned
from repro.net.transport import RpcTransport
from repro.vfs.tree import FileSystemTree
from repro.net.faas import FAAS_TIER_ENDPOINT, FaasPlatform
from repro.net.topology import Cluster, EdgeCluster, HACluster
from repro.gear.prefetch import TraceRecorder
from repro.obs import (
    Objective,
    critical_path,
    dump_json,
    evaluate,
    format_report,
    metrics_snapshot,
    trace_json,
)
from repro.workloads.corpus import CorpusBuilder, CorpusConfig
from repro.workloads.schedule import BurstWindow, ScheduleBuilder
from repro.workloads.series import SERIES


def _corpus(args, series: Optional[tuple] = None):
    return CorpusBuilder(
        CorpusConfig(
            seed=args.seed,
            file_scale=args.scale,
            size_scale=args.scale,
            series_names=series or (tuple(args.series) if args.series else None),
            versions_cap=args.versions,
        )
    ).build()


def cmd_catalog(args) -> int:
    """List the Table I series catalog."""
    rows = [
        (spec.name, spec.category, spec.versions, spec.base_distro or "-")
        for spec in SERIES
    ]
    print(format_table(["Series", "Category", "Versions", "Base"], rows))
    return 0


def _run_demo() -> int:
    from repro import ImageBuilder

    testbed = make_testbed(bandwidth_mbps=100)
    image = (
        ImageBuilder("app", "v1")
        .add_file("/bin/app", b"\x7fELF" * 50_000, mode=0o755)
        .add_file("/etc/app.conf", "mode=demo\n")
        .build()
    )
    testbed.docker_registry.push_image(image)
    index, report = testbed.converter.convert("app:v1")
    print(f"converted app:v1 -> {index.reference} "
          f"({report.gear_files_new} gear files, index {report.index_bytes} B)")
    container, deploy_report = testbed.gear_driver.deploy("app.gear:v1")
    print(f"deployed {container.id}: index pull took {deploy_report.pull_s:.3f} s")
    container.mount.read_bytes("/etc/app.conf")
    print(f"first read faulted {container.mount.fault_stats.remote_fetches} "
          f"file(s); wire bytes: {testbed.link.log.total_bytes}")
    return 0


def cmd_dedup(args) -> int:
    """Table II dedup study on the configured corpus subset."""
    corpus = _corpus(args)
    table = compute_dedup_table(corpus.docker_images())
    print(
        format_table(
            ["Granularity", "Stored (GB)", "Objects", "Reduction"],
            [
                (name, gb(size), f"{objects:,}",
                 pct(1 - size / table.none.storage_bytes))
                for name, size, objects in table.rows()
            ],
        )
    )
    return 0


def cmd_storage(args) -> int:
    """Docker-vs-Gear registry footprint for the configured corpus."""
    corpus = _corpus(args)
    whole = compare_storage("corpus", corpus.images)
    print(
        format_table(
            ["Registry", "Stored (GB)"],
            [
                ("Docker", gb(whole.docker_bytes)),
                ("Gear (files+indexes)", gb(whole.gear_bytes)),
            ],
        )
    )
    print(f"saving: {pct(whole.saving_fraction)}  "
          f"(index share {pct(whole.index_share)})")
    return 0


def _fault_plan(args) -> "Optional[FaultPlan]":
    """Build the fault plan the deploy flags describe (None = clean wire)."""
    outages = ()
    if args.outage_len > 0:
        outages = (
            OutageWindow(start_s=args.outage_start, duration_s=args.outage_len),
        )
    if not (args.drop_rate or args.corrupt_rate or outages):
        return None
    targets = tuple(args.fault_target) if args.fault_target else None
    return FaultPlan(
        seed=f"cli-{args.fault_seed}",
        drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        outages=outages,
        targets=targets,
    )


def _cmd_deploy_fleet(args) -> int:
    """Fleet contention mode: N clients deploy concurrently.

    One image; per-system clusters; clients share the registry uplink
    under fair sharing.  Reports per-client latency percentiles and
    uplink utilization — deterministic, so two runs emit identical JSON
    (the `scripts/check.sh` determinism gate relies on this).
    """
    if args.drop_rate or args.corrupt_rate or args.outage_len:
        print("deploy: fault injection is not supported with --clients > 1",
              file=sys.stderr)
        return 2
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]
    concurrency = args.concurrency or args.clients
    report = {
        "target": generated.reference,
        "bandwidth_mbps": args.bandwidth,
        "clients": args.clients,
        "concurrency": concurrency,
        "systems": {},
    }
    actions = {
        "docker": lambda node: deploy_with_docker(node.testbed, generated),
        "gear": lambda node: deploy_with_gear(
            node.testbed, generated, clear_cache=True
        ),
    }
    for system, action in actions.items():
        cluster = Cluster(args.clients, bandwidth_mbps=args.bandwidth)
        publish_images(cluster.registry_testbed, [generated], convert=True)
        wave = cluster.deploy_wave(action, concurrency=concurrency)
        report["systems"][system] = wave.as_dict()
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(
        f"fleet deploy of {generated.reference}: {args.clients} clients, "
        f"{concurrency} concurrent @ {args.bandwidth:g} Mbps"
    )
    print(
        format_table(
            ["System", "p50 (s)", "p95 (s)", "p99 (s)", "Makespan (s)",
             "Uplink util", "Egress (MB)"],
            [
                (
                    system,
                    f"{wave['p50_s']:.2f}",
                    f"{wave['p95_s']:.2f}",
                    f"{wave['p99_s']:.2f}",
                    f"{wave['makespan_s']:.2f}",
                    pct(wave["utilization"]),
                    f"{wave['egress_bytes'] / 1e6:.1f}",
                )
                for system, wave in report["systems"].items()
            ],
        )
    )
    return 0


def cmd_deploy(args) -> int:
    """Deploy one series under Docker, Gear, and Slacker."""
    if args.clients > 1 or args.concurrency:
        return _cmd_deploy_fleet(args)
    corpus = _corpus(args, series=(args.target,))
    images = corpus.by_series[args.target]
    plan = _fault_plan(args)
    testbed = make_testbed(bandwidth_mbps=args.bandwidth, fault_plan=plan)
    publish_images(testbed, corpus.images, convert=True)
    testbed.arm_faults()
    slacker = SlackerDriver(testbed.clock, testbed.link)
    rows = []
    for generated in images:
        docker = deploy_with_docker(testbed.fresh_client(), generated)
        gear = deploy_with_gear(testbed, generated)
        slk = deploy_with_slacker(slacker, testbed, generated)
        row = [
            generated.tag,
            f"{docker.pull_s:.2f}/{docker.run_s:.2f}",
            f"{gear.pull_s:.2f}/{gear.run_s:.2f}",
            f"{slk.pull_s:.2f}/{slk.run_s:.2f}",
        ]
        if plan is not None:
            flags = "degraded" if gear.degraded else "-"
            row.append(f"{gear.retries}/{gear.errors}/{flags}")
        rows.append(tuple(row))
    print(f"deploying {args.target} @ {args.bandwidth} Mbps — pull/run (s)")
    headers = ["Version", "Docker", "Gear", "Slacker"]
    if plan is not None:
        headers.append("Gear retry/err/mode")
        print(f"fault plan: drop={plan.drop_rate} corrupt={plan.corrupt_rate} "
              f"outages={[(o.start_s, o.duration_s) for o in plan.outages]} "
              f"targets={plan.targets or 'all'}")
    print(format_table(headers, rows))
    return 0


def cmd_crash(args) -> int:
    """Crash-consistency sweep over every instrumented crash point.

    For each point: deploy on a fresh testbed, let the injected crash
    kill the client, fsck the local store, resume, and compare the
    resumed container fs against an uncrashed control run.  Exit code 1
    when any point violates resume equivalence or re-fetches a file
    recovery had already committed.
    """
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]

    def run_point(plan):
        testbed = make_testbed(bandwidth_mbps=args.bandwidth)
        publish_images(testbed, [generated], convert=True)
        return deploy_with_gear_resumable(testbed, generated, plan)

    control = run_point(None)
    report = {
        "target": generated.reference,
        "bandwidth_mbps": args.bandwidth,
        "crash_seed": args.crash_seed,
        "control": {
            "total_s": control.result.total_s,
            "network_bytes": control.result.network_bytes,
            "fs_digest": control.fs_digest,
        },
        "points": {},
    }
    ok = True
    for point in CrashPoint:
        plan = CrashPlan(
            point=point,
            seed=f"cli-{args.crash_seed}",
            op_index=args.crash_op if args.crash_op >= 0 else None,
        )
        out = run_point(plan)
        equivalent = out.fs_digest == control.fs_digest
        ok = ok and equivalent and out.refetched_committed == 0
        report["points"][point.value] = {
            "crashed": out.crashed,
            "crash_op": out.crash_op,
            "crash_at_s": out.crash_at_s,
            "crashed_run_s": out.crashed_run_s,
            "crashed_network_bytes": out.crashed_network_bytes,
            "recovery_s": out.recovery_s,
            "recovery": out.recovery.as_dict() if out.recovery else None,
            "committed_before_crash": out.committed_before_crash,
            "refetched_committed": out.refetched_committed,
            "resumed_total_s": out.result.total_s,
            "resumed_network_bytes": out.result.network_bytes,
            "fs_equivalent": equivalent,
        }
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if ok else 1
    print(
        f"crash sweep of {generated.reference} @ {args.bandwidth:g} Mbps "
        f"(control: {control.result.total_s:.2f} s, "
        f"{control.result.network_bytes} B)"
    )
    print(
        format_table(
            ["Point", "Died (s)", "fsck (s)", "Resume (s)", "Refetched",
             "Equivalent"],
            [
                (
                    point,
                    f"{cell['crash_at_s']:.3f}",
                    f"{cell['recovery_s']:.4f}",
                    f"{cell['resumed_total_s']:.3f}",
                    str(cell["refetched_committed"]),
                    "yes" if cell["fs_equivalent"] else "NO",
                )
                for point, cell in report["points"].items()
            ],
        )
    )
    return 0 if ok else 1


#: The ``chunks`` sweep's scenarios over the chunk-granular read path.
CHUNK_SCENARIOS = ("clean", "chunk-faults", "crash", "byzantine")

#: Paths inside the chunks-sweep image: one big model file (chunked) and
#: one small config (whole-file path, exercised by the same wave).
_CHUNK_BIG_PATH = "/models/weights.bin"
_CHUNK_SMALL_PATH = "/etc/app.conf"


def _chunk_scenario_plan(scenario: str, seed: str):
    """The label-scoped fault plan for one chunks-sweep scenario."""
    if scenario == "chunk-faults":
        # Detected half the time (wire checksum → transport retry) and
        # undetected the rest (slips to chunk verification).
        return chunk_plan(
            seed=f"cli-chunks-{seed}",
            drop_rate=0.04,
            corrupt_rate=0.10,
            corrupt_detect_rate=0.5,
        )
    if scenario == "byzantine":
        # Every corruption slides past the wire checksum: only per-chunk
        # fingerprint verification stands between it and the pool.
        return chunk_plan(
            seed=f"cli-chunks-byz-{seed}",
            corrupt_rate=0.15,
            corrupt_detect_rate=0.0,
        )
    return None


def _chunk_env(args, plan=None):
    """A fresh single-node chunk testbed: registry pre-seeded, no faults
    on the (local) uploads, chunk-labelled faults only on the wire."""
    clock = SimClock()
    if plan is not None:
        link = FaultyLink(clock, plan, bandwidth_mbps=args.bandwidth)
    else:
        link = Link(clock, bandwidth_mbps=args.bandwidth)
    transport = RpcTransport(
        link,
        retry_policy=RetryPolicy(seed=f"cli-chunks-rpc-{args.chunk_seed}"),
    )
    registry = GearRegistry()
    transport.bind(registry.endpoint())
    root = FileSystemTree()
    root.write_file(
        _CHUNK_BIG_PATH,
        Blob.synthetic(f"model-{args.chunk_seed}", args.big_mib * MiB),
        parents=True,
    )
    root.write_file(_CHUNK_SMALL_PATH, b"mode=chunks\n", parents=True)
    index = GearIndex.from_tree("ai.gear", "v1", root)
    for _, node in root.iter_files():
        registry.upload(GearFile.from_blob(node.blob))
    pool = SharedFilePool()
    journal = IntentJournal(clock)
    return clock, link, transport, index, pool, journal


def _chunk_viewer(transport, index, pool, journal, args, *, crash=None):
    return ChunkedGearFileViewer(
        index,
        pool,
        transport=transport,
        journal=journal,
        crash=crash,
        big_file_threshold=1 * MiB,
        chunk_retry=RetryPolicy(seed=f"cli-chunks-verify-{args.chunk_seed}"),
        chunk_stats=ChunkFetchStats(),
    )


def _chunk_wave(clock, viewer, size, clients):
    """``clients`` concurrent readers covering the big file with
    overlapping ranges (each reads its slice plus the neighbour's, so
    single-flight coalescing is exercised on every boundary chunk)."""
    span = max(1, size // clients)

    def reader(client_id):
        start = min(client_id * span, max(0, size - span))
        length = min(size - start, 2 * span)
        viewer.read_range(_CHUNK_BIG_PATH, start, length)
        viewer.read_range(_CHUNK_SMALL_PATH, 0, 4)

    with SimScheduler(clock) as scheduler:
        for client_id in range(clients):
            scheduler.spawn(reader, client_id, name=f"reader-{client_id:03d}")
        scheduler.run()


def _pool_audit(pool) -> int:
    """Committed pool entries whose content does not hash to their name
    (poisoned commits — must be zero under every fault scenario)."""
    return len(poisoned(pool, strict=True))


def cmd_chunks(args) -> int:
    """Chunk-granular read-path sweep (§VII big-file lazy loading).

    A fault-free whole-file control establishes the golden filesystem
    digest; each scenario then runs a ``--clients``-wide concurrent wave
    of overlapping ``read_range`` calls through the chunked viewer and
    must end byte-identical to the control with zero poisoned pool
    commits, zero duplicate chunk fetches, and zero leaked partials.
    The ``crash`` scenario additionally kills the client mid-chunk,
    fscks, resumes, and requires that no salvaged (verified) chunk is
    re-fetched.  Exit code 1 on any violation.
    """
    size = args.big_mib * MiB
    total_chunks = (size + DEFAULT_CHUNK_SIZE - 1) // DEFAULT_CHUNK_SIZE

    # Control: fault-free whole-file viewer, both files read in full.
    clock, link, transport, index, pool, journal = _chunk_env(args)
    control = GearFileViewer(
        index, pool, transport=transport, journal=journal
    )
    control.read_blob(_CHUNK_BIG_PATH)
    control.read_blob(_CHUNK_SMALL_PATH)
    control_digest = viewer_fs_digest(control)
    control_bytes = link.log.total_bytes

    scenarios = args.scenario if args.scenario else list(CHUNK_SCENARIOS)
    report = {
        "bandwidth_mbps": args.bandwidth,
        "clients": args.clients,
        "big_file_bytes": size,
        "total_chunks": total_chunks,
        "chunk_seed": args.chunk_seed,
        "control": {
            "fs_digest": control_digest,
            "network_bytes": control_bytes,
        },
        "scenarios": {},
    }
    ok = True
    for scenario in scenarios:
        plan = _chunk_scenario_plan(scenario, args.chunk_seed)
        clock, link, transport, index, pool, journal = _chunk_env(args, plan)
        viewer = _chunk_viewer(transport, index, pool, journal, args)
        identity = index.entries[_CHUNK_BIG_PATH].identity
        cell = {}

        if scenario == "crash":
            # Phase 1: a sequential deployment dies mid-chunk.
            injector = CrashInjector(
                clock,
                CrashPlan(
                    point=CrashPoint.MID_FETCH,
                    seed=f"cli-chunks-crash-{args.chunk_seed}",
                    op_index=args.crash_op if args.crash_op >= 0 else None,
                    horizon=max(2, total_chunks // 2),
                ),
            )
            crashed_viewer = _chunk_viewer(
                transport, index, pool, journal, args, crash=injector
            )
            try:
                crashed_viewer.read_range(_CHUNK_BIG_PATH, 0, size)
                cell["crashed"] = False
            except ClientCrash:
                cell["crashed"] = True
            # Phase 2: restart + fsck salvages every verified chunk.
            recovery = fsck(pool, [index], [], journal, clock=clock)
            partial = pool.partials.get(identity)
            salvaged = len(partial.present) if partial is not None else 0
            cell["recovery_s"] = recovery.fsck_s
            cell["chunks_salvaged"] = recovery.chunks_salvaged
            cell["torn_chunks_dropped"] = recovery.torn_chunks_dropped
            # Phase 3: the resumed wave must re-fetch only what is missing.
            _chunk_wave(clock, viewer, size, args.clients)
            refetched_verified = viewer.chunk_stats.chunks_fetched - (
                total_chunks - salvaged
            )
            cell["refetched_verified"] = refetched_verified
            ok = ok and cell["crashed"] and refetched_verified == 0
        else:
            _chunk_wave(clock, viewer, size, args.clients)

        stats = viewer.chunk_stats
        digest = viewer_fs_digest(viewer)
        equivalent = digest == control_digest
        poisoned = _pool_audit(pool)
        cell.update(
            fs_digest=digest,
            fs_equivalent=equivalent,
            wave_s=clock.now,
            network_bytes=link.log.total_bytes,
            chunks_fetched=stats.chunks_fetched,
            chunk_bytes_fetched=stats.chunk_bytes_fetched,
            chunk_integrity_failures=stats.chunk_integrity_failures,
            chunk_refetches=stats.chunk_refetches,
            coalesced_waits=stats.coalesced_waits,
            duplicate_chunk_fetches=stats.duplicate_chunk_fetches,
            sequential_fallbacks=stats.sequential_fallbacks,
            parallel_fetches=stats.parallel_fetches,
            promotions=stats.promotions,
            poisoned_commits=poisoned,
            partials_leaked=len(pool.partials),
            promoted=pool.contains(identity),
        )
        ok = ok and equivalent and poisoned == 0
        ok = ok and stats.duplicate_chunk_fetches == 0
        ok = ok and len(pool.partials) == 0 and pool.contains(identity)
        if scenario == "byzantine":
            # The scenario must actually exercise chunk verification.
            ok = ok and stats.chunk_integrity_failures > 0
        report["scenarios"][scenario] = cell
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if ok else 1
    print(
        f"chunks sweep @ {args.bandwidth:g} Mbps, {args.clients} readers, "
        f"{args.big_mib} MiB model ({total_chunks} chunks; control "
        f"{control_bytes} B)"
    )
    print(
        format_table(
            ["Scenario", "Fetched", "BadChunks", "Coalesced", "Dup",
             "Poisoned", "Equivalent"],
            [
                (
                    name,
                    str(cell["chunks_fetched"]),
                    str(cell["chunk_integrity_failures"]),
                    str(cell["coalesced_waits"]),
                    str(cell["duplicate_chunk_fetches"]),
                    str(cell["poisoned_commits"]),
                    "yes" if cell["fs_equivalent"] else "NO",
                )
                for name, cell in report["scenarios"].items()
            ],
        )
    )
    return 0 if ok else 1


#: The ``ha`` sweep's fault scenarios; replica 0 is always the afflicted
#: one so primary-first selection exercises the failover machinery.
HA_SCENARIOS = ("healthy", "outage", "brownout", "byzantine", "overload")


def _ha_scenario_kwargs(scenario: str, args) -> dict:
    """HACluster construction kwargs for one named scenario."""
    kwargs = {
        "replicas": args.replicas,
        "bandwidth_mbps": args.bandwidth,
        "strategy": args.strategy,
        "hedging": not args.no_hedging,
        "seed": f"cli-ha-{args.ha_seed}",
    }
    if scenario == "outage":
        plan = FaultPlan(
            outages=(OutageWindow(start_s=0.0, duration_s=1e9),),
            seed=f"cli-ha-outage-{args.ha_seed}",
        )
        kwargs["replica_fault_plans"] = [plan]
    elif scenario == "brownout":
        plan = FaultPlan(
            brownouts=(
                BrownoutWindow(start_s=0.0, duration_s=1e9, factor=6.0),
            ),
            seed=f"cli-ha-brownout-{args.ha_seed}",
        )
        kwargs["replica_fault_plans"] = [plan]
    elif scenario == "byzantine":
        kwargs["replica_fault_plans"] = [
            byzantine_plan(seed=f"cli-ha-byzantine-{args.ha_seed}")
        ]
    elif scenario == "overload":
        kwargs["admission_capacity"] = args.admission
    elif scenario != "healthy":
        raise ValueError(f"unknown HA scenario {scenario!r}")
    return kwargs


def cmd_ha(args) -> int:
    """HA registry sweep: fleet deploys under fault scenarios.

    Replica 0 takes the fault in every scenario; the other replicas stay
    healthy, so no deployment may fall back to degraded Docker mode —
    exit code 1 if any does.  Runs are deterministic in the seeds (the
    `scripts/check.sh` HA gate double-runs the JSON output).
    """
    scenarios = args.scenario or list(HA_SCENARIOS)
    unknown = [s for s in scenarios if s not in HA_SCENARIOS]
    if unknown:
        print(f"ha: unknown scenario(s) {unknown}; "
              f"expected {list(HA_SCENARIOS)}", file=sys.stderr)
        return 2
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]
    concurrency = args.concurrency or args.clients
    report = {
        "target": generated.reference,
        "bandwidth_mbps": args.bandwidth,
        "clients": args.clients,
        "concurrency": concurrency,
        "replicas": args.replicas,
        "strategy": args.strategy,
        "hedging": not args.no_hedging,
        "scenarios": {},
    }
    ok = True
    for scenario in scenarios:
        cluster = HACluster(
            args.clients, **_ha_scenario_kwargs(scenario, args)
        )
        publish_images(cluster.registry_testbed, [generated], convert=True)
        cluster.registry_testbed.arm_faults()
        wave = cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=concurrency,
        )
        ok = ok and wave.degraded == 0
        report["scenarios"][scenario] = wave.as_dict()
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if ok else 1
    print(
        f"HA sweep of {generated.reference}: {args.clients} clients, "
        f"{concurrency} concurrent, {args.replicas} replicas "
        f"@ {args.bandwidth:g} Mbps ({args.strategy}, "
        f"hedging {'off' if args.no_hedging else 'on'})"
    )
    print(
        format_table(
            ["Scenario", "p50 (s)", "p99 (s)", "Hedge rate", "Failovers",
             "Sheds", "Trips", "Demoted", "Degraded"],
            [
                (
                    scenario,
                    f"{wave['p50_s']:.2f}",
                    f"{wave['p99_s']:.2f}",
                    pct(wave["hedge_rate"]),
                    str(wave["failovers"]),
                    str(wave["sheds"]),
                    str(wave["breaker_trips"]),
                    str(wave["demotions"]),
                    str(wave["degraded"]),
                )
                for scenario, wave in report["scenarios"].items()
            ],
        )
    )
    return 0 if ok else 1


EDGE_SCENARIOS = ("quiet", "churn", "byzantine", "churn+byzantine")


def _edge_scenario_kwargs(scenario: str, args) -> dict:
    """EdgeCluster construction kwargs for one named scenario."""
    kwargs = {
        "bandwidth_mbps": args.bandwidth,
        "lan_mbps": args.lan_bandwidth,
        "sites": args.sites,
        "gossip_interval_s": args.gossip_interval,
        "seed": f"cli-edge-{args.edge_seed}",
    }
    if "churn" in scenario:
        kwargs["churn_rate_per_s"] = args.churn_rate
        kwargs["churn_horizon_s"] = args.churn_horizon
    if "byzantine" in scenario:
        # One corrupt-serving peer in the first wave batch, so it holds
        # files early and gets selected by later batches.
        kwargs["byzantine"] = (min(1, args.clients - 1),)
    if scenario == "churn+byzantine":
        # The full adversity menu adds one peer crash mid-serve.
        kwargs["crash_node"] = 0
        kwargs["crash_op_index"] = 0
    return kwargs


def _edge_deploy_sequence(testbed, images) -> dict:
    """Deploy each image in order on one client; exact-valued record.

    Used by the ``--equivalence`` gate: every field (virtual times, wire
    bytes, container digests) must match bit-for-bit between the
    single-tier testbed and a peer-less edge node.
    """
    record = {"total_s": [], "network_bytes": [], "fs_digests": []}
    for generated in images:
        result = deploy_with_gear(testbed, generated)
        container = testbed.gear_driver.containers()[-1]
        record["total_s"].append(result.total_s)
        record["network_bytes"].append(result.network_bytes)
        record["fs_digests"].append(container_fs_digest(container))
    return record


def cmd_edge_equivalence(args) -> int:
    """Zero-churn equivalence gate: edge chain == single-tier registry.

    With no peers holding a file and an empty site cache, the edge
    failover chain must degenerate to exactly the single-tier registry
    call — tracker and site-cache bookkeeping charge zero virtual time
    and zero wire bytes.  Deploys a version series on both topologies and
    compares times, bytes, and container digests exactly.
    """
    corpus = _corpus(args, series=(args.target,))
    images = corpus.by_series[args.target]

    control_bed = make_testbed(bandwidth_mbps=args.bandwidth)
    publish_images(control_bed, images, convert=True)
    control = _edge_deploy_sequence(control_bed.fresh_client(), images)

    edge_bed = make_edge_testbed(
        bandwidth_mbps=args.bandwidth,
        lan_mbps=args.lan_bandwidth,
        sites=args.sites,
        gossip_interval_s=args.gossip_interval,
        seed=f"cli-edge-{args.edge_seed}",
    )
    publish_images(edge_bed, images, convert=True)
    edge = _edge_deploy_sequence(edge_bed.edge.client(), images)

    identical = control == edge
    report = {
        "target": args.target,
        "versions": len(images),
        "bandwidth_mbps": args.bandwidth,
        "identical": identical,
        "control": control,
        "edge": edge,
        "edge_stats": edge_bed.edge.stats.as_dict(),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        verdict = "identical" if identical else "DIVERGED"
        print(
            f"edge equivalence on {args.target} x{len(images)}: {verdict} "
            f"(control p50 {percentile(control['total_s'], 50):.3f}s)"
        )
    return 0 if identical else 1


def cmd_edge(args) -> int:
    """Edge/P2P scenario sweep: fleet deploys through peer-serving sites.

    Every scenario must complete all deploys with zero degraded
    fallbacks and zero integrity violations (no poisoned bytes in any
    pool or site cache); byzantine scenarios must additionally blacklist
    the corrupt peer.  Exit code 1 on any violation.  Runs are
    deterministic in the seeds (the `scripts/check.sh` edge gate
    double-runs the JSON output).
    """
    if args.equivalence:
        return cmd_edge_equivalence(args)
    scenarios = args.scenario or list(EDGE_SCENARIOS)
    unknown = [s for s in scenarios if s not in EDGE_SCENARIOS]
    if unknown:
        print(f"edge: unknown scenario(s) {unknown}; "
              f"expected {list(EDGE_SCENARIOS)}", file=sys.stderr)
        return 2
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]
    concurrency = args.concurrency or max(1, args.clients // 4)
    report = {
        "target": generated.reference,
        "bandwidth_mbps": args.bandwidth,
        "lan_mbps": args.lan_bandwidth,
        "clients": args.clients,
        "concurrency": concurrency,
        "sites": args.sites,
        "scenarios": {},
    }
    ok = True
    for scenario in scenarios:
        cluster = EdgeCluster(
            args.clients, **_edge_scenario_kwargs(scenario, args)
        )
        publish_images(cluster.registry_testbed, [generated], convert=True)
        wave = cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=concurrency,
        )
        violations = cluster.fabric.audit_integrity()
        summary = wave.as_dict()
        summary["integrity_violations"] = len(violations)
        scenario_ok = wave.degraded == 0 and not violations
        if "byzantine" in scenario:
            scenario_ok = scenario_ok and wave.blacklists >= 1
        ok = ok and scenario_ok
        report["scenarios"][scenario] = summary
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if ok else 1
    print(
        f"Edge sweep of {generated.reference}: {args.clients} clients, "
        f"{concurrency} concurrent, {args.sites} site(s), "
        f"WAN {args.bandwidth:g} Mbps / LAN {args.lan_bandwidth:g} Mbps"
    )
    print(
        format_table(
            ["Scenario", "p50 (s)", "p99 (s)", "Peer hits", "Offload",
             "Stale", "Blacklists", "Crashes", "Degraded", "Violations"],
            [
                (
                    scenario,
                    f"{wave['p50_s']:.2f}",
                    f"{wave['p99_s']:.2f}",
                    str(wave["peer_hits"]),
                    pct(wave["offload_rate"]),
                    str(wave["stale_resolutions"]),
                    str(wave["blacklists"]),
                    str(wave["peer_crashes"]),
                    str(wave["degraded"]),
                    str(wave["integrity_violations"]),
                )
                for scenario, wave in report["scenarios"].items()
            ],
        )
    )
    return 0 if ok else 1


FAAS_SCENARIOS = ("steady", "spike", "spike+outage", "spike+byzantine")


def _faas_bursts(scenario: str, args) -> tuple:
    if "spike" not in scenario:
        return ()
    return (BurstWindow(args.spike_start, args.spike_len, args.spike_factor),)


def _faas_testbed_kwargs(scenario: str, args) -> dict:
    """make_faas_testbed kwargs for one named scenario."""
    kwargs = {
        "bandwidth_mbps": args.bandwidth,
        "tier_mbps": args.tier_bandwidth,
        "tier_capacity_bytes": args.tier_capacity or None,
        "tier_ttl_s": args.tier_ttl or None,
        "tier_admission_capacity": args.admission or None,
        "ha_replicas": args.replicas,
        "seed": f"cli-faas-{args.faas_seed}",
    }
    if "outage" in scenario:
        # Mid-spike shared-tier outage: the window sits inside the burst,
        # scoped to the tier pseudo-endpoint so the registry stays up.
        kwargs["tier_fault_plan"] = FaultPlan(
            seed=f"cli-faas-{args.faas_seed}",
            outages=(OutageWindow(
                start_s=args.outage_start, duration_s=args.outage_len
            ),),
            targets=(FAAS_TIER_ENDPOINT,),
        )
    return kwargs


def _faas_control_digests(args, corpus) -> dict:
    """Fault-free registry-only control: reference → container fs digest.

    The byte-identical acceptance bar: every cold start in every
    scenario must produce exactly these filesystems, no matter which
    tier served the bytes.
    """
    control_bed = make_testbed(bandwidth_mbps=args.bandwidth)
    publish_images(control_bed, corpus.images, convert=True)
    client = control_bed.fresh_client()
    digests = {}
    for generated in corpus.images:
        deploy_with_gear(client, generated)
        container = client.gear_driver.containers()[-1]
        digests[generated.reference] = container_fs_digest(container)
    return digests


def cmd_faas(args) -> int:
    """Serverless invocation-spike sweep over the three-tier cache chain.

    Every scenario must complete every invocation (zero failures, zero
    degraded fallbacks), produce container filesystems byte-identical to
    the fault-free registry-only control, keep stampede suppression
    intact (zero duplicate upstream fetches), and leave no poisoned
    bytes in any pool or the tier cache; byzantine scenarios must
    additionally demote the tier.  Exit code 1 on any violation.  Runs
    are deterministic in the seeds (the ``scripts/check.sh`` faas gate
    double-runs the JSON output).
    """
    scenarios = args.scenario or list(FAAS_SCENARIOS)
    unknown = [s for s in scenarios if s not in FAAS_SCENARIOS]
    if unknown:
        print(f"faas: unknown scenario(s) {unknown}; "
              f"expected {list(FAAS_SCENARIOS)}", file=sys.stderr)
        return 2
    corpus = _corpus(args)
    control = _faas_control_digests(args, corpus)
    report = {
        "images": len(corpus.images),
        "functions": args.functions,
        "nodes": args.nodes,
        "duration_s": args.duration,
        "rate_per_s": args.rate,
        "bandwidth_mbps": args.bandwidth,
        "tier_mbps": args.tier_bandwidth,
        "replicas": args.replicas,
        "scenarios": {},
    }
    ok = True
    for scenario in scenarios:
        bed = make_faas_testbed(**_faas_testbed_kwargs(scenario, args))
        publish_images(bed, corpus.images, convert=True)
        if "byzantine" in scenario:
            bed.faas.tier.byzantine = True
        platform = FaasPlatform(
            bed,
            bed.faas,
            nodes=args.nodes,
            keep_warm_s=args.keep_warm or None,
            seed=f"cli-faas-{args.faas_seed}",
        )
        stream = ScheduleBuilder(
            corpus, seed=f"cli-faas-{args.faas_seed}"
        ).invocation_stream(
            duration_s=args.duration,
            rate_per_s=args.rate,
            functions=args.functions,
            skew=args.skew,
            bursts=_faas_bursts(scenario, args),
        )
        run = platform.run(stream)
        violations = bed.faas.audit_integrity()
        mismatches = sum(
            1
            for reference, digest in run.fs_digests.items()
            if control.get(reference) != digest
        )
        summary = run.as_dict()
        del summary["fs_digests"]  # bulky; the control check distills it
        summary["integrity_violations"] = len(violations)
        summary["control_mismatches"] = mismatches
        scenario_ok = (
            run.failures == 0
            and run.degraded == 0
            and run.digest_conflicts == 0
            and mismatches == 0
            and summary["fabric"]["duplicate_upstream_fetches"] == 0
            and not violations
        )
        if "byzantine" in scenario:
            scenario_ok = scenario_ok and summary["fabric"]["demotions"] >= 1
        summary["ok"] = scenario_ok
        ok = ok and scenario_ok
        report["scenarios"][scenario] = summary
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if ok else 1
    print(
        f"FaaS sweep: {args.functions} functions over {len(corpus.images)} "
        f"images, {args.nodes} nodes, {args.rate:g}/s for {args.duration:g}s "
        f"(spike x{args.spike_factor:g} at {args.spike_start:g}s)"
    )
    print(
        format_table(
            ["Scenario", "Cold", "Warm", "p50 cold (s)", "p99.9 cold (s)",
             "Sheds", "Coalesced", "Fallbacks", "Saved MB", "Fail", "OK"],
            [
                (
                    scenario,
                    str(s["cold_starts"]),
                    str(s["warm_starts"]),
                    f"{s['cold_p50_s']:.2f}",
                    f"{s['cold_p999_s']:.2f}",
                    str(s["fabric"]["tier_sheds"]),
                    str(s["fabric"]["tier_coalesced"]),
                    str(s["fabric"]["registry_fallbacks"]),
                    f"{s['fabric']['egress_saved_bytes'] / 1e6:.2f}",
                    str(s["failures"]),
                    "yes" if s["ok"] else "NO",
                )
                for scenario, s in report["scenarios"].items()
            ],
        )
    )
    return 0 if ok else 1


SLO_SCENARIOS = ("fleet", "edge", "faas", "prefetch")

#: Declarative objectives per scenario.  Latency thresholds are generous
#: — this gate certifies the readiness plumbing, burn-rate evaluation,
#: and determinism, not paper numbers — but ``degraded`` and
#: ``poisoned_commits`` are exact zeros: no objective may be met by
#: silently falling back or committing bad bytes.
SLO_OBJECTIVES = {
    "fleet": (
        Objective("ready_p99_s", 300.0, series="ready_s",
                  window_s=5.0, budget=0.5),
        Objective("deploy_p99_s", 400.0),
        Objective("degraded", 0.0, comparator="=="),
        Objective("poisoned_commits", 0.0, comparator="=="),
    ),
    "edge": (
        Objective("ready_p99_s", 300.0, series="ready_s",
                  window_s=5.0, budget=0.5),
        Objective("deploy_p99_s", 400.0),
        Objective("degraded", 0.0, comparator="=="),
        Objective("poisoned_commits", 0.0, comparator="=="),
    ),
    "faas": (
        Objective("ready_p99_s", 120.0, series="cold_ready_s",
                  window_s=2.0, budget=0.5),
        Objective("deploy_p99_s", 180.0),
        Objective("degraded", 0.0, comparator="=="),
        Objective("poisoned_commits", 0.0, comparator="=="),
    ),
    "prefetch": (
        Objective("ready_over_pull", 1.0),
        Objective("degraded", 0.0, comparator="=="),
        Objective("poisoned_commits", 0.0, comparator="=="),
    ),
}


def _slo_fleet(args, seed: str):
    """Fleet wave under Gear with the timeline sampler attached."""
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]
    cluster = Cluster(args.clients, bandwidth_mbps=args.bandwidth)
    publish_images(cluster.registry_testbed, [generated], convert=True)
    sampler = make_timeline_sampler(
        cluster.registry_testbed, period_s=0.5, seed=f"{seed}-fleet"
    )
    degraded_total = [0]

    def action(node):
        result = deploy_with_gear(node.testbed, generated, clear_cache=True)
        if result.degraded:
            degraded_total[0] += 1
        return result

    wave = cluster.deploy_wave(action, sampler=sampler)
    poisoned = sum(
        _pool_audit(node.testbed.gear_driver.pool) for node in cluster.nodes
    )
    observed = {
        "ready_p99_s": wave.ready_p99_s,
        "deploy_p99_s": wave.p99_s,
        "degraded": float(degraded_total[0]),
        "poisoned_commits": float(poisoned),
    }
    return observed, sampler, {"wave": wave.as_dict()}


def _slo_edge(args, seed: str):
    """Edge wave: peer-served Gear deploys, LAN probes sampled."""
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]
    cluster = EdgeCluster(
        args.clients,
        bandwidth_mbps=args.bandwidth,
        sites=2,
        seed=f"{seed}-edge",
    )
    publish_images(cluster.registry_testbed, [generated], convert=True)
    sampler = make_timeline_sampler(
        cluster.registry_testbed, period_s=0.5, seed=f"{seed}-edge"
    )
    wave = cluster.deploy_wave(
        lambda node: deploy_with_gear(node.testbed, generated, clear_cache=True),
        sampler=sampler,
    )
    violations = cluster.fabric.audit_integrity()
    observed = {
        "ready_p99_s": wave.ready_p99_s,
        "deploy_p99_s": wave.p99_s,
        "degraded": float(wave.degraded),
        "poisoned_commits": float(len(violations)),
    }
    return observed, sampler, {"wave": wave.as_dict()}


def _slo_faas(args, seed: str):
    """FaaS invocation stream with cold-start readiness sampled."""
    corpus = _corpus(args)
    bed = make_faas_testbed(
        bandwidth_mbps=args.bandwidth, seed=f"{seed}-faas"
    )
    publish_images(bed, corpus.images, convert=True)
    platform = FaasPlatform(bed, bed.faas, nodes=2, seed=f"{seed}-faas")
    stream = ScheduleBuilder(corpus, seed=f"{seed}-faas").invocation_stream(
        duration_s=6.0, rate_per_s=3.0, functions=10, skew=1.1
    )
    sampler = make_timeline_sampler(bed, period_s=0.5, seed=f"{seed}-faas")
    run = platform.run(stream, sampler=sampler)
    violations = bed.faas.audit_integrity()
    observed = {
        "ready_p99_s": run.cold_ready_p99_s,
        "deploy_p99_s": run.cold_p99_s,
        "degraded": float(run.degraded + run.failures),
        "poisoned_commits": float(len(violations)),
    }
    summary = run.as_dict()
    del summary["fs_digests"]  # bulky; integrity audit distills it
    return observed, sampler, {"run": summary}


def _slo_prefetch(args, seed: str):
    """Overlapped prefetch judged against readiness, not pull-complete.

    The SOCI-style claim: with a recorded startup profile streaming in
    while the task runs, the service is *ready* before a full
    docker-style image pull would even complete.  ``ready_over_pull``
    is overlapped-Gear time-to-ready over Docker pull-complete time —
    the objective holds at ``<= 1.0`` and the scenario additionally
    requires a strict win.
    """
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]
    # Slow wire so fetch latency dominates and the overlap is visible:
    # the full pull scales with the whole image while readiness scales
    # with the startup read set, so the win widens as the wire slows
    # (at 60 Mbps the race is a coin flip; at 30 Mbps it is decisive).
    testbed = make_testbed(bandwidth_mbps=min(args.bandwidth, 30.0))
    publish_images(testbed, corpus.images, convert=True)
    warm = testbed.fresh_client()
    deploy_with_gear(warm, generated)
    recorder = TraceRecorder()
    recorder.record(
        generated.gear_reference, warm.gear_driver.containers()[-1].mount
    )
    docker = deploy_with_docker(testbed.fresh_client(), generated)
    client = testbed.fresh_client()
    overlapped = deploy_with_gear_overlapped(
        client, generated, recorder, clear_cache=True
    )
    observed = {
        "ready_over_pull": overlapped.ready_s / docker.pull_s,
        "degraded": float(overlapped.degraded),
        "poisoned_commits": float(_pool_audit(client.gear_driver.pool)),
    }
    extras = {
        "prefetch": {
            "overlapped_ready_s": overlapped.ready_s,
            "overlapped_total_s": overlapped.total_s,
            "docker_pull_s": docker.pull_s,
            "docker_total_s": docker.total_s,
            "strict_win": overlapped.ready_s < docker.pull_s,
        }
    }
    return observed, None, extras


_SLO_RUNNERS = {
    "fleet": _slo_fleet,
    "edge": _slo_edge,
    "faas": _slo_faas,
    "prefetch": _slo_prefetch,
}


def _slo_scenario_payload(scenario: str, args, seed: str):
    """One scenario run → (JSON-ready payload, objectives-met flag)."""
    observed, sampler, extras = _SLO_RUNNERS[scenario](args, seed)
    report = evaluate(SLO_OBJECTIVES[scenario], observed, sampler=sampler)
    payload = {"observed": observed, "slo": report.as_dict()}
    if sampler is not None:
        payload["timeline"] = sampler.as_dict()
    payload.update(extras)
    ok = report.ok
    if scenario == "prefetch":
        ok = ok and extras["prefetch"]["strict_win"]
    return payload, ok


def cmd_slo(args) -> int:
    """Readiness-aware SLO gate across the wave scenario matrix.

    Every scenario runs *twice* with identical seeds; the two payloads
    (observed values, burn rates, the full sampled timeline) must be
    byte-identical under canonical JSON — a drift means the sampler or
    the readiness plumbing perturbed the simulation.  Exit code 1 on
    any violated objective or any nondeterministic replay.
    """
    scenarios = args.scenario or list(SLO_SCENARIOS)
    unknown = [s for s in scenarios if s not in SLO_SCENARIOS]
    if unknown:
        print(f"slo: unknown scenario(s) {unknown}; "
              f"expected {list(SLO_SCENARIOS)}", file=sys.stderr)
        return 2
    seed = f"cli-slo-{args.slo_seed}"
    report = {
        "clients": args.clients,
        "bandwidth_mbps": args.bandwidth,
        "slo_seed": args.slo_seed,
        "scenarios": {},
    }
    ok = True
    for scenario in scenarios:
        payload, objectives_ok = _slo_scenario_payload(scenario, args, seed)
        replay, _ = _slo_scenario_payload(scenario, args, seed)
        deterministic = dump_json(payload) == dump_json(replay)
        payload["deterministic"] = deterministic
        payload["ok"] = objectives_ok and deterministic
        ok = ok and payload["ok"]
        report["scenarios"][scenario] = payload
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if ok else 1
    print(
        f"SLO gate: {args.clients} clients @ {args.bandwidth:g} Mbps "
        f"(seed {args.slo_seed}); every scenario double-run"
    )
    rows = []
    for scenario, payload in report["scenarios"].items():
        slo = payload["slo"]
        burn = max(
            (o["burn_rate"] for o in slo["objectives"]), default=0.0
        )
        ready = payload["observed"].get("ready_p99_s")
        rows.append((
            scenario,
            "-" if ready is None else f"{ready:.2f}",
            f"{burn:.2f}",
            ",".join(slo["violated"]) or "-",
            "yes" if payload["deterministic"] else "NO",
            "yes" if payload["ok"] else "NO",
        ))
    print(format_table(
        ["Scenario", "Ready p99 (s)", "Max burn", "Violated",
         "Deterministic", "OK"],
        rows,
    ))
    return 0 if ok else 1


#: Coverage floor for the single-deploy trace gate: the span tree must
#: account for at least this fraction of the deploy makespan.
TRACE_COVERAGE_FLOOR = 0.95
#: Float tolerance when checking phase totals against the deploy total.
TRACE_SUM_TOLERANCE = 1e-6


def cmd_trace(args) -> int:
    """Telemetry run: trace a Gear deployment and analyse its makespan.

    Single-client mode (the default) deploys one image with the span
    tracer attached and gates on instrumentation quality: the span tree
    must cover >= 95% of the deploy makespan and the per-phase exclusive
    times must sum to the deploy total within float tolerance (exit 1
    otherwise).  ``--clients N`` runs a concurrent fleet wave instead;
    the client spans live on spawned tracks there, so the wave root's
    attribution is reported but not gated.

    ``--out-dir`` writes ``trace.json`` (Chrome ``trace_event``, loads
    in Perfetto / chrome://tracing) and ``metrics.json`` (the flat
    registry snapshot).  Both files are canonical JSON: two runs with
    the same seed are byte-identical (the `scripts/check.sh`
    trace-determinism gate diffs them).
    """
    corpus = _corpus(args, series=(args.target,))
    generated = corpus.by_series[args.target][0]
    wave_mode = args.clients > 1
    if wave_mode:
        cluster = Cluster(args.clients, bandwidth_mbps=args.bandwidth)
        testbed = cluster.registry_testbed
        publish_images(testbed, [generated], convert=True)
        tracer = testbed.attach_tracer()
        concurrency = args.concurrency or args.clients
        cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=concurrency,
        )
        root = "wave"
        deploy_total_s = None
    else:
        testbed = make_testbed(bandwidth_mbps=args.bandwidth)
        publish_images(testbed, [generated], convert=True)
        tracer = testbed.attach_tracer()
        result = deploy_with_gear(testbed, generated)
        root = "deploy"
        deploy_total_s = result.total_s

    path = critical_path(tracer, root=root)
    if path is None:
        print(f"trace: no finished {root!r} span recorded", file=sys.stderr)
        return 1

    ok = True
    problems = []
    if not wave_mode:
        if path.coverage < TRACE_COVERAGE_FLOOR:
            ok = False
            problems.append(
                f"coverage {path.coverage:.3f} < {TRACE_COVERAGE_FLOOR}"
            )
        if abs(path.phase_sum() - path.total_s) > TRACE_SUM_TOLERANCE:
            ok = False
            problems.append(
                f"phase sum {path.phase_sum():.9f} != total {path.total_s:.9f}"
            )
        if (
            deploy_total_s is not None
            and abs(path.total_s - deploy_total_s) > TRACE_SUM_TOLERANCE
        ):
            ok = False
            problems.append(
                f"span total {path.total_s:.9f} != "
                f"deploy total {deploy_total_s:.9f}"
            )

    written = {}
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        trace_path = os.path.join(args.out_dir, "trace.json")
        with open(trace_path, "w") as handle:
            handle.write(trace_json(tracer))
        written["trace"] = trace_path
        if testbed.metrics is not None:
            metrics_path = os.path.join(args.out_dir, "metrics.json")
            with open(metrics_path, "w") as handle:
                handle.write(dump_json(metrics_snapshot(testbed.metrics)))
            written["metrics"] = metrics_path

    if args.json:
        report = {
            "target": generated.reference,
            "bandwidth_mbps": args.bandwidth,
            "mode": "wave" if wave_mode else "single",
            "root": path.root_name,
            "total_s": path.total_s,
            "coverage": path.coverage,
            "phases": path.phases,
            "phase_counts": path.phase_counts,
            "phase_sum_s": path.phase_sum(),
            "concurrent_s": path.concurrent_s,
            "chain": [
                {"name": s.name, "duration_s": s.duration_s, "share": s.share}
                for s in path.chain
            ],
            "spans": len(tracer.finished_spans()),
            "ok": ok,
        }
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            f"traced gear deploy of {generated.reference} "
            f"@ {args.bandwidth:g} Mbps "
            f"({len(tracer.finished_spans())} spans)"
        )
        print(format_report(path))
        for key, dest in written.items():
            print(f"wrote {key}: {dest}")
        for problem in problems:
            print(f"trace gate FAILED: {problem}", file=sys.stderr)
    return 0 if ok else 1


def cmd_perf(args) -> int:
    """Simulator throughput check: microflows + a small deploy wave.

    Runs the canonical speed scenarios from :mod:`repro.bench.speed`,
    prints the events/sec table, and gates on two invariants (exit 1 on
    either failing):

    * **cross-mode equivalence** — generator and thread execution of the
      microflows scenario must report identical deterministic fields
      (events, virtual seconds, simulated bytes);
    * **double-run determinism** — re-running each scenario must replay
      those fields byte-identically.

    ``--json`` emits only the deterministic fields (plus the recorded
    pre-refactor baseline), so the output is artifact-stable; wall-clock
    throughput goes to the human-readable table alone.
    """
    from repro.bench.speed import (
        BASELINE_MICROFLOW_EVENTS_PER_S,
        run_deploy_wave,
        run_microflows,
    )

    reports = {
        ("microflows", mode): run_microflows(args.clients, args.transfers,
                                             mode=mode,
                                             bandwidth_mbps=args.bandwidth)
        for mode in ("thread", "gen")
    }
    reports[("deploy_wave", "thread")] = run_deploy_wave(
        args.wave_clients, scale=args.scale, seed=args.seed
    )

    ok = True
    problems = []
    gen = reports[("microflows", "gen")].deterministic()
    thread = reports[("microflows", "thread")].deterministic()
    gen.pop("mode"), thread.pop("mode")
    if gen != thread:
        ok = False
        problems.append(f"cross-mode drift: gen={gen} thread={thread}")
    for (scenario, mode), report in list(reports.items()):
        if scenario == "microflows":
            again = run_microflows(args.clients, args.transfers, mode=mode,
                                   bandwidth_mbps=args.bandwidth)
        else:
            again = run_deploy_wave(args.wave_clients, scale=args.scale,
                                    seed=args.seed)
        if again.deterministic() != report.deterministic():
            ok = False
            problems.append(
                f"double-run drift in {scenario}/{mode}: "
                f"{again.deterministic()} != {report.deterministic()}"
            )

    if args.json:
        payload = {
            "scenarios": [
                report.deterministic() for report in reports.values()
            ],
            "baseline_microflow_events_per_s": BASELINE_MICROFLOW_EVENTS_PER_S,
            "ok": ok,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"simulator throughput — microflows {args.clients}x"
            f"{args.transfers} @ {args.bandwidth:g} Mbps, "
            f"deploy wave {args.wave_clients} clients"
        )
        print(
            format_table(
                ["Scenario", "Mode", "Events", "Virtual (s)", "Sim MB",
                 "Wall (s)", "Events/s"],
                [
                    (
                        scenario,
                        mode,
                        str(r.events),
                        f"{r.virtual_s:.3f}",
                        f"{r.simulated_bytes / 1e6:.1f}",
                        f"{r.wall_s:.3f}",
                        f"{r.events_per_s:,.0f}",
                    )
                    for (scenario, mode), r in reports.items()
                ],
            )
        )
        speedup = (
            reports[("microflows", "gen")].events_per_s
            / BASELINE_MICROFLOW_EVENTS_PER_S
        )
        print(
            f"gen-mode microflows: {speedup:.1f}x the recorded "
            f"pre-refactor baseline "
            f"({BASELINE_MICROFLOW_EVENTS_PER_S:,.0f} ev/s)"
        )
        for problem in problems:
            print(f"perf gate FAILED: {problem}", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (shared options on every command)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=7)
    common.add_argument(
        "--scale", type=float, default=0.4,
        help="file-count/size scale of the synthetic corpus",
    )
    common.add_argument("--versions", type=int, default=6,
                        help="versions per series")
    common.add_argument(
        "--series", nargs="*", default=["nginx", "tomcat"],
        help="series to generate (default: nginx tomcat)",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gear (ICDCS 2021) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("catalog", parents=[common],
                   help="list the Table I series catalog")
    sub.add_parser("demo", parents=[common],
                   help="build -> convert -> lazy deploy walkthrough")
    sub.add_parser("dedup", parents=[common], help="Table II dedup study")
    sub.add_parser("storage", parents=[common],
                   help="Docker vs Gear registry footprint")
    deploy = sub.add_parser("deploy", parents=[common],
                            help="deploy a series under all systems")
    deploy.add_argument("--target", default="nginx")
    deploy.add_argument("--bandwidth", type=float, default=100.0)
    fleet = deploy.add_argument_group(
        "fleet contention",
        "deploy one image from N clients at once; transfers fair-share "
        "the registry uplink and the report carries latency percentiles",
    )
    fleet.add_argument("--clients", type=int, default=1,
                       help="number of client nodes (1 = classic mode)")
    fleet.add_argument("--concurrency", type=int, default=0,
                       help="clients deploying simultaneously per wave "
                            "(default: all of them)")
    fleet.add_argument("--json", action="store_true",
                       help="emit the fleet report as one JSON line")
    faults = deploy.add_argument_group(
        "fault injection",
        "deterministic wire faults (off by default; any flag enables "
        "the FaultyLink + default RetryPolicy)",
    )
    faults.add_argument("--drop-rate", type=float, default=0.0,
                        help="probability a transfer is lost (timeout)")
    faults.add_argument("--corrupt-rate", type=float, default=0.0,
                        help="probability a response payload is corrupted")
    faults.add_argument("--outage-start", type=float, default=0.0,
                        help="outage start, seconds after deployment begins")
    faults.add_argument("--outage-len", type=float, default=0.0,
                        help="outage duration in seconds (0 = no outage)")
    faults.add_argument("--fault-seed", default="0",
                        help="seed token for the fault decision stream")
    faults.add_argument(
        "--fault-target", nargs="*", default=["gear-registry"],
        help="endpoint names the plan applies to (empty = all traffic)",
    )
    crash = sub.add_parser(
        "crash", parents=[common],
        help="crash/fsck/resume sweep over every crash point",
    )
    crash.add_argument("--target", default="nginx")
    crash.add_argument("--bandwidth", type=float, default=100.0)
    crash.add_argument("--crash-seed", default="0",
                       help="seed token for the crash-instant draw")
    crash.add_argument(
        "--crash-op", type=int, default=-1,
        help="explicit occurrence index of the crash point "
             "(-1 = deterministic seeded draw)",
    )
    crash.add_argument("--json", action="store_true",
                       help="emit the sweep report as one JSON line")
    chunks = sub.add_parser(
        "chunks", parents=[common],
        help="chunk-granular big-file read sweep under fault scenarios",
    )
    chunks.add_argument("--bandwidth", type=float, default=904.0)
    chunks.add_argument("--clients", type=int, default=32,
                        help="concurrent range readers in the wave")
    chunks.add_argument("--big-mib", type=int, default=8,
                        help="model-file size in MiB (128 KiB chunks)")
    chunks.add_argument(
        "--scenario", nargs="*", default=None,
        help=f"scenarios to run (default: all of {list(CHUNK_SCENARIOS)})",
    )
    chunks.add_argument("--chunk-seed", default="7",
                        help="seed token for the fault, retry-jitter, and "
                             "crash streams")
    chunks.add_argument(
        "--crash-op", type=int, default=-1,
        help="explicit chunk index for the mid-fetch crash "
             "(-1 = deterministic seeded draw)",
    )
    chunks.add_argument("--json", action="store_true",
                        help="emit the sweep report as one JSON line")
    ha = sub.add_parser(
        "ha", parents=[common],
        help="highly-available registry sweep under fault scenarios",
    )
    ha.add_argument("--target", default="nginx")
    ha.add_argument("--bandwidth", type=float, default=904.0)
    ha.add_argument("--clients", type=int, default=8,
                    help="number of client nodes in the fleet")
    ha.add_argument("--concurrency", type=int, default=0,
                    help="clients deploying simultaneously per wave "
                         "(default: all of them)")
    ha.add_argument("--replicas", type=int, default=3,
                    help="Gear registry replicas")
    ha.add_argument("--strategy", default="primary-first",
                    choices=["primary-first", "least-loaded", "p2c"],
                    help="replica selection strategy")
    ha.add_argument("--no-hedging", action="store_true",
                    help="disable hedged second fetches")
    ha.add_argument("--admission", type=int, default=2,
                    help="per-replica admission capacity in the "
                         "overload scenario")
    ha.add_argument(
        "--scenario", nargs="*", default=None,
        help=f"scenarios to run (default: all of {list(HA_SCENARIOS)})",
    )
    ha.add_argument("--ha-seed", default="0",
                    help="seed token for replica selection, hedging, "
                         "backoff, and fault streams")
    ha.add_argument("--json", action="store_true",
                    help="emit the sweep report as one JSON line")
    edge = sub.add_parser(
        "edge", parents=[common],
        help="multi-tier edge/P2P sweep under churn/byzantine scenarios",
    )
    edge.add_argument("--target", default="nginx")
    edge.add_argument("--bandwidth", type=float, default=200.0,
                      help="registry WAN uplink in Mbps")
    edge.add_argument("--lan-bandwidth", type=float, default=904.0,
                      help="intra-site LAN bandwidth in Mbps")
    edge.add_argument("--clients", type=int, default=8,
                      help="number of edge nodes in the fleet")
    edge.add_argument("--concurrency", type=int, default=0,
                      help="clients deploying simultaneously per wave "
                           "(default: clients/4, so later batches can "
                           "peer-fetch from earlier ones)")
    edge.add_argument("--sites", type=int, default=1,
                      help="edge sites (nodes join round-robin)")
    edge.add_argument("--gossip-interval", type=float, default=0.25,
                      help="tracker refresh period in virtual seconds")
    edge.add_argument("--churn-rate", type=float, default=2.0,
                      help="join/leave events per virtual second in "
                           "churn scenarios")
    edge.add_argument("--churn-horizon", type=float, default=10.0,
                      help="churn schedule horizon in virtual seconds")
    edge.add_argument(
        "--scenario", nargs="*", default=None,
        help=f"scenarios to run (default: all of {list(EDGE_SCENARIOS)})",
    )
    edge.add_argument("--edge-seed", default="0",
                      help="seed token for peer selection, gossip jitter, "
                           "churn, and crash streams")
    edge.add_argument("--equivalence", action="store_true",
                      help="instead of the sweep, check a peer-less edge "
                           "run is byte- and time-identical to the "
                           "single-tier testbed")
    edge.add_argument("--json", action="store_true",
                      help="emit the report as one JSON line")
    faas = sub.add_parser(
        "faas", parents=[common],
        help="serverless spike sweep over the three-tier cache chain",
    )
    faas.add_argument("--bandwidth", type=float, default=200.0,
                      help="registry WAN uplink in Mbps")
    faas.add_argument("--tier-bandwidth", type=float, default=904.0,
                      help="shared-tier serving bandwidth in Mbps")
    faas.add_argument("--nodes", type=int, default=6,
                      help="FaaS worker nodes (functions hash onto them)")
    faas.add_argument("--functions", type=int, default=40,
                      help="distinct functions (Zipf-popular, images "
                           "assigned round-robin by rank)")
    faas.add_argument("--duration", type=float, default=20.0,
                      help="invocation-stream horizon in virtual seconds")
    faas.add_argument("--rate", type=float, default=6.0,
                      help="baseline Poisson arrival rate per second")
    faas.add_argument("--skew", type=float, default=1.0,
                      help="Zipf popularity skew across functions")
    faas.add_argument("--spike-start", type=float, default=8.0,
                      help="burst window start in virtual seconds")
    faas.add_argument("--spike-len", type=float, default=4.0,
                      help="burst window length in virtual seconds")
    faas.add_argument("--spike-factor", type=float, default=10.0,
                      help="arrival-rate multiplier inside the burst")
    faas.add_argument("--outage-start", type=float, default=9.0,
                      help="shared-tier outage start (mid-spike default)")
    faas.add_argument("--outage-len", type=float, default=2.0,
                      help="shared-tier outage length in virtual seconds")
    faas.add_argument("--tier-capacity", type=int, default=0,
                      help="shared-tier cache capacity in bytes "
                           "(0 = unbounded)")
    faas.add_argument("--tier-ttl", type=float, default=0.0,
                      help="shared-tier entry TTL in virtual seconds "
                           "(0 = no expiry)")
    faas.add_argument("--admission", type=int, default=4,
                      help="tier admission capacity: concurrent upstream "
                           "fills before shedding (0 = unbounded)")
    faas.add_argument("--keep-warm", type=float, default=6.0,
                      help="reap containers idle this many virtual "
                           "seconds (0 = keep forever)")
    faas.add_argument("--replicas", type=int, default=2,
                      help="HA Gear registry replicas behind the tier "
                           "(0 = single registry)")
    faas.add_argument(
        "--scenario", nargs="*", default=None,
        help=f"scenarios to run (default: all of {list(FAAS_SCENARIOS)})",
    )
    faas.add_argument("--faas-seed", default="0",
                      help="seed token for arrivals, placement, backoff, "
                           "and fault streams")
    faas.add_argument("--json", action="store_true",
                      help="emit the sweep report as one JSON line")
    perf = sub.add_parser(
        "perf", parents=[common],
        help="simulator throughput: events/sec on canonical scenarios",
    )
    perf.add_argument("--clients", type=int, default=256,
                      help="microflow clients (1024 = the benchmark shape)")
    perf.add_argument("--transfers", type=int, default=4,
                      help="transfers per microflow client")
    perf.add_argument("--bandwidth", type=float, default=200.0,
                      help="shared microflow link bandwidth in Mbps")
    perf.add_argument("--wave-clients", type=int, default=64,
                      help="clients in the Gear deploy-wave scenario")
    perf.add_argument("--json", action="store_true",
                      help="emit deterministic fields as one JSON line "
                           "(wall-clock throughput is table-only)")
    slo = sub.add_parser(
        "slo", parents=[common],
        help="readiness-aware SLO gate: objectives + burn rates over "
             "fleet/edge/faas/prefetch, double-run for determinism",
    )
    slo.add_argument("--scenario", nargs="*", default=None,
                     help=f"subset of {list(SLO_SCENARIOS)} (default: all)")
    slo.add_argument("--target", default="nginx")
    slo.add_argument("--bandwidth", type=float, default=200.0)
    slo.add_argument("--clients", type=int, default=6,
                     help="fleet/edge wave size")
    slo.add_argument("--slo-seed", type=int, default=1,
                     help="scenario seed (corpus seed stays --seed)")
    slo.add_argument("--json", action="store_true",
                     help="emit the full report (timelines included) as "
                          "one JSON line")
    trace = sub.add_parser(
        "trace", parents=[common],
        help="trace a Gear deployment; critical path + Chrome trace export",
    )
    trace.add_argument("--target", default="nginx")
    trace.add_argument("--bandwidth", type=float, default=100.0)
    trace.add_argument("--clients", type=int, default=1,
                       help="fleet wave mode when > 1 (roots at 'wave')")
    trace.add_argument("--concurrency", type=int, default=0,
                       help="clients deploying simultaneously per wave "
                            "(default: all of them)")
    trace.add_argument("--out-dir", default=None,
                       help="write trace.json + metrics.json here "
                            "(trace.json loads in Perfetto)")
    trace.add_argument("--json", action="store_true",
                       help="emit the critical-path report as one JSON line")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog(args)
    if args.command == "demo":
        return _run_demo()
    if args.command == "dedup":
        return cmd_dedup(args)
    if args.command == "storage":
        return cmd_storage(args)
    if args.command == "deploy":
        return cmd_deploy(args)
    if args.command == "crash":
        return cmd_crash(args)
    if args.command == "chunks":
        return cmd_chunks(args)
    if args.command == "ha":
        return cmd_ha(args)
    if args.command == "edge":
        return cmd_edge(args)
    if args.command == "faas":
        return cmd_faas(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "perf":
        return cmd_perf(args)
    if args.command == "slo":
        return cmd_slo(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
