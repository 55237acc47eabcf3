"""Command-line interface: ``python -m repro.cli <command> [--help]``.

``python -m repro.cli --help`` lists the eleven subcommands, and each
``cmd_*`` docstring below says what its command runs and what makes it
exit nonzero.  Eight of them are *sweeps* — ``paper``, ``deploy
--clients N``, ``crash``, ``chunks``, ``ha``, ``edge``, ``faas``,
``slo`` — which keep only how one cell's world is built and which
invariants it must hold, and hand the cells to :func:`run_sweep` for
reporting, the invariant catalogue and the exit code.
``GATES`` is the one table of smoke invocations that
``scripts/check.sh``, ``benchmarks/artifacts.py`` and
``tests/test_cli.py`` all iterate.

All commands run entirely in-process on the simulated testbed; sizes and
times are virtual but deterministic in ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.bench import paper
from repro.bench.deploy import (
    deploy_with_docker,
    deploy_with_gear,
    deploy_with_gear_overlapped,
    deploy_with_gear_resumable,
)
from repro.bench.deploy import viewer_fs_digest
from repro.bench.environment import (
    FAAS_TIER_MBPS,
    attach_edge,
    make_faas_testbed,
    make_testbed,
    make_timeline_sampler,
    publish_images,
)
from repro.bench.reporting import format_table, pct
from repro.blob import Blob, DEFAULT_CHUNK_SIZE
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import ClientCrash, ReproError
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
from repro.invariants import World, audit, partials_leaked, poisoned_commits
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
from repro.net.ha import STRATEGIES
from repro.net.link import Link
from repro.net.resilience import RetryPolicy
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
    config = CorpusConfig(
        seed=args.seed,
        file_scale=args.scale,
        size_scale=args.scale,
        series_names=series or (tuple(args.series) if args.series else None),
        versions_cap=args.versions,
    )
    try:
        config.selected_series()
    except ReproError as exc:  # a name the Table I catalog does not have
        raise argparse.ArgumentError(None, str(exc)) from None
    return CorpusBuilder(config).build()


def _target_images(args) -> list:
    """Every generated version of the ``--target`` series, oldest first."""
    return _corpus(args, series=(args.target,)).by_series[args.target]


def _dig(cell: dict, path: str):
    """The value at a dotted key ``path`` inside a JSON-ready cell."""
    value = cell
    for key in path.split("."):
        value = value[key]
    return value


def _broken(cell: dict, *, zero=(), nonzero=()) -> dict:
    """The invariants ``cell`` breaks, each with its offending value.

    An invariant is named by the dotted key path of the cell field that
    decides it: ``zero`` fields must hold 0, ``False`` or nothing,
    ``nonzero`` fields anything else.
    """
    broken = {}
    for paths, expected in ((zero, False), (nonzero, True)):
        for path in paths:
            value = _dig(cell, path)
            if bool(value) is not expected:
                broken[path] = value
    return broken


def _yes_no(flag) -> str:
    return "yes" if flag else "NO"


def run_sweep(args, header, group, names, run_cell, title, columns,
              verdict=False) -> int:
    """The one sweep loop behind every scenario matrix.

    ``run_cell(name)`` is called for each of ``names`` in order and
    returns the cell's JSON-ready dict, the invariants it broke
    (:func:`_broken`) and the world it left, which
    :func:`~repro.invariants.audit` adds its broken checks to (``ok`` in
    each cell with ``verdict``).  The report is ``header`` with the cells
    under ``group``; every broken invariant is named on stderr as
    ``<command> <cell>: <invariant>=<value>``; stdout carries the report
    as one canonical JSON line (``--json``), or ``title`` and a table with
    the cell name under ``group``'s singular followed by ``columns``, each
    ``(heading, key path, format)`` with a ``format()`` spec or a callable
    as the format — or, where one row a cell will not do, whatever text
    ``columns(cells)`` renders.  Returns 0 only if no cell broke anything.
    """
    report = {**header, group: {}}
    ok = True
    for name in names:
        cell, broken, world = run_cell(name)
        broken.update(audit(world))
        if verdict:
            cell["ok"] = not broken
        report[group][name] = cell
        for invariant, value in broken.items():
            print(f"{args.command} {name}: {invariant}={value}",
                  file=sys.stderr)
        ok = ok and not broken
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if ok else 1

    def text(cell, path, fmt) -> str:
        value = _dig(cell, path)
        return fmt(value) if callable(fmt) else format(value, fmt)

    print(title)
    if callable(columns):
        print(columns(report[group]))
        return 0 if ok else 1
    print(
        format_table(
            [group[:-1].capitalize(), *(heading for heading, _, _ in columns)],
            [
                (name, *(text(cell, path, fmt) for _, path, fmt in columns))
                for name, cell in report[group].items()
            ],
        )
    )
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    """List the Table I series catalog."""
    rows = [
        (spec.name, spec.category, spec.versions, spec.base_distro or "-")
        for spec in SERIES
    ]
    print(format_table(["Series", "Category", "Versions", "Base"], rows))
    return 0


def cmd_demo(args) -> int:
    """The quickstart flow: build -> convert -> lazy deploy."""
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


def cmd_paper(args) -> int:
    """The paper's own studies on the ``--series`` corpus, one cell each.

    A cell reports its measured numbers, the paper's beside them, and its
    named shape booleans; exit code 1 when any shape invariant is false.
    The calibration thresholds that need full-size images are not checked
    here but against the recorded full-size run
    (``benchmarks/artifacts.py --full``).  Text mode prints each cell's
    measured-vs-paper table, the form EXPERIMENTS.md embeds.
    """
    corpus = _corpus(args)

    def run_cell(name):
        try:
            cell = paper.run(name, corpus)
        except KeyError as exc:  # a series or category the study reads
            raise argparse.ArgumentError(
                None, f"paper {name} needs {exc} in the corpus (--series)"
            ) from None
        return cell, _broken(
            cell, nonzero=[f"shape.{claim}" for claim in cell["shape"]]
        ), World({})

    return run_sweep(
        args,
        {
            "seed": args.seed,
            "scale": args.scale,
            "series": len(corpus.by_series),
            "images": len(corpus.images),
        },
        "cells", args.scenario or paper.STUDIES, run_cell,
        f"paper sweep: {len(corpus.images)} images of "
        f"{len(corpus.by_series)} series (seed {args.seed}, "
        f"scale {args.scale:g})\n",
        paper.render,
    )


def _fault_plan(args) -> "Optional[FaultPlan]":
    """Build the fault plan the deploy flags describe (None = clean wire)."""
    outages = ()
    if args.outage_len > 0:
        outages = (
            OutageWindow(start_s=args.outage_start, duration_s=args.outage_len),
        )
    if not (args.drop_rate or args.corrupt_rate or outages):
        return None
    return FaultPlan(
        seed="cli-0",
        drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        outages=outages,
        targets=("gear-registry",),
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
    generated = _target_images(args)[0]
    concurrency = args.concurrency or args.clients
    actions = {
        "docker": lambda node: deploy_with_docker(node.testbed, generated),
        "gear": lambda node: deploy_with_gear(
            node.testbed, generated, clear_cache=True
        ),
    }

    def run_cell(system):
        cluster = Cluster(args.clients, bandwidth_mbps=args.bandwidth)
        publish_images(cluster.registry_testbed, [generated], convert=True)
        wave = cluster.deploy_wave(actions[system], concurrency=concurrency)
        return wave.as_dict(), {}, World.of(cluster)

    return run_sweep(
        args,
        {
            "target": generated.reference,
            "bandwidth_mbps": args.bandwidth,
            "clients": args.clients,
            "concurrency": concurrency,
        },
        "systems", actions, run_cell,
        f"fleet deploy of {generated.reference}: {args.clients} clients, "
        f"{concurrency} concurrent @ {args.bandwidth:g} Mbps",
        [
            ("p50 (s)", "p50_s", ".2f"),
            ("p95 (s)", "p95_s", ".2f"),
            ("p99 (s)", "p99_s", ".2f"),
            ("Makespan (s)", "makespan_s", ".2f"),
            ("Uplink util", "utilization", pct),
            ("Egress (MB)", "egress_bytes", lambda b: f"{b / 1e6:.1f}"),
        ],
    )


def cmd_deploy(args) -> int:
    """Deploy one series under Docker, Gear, and Slacker."""
    if args.clients > 1 or args.concurrency:
        return _cmd_deploy_fleet(args)
    if args.json:
        print("deploy: --json is only supported with --clients > 1",
              file=sys.stderr)
        return 2
    corpus = _corpus(args, series=(args.target,))
    images = corpus.by_series[args.target]
    plan = _fault_plan(args)
    testbed = make_testbed(bandwidth_mbps=args.bandwidth, fault_plan=plan)
    publish_images(testbed, corpus.images, convert=True)
    testbed.arm_faults()
    rows = []
    # A cold Docker node per version; Gear keeps the testbed's own client.
    for generated, (docker, gear, slk) in zip(images, paper.deploy_versions(
            testbed, images, testbed.fresh_client, testbed)):
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


#: The ``crash`` sweep's wire, in Mbps.
CRASH_MBPS = 100.0


def cmd_crash(args) -> int:
    """Crash-consistency sweep over every instrumented crash point.

    For each point: deploy on a fresh testbed, let the injected crash
    kill the client, fsck the local store, resume, and compare the
    resumed container fs against an uncrashed control run.  Exit code 1
    when any point never crashes, violates resume equivalence, re-fetches
    a file recovery had already committed, or leaves fsck the wrong kind
    of work (a torn partial, intact bytes to promote) for where it died.
    """
    generated = _target_images(args)[0]

    def run_point(plan):
        testbed = make_testbed(bandwidth_mbps=CRASH_MBPS)
        publish_images(testbed, [generated], convert=True)
        out = deploy_with_gear_resumable(testbed, generated, plan)
        return out, World({"client": testbed.gear_driver.pool})

    control, _ = run_point(None)

    def run_cell(point):
        out, world = run_point(CrashPlan(
            point=CrashPoint(point),
            seed=f"cli-{args.crash_seed}",
        ))
        cell = {
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
            "fs_equivalent": out.fs_digest == control.fs_digest,
        }
        zero, nonzero = ["refetched_committed"], ["fs_equivalent", "crashed"]
        if out.crashed:
            # Only a mid-fetch crash leaves a torn partial to drop; after a
            # post-fetch or mid-commit one fsck promotes the intact bytes.
            torn = nonzero if point == CrashPoint.MID_FETCH.value else zero
            torn.append("recovery.torn_dropped")
            if point in (CrashPoint.POST_FETCH.value,
                         CrashPoint.MID_COMMIT.value):
                nonzero.append("recovery.recovered_bytes")
        return cell, _broken(cell, zero=zero, nonzero=nonzero), world

    return run_sweep(
        args,
        {
            "target": generated.reference,
            "bandwidth_mbps": CRASH_MBPS,
            "crash_seed": args.crash_seed,
            "control": {
                "total_s": control.result.total_s,
                "network_bytes": control.result.network_bytes,
                "fs_digest": control.fs_digest,
            },
        },
        "points", [point.value for point in CrashPoint], run_cell,
        f"crash sweep of {generated.reference} @ {CRASH_MBPS:g} Mbps "
        f"(control: {control.result.total_s:.2f} s, "
        f"{control.result.network_bytes} B)",
        [
            ("Died (s)", "crash_at_s", ".3f"),
            ("fsck (s)", "recovery_s", ".4f"),
            ("Resume (s)", "resumed_total_s", ".3f"),
            ("Refetched", "refetched_committed", ""),
            ("Equivalent", "fs_equivalent", _yes_no),
        ],
    )


#: The ``chunks`` sweep's scenarios over the chunk-granular read path.
CHUNK_SCENARIOS = ("clean", "chunk-faults", "crash", "byzantine")
#: The ``chunks`` sweep's wire, in Mbps.
CHUNK_MBPS = 904.0

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
        link = FaultyLink(clock, plan, bandwidth_mbps=CHUNK_MBPS)
    else:
        link = Link(clock, bandwidth_mbps=CHUNK_MBPS)
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

    def run_cell(scenario):
        plan = _chunk_scenario_plan(scenario, args.chunk_seed)
        clock, link, transport, index, pool, journal = _chunk_env(args, plan)
        viewer = _chunk_viewer(transport, index, pool, journal, args)
        identity = index.entries[_CHUNK_BIG_PATH].identity
        world = World({"client": pool})
        cell = {}
        zero = ["duplicate_chunk_fetches"]
        nonzero = ["fs_equivalent", "promoted"]

        if scenario == "crash":
            # Phase 1: a sequential deployment dies mid-chunk.
            injector = CrashInjector(
                clock,
                CrashPlan(
                    point=CrashPoint.MID_FETCH,
                    seed=f"cli-chunks-crash-{args.chunk_seed}",
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
            cell["refetched_verified"] = viewer.chunk_stats.chunks_fetched - (
                total_chunks - salvaged
            )
            zero.append("refetched_verified")
            nonzero.append("crashed")
        else:
            _chunk_wave(clock, viewer, size, args.clients)
        if scenario == "byzantine":
            # The scenario must actually exercise chunk verification.
            nonzero.append("chunk_integrity_failures")

        stats = viewer.chunk_stats
        digest = viewer_fs_digest(viewer)
        cell.update(
            fs_digest=digest,
            fs_equivalent=digest == control_digest,
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
            poisoned_commits=len(poisoned_commits(world)),
            partials_leaked=len(partials_leaked(world)),
            promoted=pool.contains(identity),
        )
        return cell, _broken(cell, zero=zero, nonzero=nonzero), world

    return run_sweep(
        args,
        {
            "bandwidth_mbps": CHUNK_MBPS,
            "clients": args.clients,
            "big_file_bytes": size,
            "total_chunks": total_chunks,
            "chunk_seed": args.chunk_seed,
            "control": {
                "fs_digest": control_digest,
                "network_bytes": control_bytes,
            },
        },
        "scenarios", CHUNK_SCENARIOS, run_cell,
        f"chunks sweep @ {CHUNK_MBPS:g} Mbps, {args.clients} readers, "
        f"{args.big_mib} MiB model ({total_chunks} chunks; control "
        f"{control_bytes} B)",
        [
            ("Fetched", "chunks_fetched", ""),
            ("BadChunks", "chunk_integrity_failures", ""),
            ("Coalesced", "coalesced_waits", ""),
            ("Dup", "duplicate_chunk_fetches", ""),
            ("Poisoned", "poisoned_commits", ""),
            ("Equivalent", "fs_equivalent", _yes_no),
        ],
    )


#: The ``ha`` sweep's fault scenarios; replica 0 is always the afflicted
#: one so primary-first selection exercises the failover machinery.
HA_SCENARIOS = ("healthy", "outage", "brownout", "byzantine", "overload")
#: The ``ha`` sweep's replica links, in Mbps.
HA_MBPS = 904.0


def _ha_scenario_kwargs(scenario: str, args) -> dict:
    """HACluster construction kwargs for one named scenario."""
    kwargs = {
        "replicas": args.replicas,
        "bandwidth_mbps": HA_MBPS,
        "strategy": args.strategy,
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
        kwargs["admission_capacity"] = 2  # concurrent fetches per replica
    return kwargs


def cmd_ha(args) -> int:
    """HA registry sweep: fleet deploys under fault scenarios.

    Replica 0 takes the fault in every scenario; the other replicas stay
    healthy, so no deployment may fall back to degraded Docker mode —
    exit code 1 if any does.  Runs are deterministic in the seeds (the
    ``ha`` row of :data:`GATES` is double-run on that).
    """
    generated = _target_images(args)[0]
    concurrency = args.concurrency or args.clients

    def run_cell(scenario):
        cluster = HACluster(
            args.clients, **_ha_scenario_kwargs(scenario, args)
        )
        publish_images(cluster.registry_testbed, [generated], convert=True)
        cluster.registry_testbed.arm_faults()
        wave = cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=concurrency,
        )
        cell = wave.as_dict()
        return cell, _broken(cell, zero=("degraded",)), World.of(cluster)

    return run_sweep(
        args,
        {
            "target": generated.reference,
            "bandwidth_mbps": HA_MBPS,
            "clients": args.clients,
            "concurrency": concurrency,
            "replicas": args.replicas,
            "strategy": args.strategy,
            "hedging": True,
        },
        "scenarios", args.scenario or HA_SCENARIOS, run_cell,
        f"HA sweep of {generated.reference}: {args.clients} clients, "
        f"{concurrency} concurrent, {args.replicas} replicas "
        f"@ {HA_MBPS:g} Mbps ({args.strategy}, hedging on)",
        [
            ("p50 (s)", "p50_s", ".2f"),
            ("p99 (s)", "p99_s", ".2f"),
            ("Hedge rate", "hedge_rate", pct),
            ("Failovers", "failovers", ""),
            ("Sheds", "sheds", ""),
            ("Trips", "breaker_trips", ""),
            ("Demoted", "demotions", ""),
            ("Degraded", "degraded", ""),
        ],
    )


EDGE_SCENARIOS = ("quiet", "churn", "byzantine", "churn+byzantine")
#: The ``edge`` sweep's intra-site LAN, in Mbps (one site).
EDGE_LAN_MBPS = 904.0


def _edge_scenario_kwargs(scenario: str, args) -> dict:
    """EdgeCluster construction kwargs for one named scenario."""
    kwargs = {
        "bandwidth_mbps": args.bandwidth,
        "lan_mbps": EDGE_LAN_MBPS,
        "seed": f"cli-edge-{args.edge_seed}",
    }
    if "churn" in scenario:
        # Two join/leave events per virtual second over a 10 s horizon.
        kwargs["churn_rate_per_s"] = 2.0
    if "byzantine" in scenario:
        # One corrupt-serving peer in the first wave batch, so it holds
        # files early and gets selected by later batches.
        kwargs["byzantine"] = (min(1, args.clients - 1),)
    if scenario == "churn+byzantine":
        # The full adversity menu adds one peer crash mid-serve.
        kwargs["crash_node"] = 0
    return kwargs


def _control_deploys(client, images) -> dict:
    """Deploy each image in order with Gear on one client; exact-valued
    record, one entry per image in each column.

    The ``edge --equivalence`` gate compares two of these field by field
    (virtual times, wire bytes, container digests must match bit for bit
    between the single-tier testbed and a peer-less edge node); the FaaS
    sweep reads its byte-identity control from the digest column.
    """
    record = {"total_s": [], "network_bytes": [], "fs_digests": []}
    for generated in images:
        result = deploy_with_gear(client, generated)
        container = client.gear_driver.containers()[-1]
        record["total_s"].append(result.total_s)
        record["network_bytes"].append(result.network_bytes)
        record["fs_digests"].append(container.mount.fs_digest())
    return record


def cmd_edge_equivalence(args) -> int:
    """Zero-churn equivalence gate: edge chain == single-tier registry.

    With no peers holding a file and an empty site cache, the edge
    failover chain must degenerate to exactly the single-tier registry
    call — tracker and site-cache bookkeeping charge zero virtual time
    and zero wire bytes.  Deploys a version series on both topologies and
    compares times, bytes, and container digests exactly.
    """
    images = _target_images(args)

    control_bed = make_testbed(bandwidth_mbps=args.bandwidth)
    publish_images(control_bed, images, convert=True)
    control = _control_deploys(control_bed.fresh_client(), images)

    edge_bed = attach_edge(
        make_testbed(bandwidth_mbps=args.bandwidth),
        lan_mbps=EDGE_LAN_MBPS,
        seed=f"cli-edge-{args.edge_seed}",
    )
    publish_images(edge_bed, images, convert=True)
    edge = _control_deploys(edge_bed.edge.client(), images)

    identical = control == edge
    report = {
        "target": args.target,
        "versions": len(images),
        "bandwidth_mbps": args.bandwidth,
        "identical": identical,
        "control": control,
        "edge": edge,
        "edge_stats": edge_bed.edge.stats.metrics(),
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
    deterministic in the seeds (the ``edge`` row of :data:`GATES` is
    double-run on that).
    """
    if args.equivalence:
        return cmd_edge_equivalence(args)
    generated = _target_images(args)[0]
    # A quarter at a time, so later batches can peer-fetch from earlier ones.
    concurrency = max(1, args.clients // 4)

    def run_cell(scenario):
        cluster = EdgeCluster(
            args.clients, **_edge_scenario_kwargs(scenario, args)
        )
        publish_images(cluster.registry_testbed, [generated], convert=True)
        wave = cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=concurrency,
        )
        cell = wave.as_dict()
        world = World.of(cluster)
        cell["integrity_violations"] = len(poisoned_commits(world))
        return cell, _broken(
            cell,
            zero=("degraded",),
            nonzero=("blacklists",) if "byzantine" in scenario else (),
        ), world

    return run_sweep(
        args,
        {
            "target": generated.reference,
            "bandwidth_mbps": args.bandwidth,
            "lan_mbps": EDGE_LAN_MBPS,
            "clients": args.clients,
            "concurrency": concurrency,
            "sites": 1,
        },
        "scenarios", EDGE_SCENARIOS, run_cell,
        f"Edge sweep of {generated.reference}: {args.clients} clients, "
        f"{concurrency} concurrent, one site, "
        f"WAN {args.bandwidth:g} Mbps / LAN {EDGE_LAN_MBPS:g} Mbps",
        [
            ("p50 (s)", "p50_s", ".2f"),
            ("p99 (s)", "p99_s", ".2f"),
            ("Peer hits", "peer_hits", ""),
            ("Offload", "offload_rate", pct),
            ("Stale", "stale_resolutions", ""),
            ("Blacklists", "blacklists", ""),
            ("Crashes", "peer_crashes", ""),
            ("Degraded", "degraded", ""),
            ("Violations", "integrity_violations", ""),
        ],
    )


FAAS_SCENARIOS = ("steady", "spike", "spike+outage", "spike+byzantine")
#: The ``faas`` sweep's registry WAN, in Mbps.
FAAS_WAN_MBPS = 200.0
#: HA Gear registry replicas behind the ``faas`` sweep's tier.
FAAS_REPLICAS = 2
#: Arrival-rate multiplier inside a ``faas`` spike.
FAAS_SPIKE_FACTOR = 10.0


def _faas_bursts(scenario: str, args) -> tuple:
    if "spike" not in scenario:
        return ()
    return (BurstWindow(args.spike_start, args.spike_len, FAAS_SPIKE_FACTOR),)


def _faas_testbed_kwargs(scenario: str, args) -> dict:
    """make_faas_testbed kwargs for one named scenario: the tier admits
    four concurrent upstream fills before it sheds."""
    kwargs = {
        "bandwidth_mbps": FAAS_WAN_MBPS,
        "tier_admission_capacity": 4,
        "ha_replicas": FAAS_REPLICAS,
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


def cmd_faas(args) -> int:
    """Serverless invocation-spike sweep over the three-tier cache chain.

    Every scenario must complete every invocation (zero failures, zero
    degraded fallbacks), produce container filesystems byte-identical to
    the fault-free registry-only control, keep stampede suppression
    intact (zero duplicate upstream fetches), and leave no poisoned
    bytes in any pool or the tier cache; byzantine scenarios must
    additionally demote the tier.  Exit code 1 on any violation.  Runs
    are deterministic in the seeds (the ``faas`` row of :data:`GATES` is
    double-run on that).
    """
    corpus = _corpus(args)
    # Fault-free registry-only control, reference -> container fs digest:
    # every cold start in every scenario must produce exactly these
    # filesystems, no matter which tier served the bytes.
    control_bed = make_testbed(bandwidth_mbps=FAAS_WAN_MBPS)
    publish_images(control_bed, corpus.images, convert=True)
    deploys = _control_deploys(control_bed.fresh_client(), corpus.images)
    control = dict(zip(
        (generated.reference for generated in corpus.images),
        deploys["fs_digests"],
    ))

    def run_cell(scenario):
        bed = make_faas_testbed(**_faas_testbed_kwargs(scenario, args))
        publish_images(bed, corpus.images, convert=True)
        if "byzantine" in scenario:
            bed.faas.tier.byzantine = True
        platform = FaasPlatform(
            bed,
            bed.faas,
            nodes=args.nodes,
            keep_warm_s=6.0,  # reap containers idle this long
            seed=f"cli-faas-{args.faas_seed}",
        )
        stream = ScheduleBuilder(
            corpus, seed=f"cli-faas-{args.faas_seed}"
        ).invocation_stream(
            duration_s=args.duration,
            rate_per_s=args.rate,
            functions=args.functions,
            bursts=_faas_bursts(scenario, args),
        )
        run = platform.run(stream)
        cell = run.as_dict()
        del cell["fs_digests"]  # bulky; the control check distills it
        world = World({}, bed.tiers)
        cell["integrity_violations"] = len(poisoned_commits(world))
        cell["control_mismatches"] = sum(
            1
            for reference, digest in run.fs_digests.items()
            if control.get(reference) != digest
        )
        return cell, _broken(
            cell,
            zero=("failures", "degraded", "digest_conflicts",
                  "control_mismatches", "fabric.duplicate_upstream_fetches"),
            nonzero=("fabric.demotions",) if "byzantine" in scenario else (),
        ), world

    return run_sweep(
        args,
        {
            "images": len(corpus.images),
            "functions": args.functions,
            "nodes": args.nodes,
            "duration_s": args.duration,
            "rate_per_s": args.rate,
            "bandwidth_mbps": FAAS_WAN_MBPS,
            "tier_mbps": FAAS_TIER_MBPS,
            "replicas": FAAS_REPLICAS,
        },
        "scenarios", args.scenario or FAAS_SCENARIOS, run_cell,
        f"FaaS sweep: {args.functions} functions over {len(corpus.images)} "
        f"images, {args.nodes} nodes, {args.rate:g}/s for {args.duration:g}s "
        f"(spike x{FAAS_SPIKE_FACTOR:g} at {args.spike_start:g}s)",
        [
            ("Cold", "cold_starts", ""),
            ("Warm", "warm_starts", ""),
            ("p50 cold (s)", "cold_p50_s", ".2f"),
            ("p99.9 cold (s)", "cold_p999_s", ".2f"),
            ("Sheds", "fabric.tier_sheds", ""),
            ("Coalesced", "fabric.tier_coalesced", ""),
            ("Fallbacks", "fabric.registry_fallbacks", ""),
            ("Saved MB", "fabric.egress_saved_bytes",
             lambda b: f"{b / 1e6:.2f}"),
            ("Fail", "failures", ""),
            ("OK", "ok", _yes_no),
        ],
        verdict=True,
    )


SLO_SCENARIOS = ("fleet", "edge", "faas", "prefetch")

#: Declarative objectives per scenario.  Latency thresholds are generous
#: — this gate certifies the readiness plumbing, burn-rate evaluation,
#: and determinism, not paper numbers — but ``degraded`` and
#: ``poisoned_commits`` are exact zeros: no objective may be met by
#: silently falling back or committing bad bytes; every scenario ends
#: with those two.  The fleet and edge waves are held to the same
#: objectives.
_EXACT_ZEROS = (
    Objective("degraded", 0.0, comparator="=="),
    Objective("poisoned_commits", 0.0, comparator="=="),
)
_WAVE_OBJECTIVES = (
    Objective("ready_p99_s", 300.0, series="ready_s",
              window_s=5.0, budget=0.5),
    Objective("deploy_p99_s", 400.0),
) + _EXACT_ZEROS
SLO_OBJECTIVES = {
    "fleet": _WAVE_OBJECTIVES,
    "edge": _WAVE_OBJECTIVES,
    "faas": (
        Objective("ready_p99_s", 120.0, series="cold_ready_s",
                  window_s=2.0, budget=0.5),
        Objective("deploy_p99_s", 180.0),
    ) + _EXACT_ZEROS,
    "prefetch": (Objective("ready_over_pull", 1.0),) + _EXACT_ZEROS,
}


def _slo_wave(args, cluster, seed: str):
    """A cache-cleared Gear wave on ``cluster`` with the timeline sampler
    attached."""
    generated = _target_images(args)[0]
    publish_images(cluster.registry_testbed, [generated], convert=True)
    sampler = make_timeline_sampler(
        cluster.registry_testbed, period_s=0.5, seed=seed
    )
    results = []

    def action(node):
        result = deploy_with_gear(node.testbed, generated, clear_cache=True)
        results.append(result)
        return result

    wave = cluster.deploy_wave(action, sampler=sampler)
    observed = {
        "ready_p99_s": wave.ready_p99_s,
        "deploy_p99_s": wave.p99_s,
        "degraded": float(sum(result.degraded for result in results)),
    }
    return observed, sampler, {"wave": wave.as_dict()}, World.of(cluster)


def _slo_fleet(args, seed: str):
    """Fleet wave under Gear."""
    cluster = Cluster(args.clients, bandwidth_mbps=args.bandwidth)
    return _slo_wave(args, cluster, f"{seed}-fleet")


def _slo_edge(args, seed: str):
    """Edge wave: peer-served Gear deploys, LAN probes sampled."""
    cluster = EdgeCluster(
        args.clients,
        bandwidth_mbps=args.bandwidth,
        sites=2,
        seed=f"{seed}-edge",
    )
    return _slo_wave(args, cluster, f"{seed}-edge")


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
    observed = {
        "ready_p99_s": run.cold_ready_p99_s,
        "deploy_p99_s": run.cold_p99_s,
        "degraded": float(run.degraded + run.failures),
    }
    summary = run.as_dict()
    del summary["fs_digests"]  # bulky; integrity audit distills it
    return observed, sampler, {"run": summary}, World({}, bed.tiers)


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
    return observed, None, extras, World({"client": client.gear_driver.pool})


_SLO_RUNNERS = {
    "fleet": _slo_fleet,
    "edge": _slo_edge,
    "faas": _slo_faas,
    "prefetch": _slo_prefetch,
}


def _slo_scenario_payload(scenario: str, args, seed: str):
    """One scenario run as its JSON-ready payload, and the world it left;
    the world's poisoned commits are observed beside the runner's values."""
    observed, sampler, extras, world = _SLO_RUNNERS[scenario](args, seed)
    observed["poisoned_commits"] = float(len(poisoned_commits(world)))
    report = evaluate(SLO_OBJECTIVES[scenario], observed, sampler=sampler)
    payload = {"observed": observed, "slo": report.as_dict()}
    if sampler is not None:
        payload["timeline"] = sampler.as_dict()
    payload.update(extras)
    return payload, world


def cmd_slo(args) -> int:
    """Readiness-aware SLO gate across the wave scenario matrix.

    Every scenario runs *twice* with identical seeds; the two payloads
    (observed values, burn rates, the full sampled timeline) must be
    byte-identical under canonical JSON — a drift means the sampler or
    the readiness plumbing perturbed the simulation.  Exit code 1 on
    any violated objective or any nondeterministic replay.
    """
    seed = f"cli-slo-{args.slo_seed}"

    def run_cell(scenario):
        cell, world = _slo_scenario_payload(scenario, args, seed)
        replay, _ = _slo_scenario_payload(scenario, args, seed)
        cell["deterministic"] = dump_json(cell) == dump_json(replay)
        return cell, _broken(
            cell,
            zero=("slo.violated",),
            nonzero=("deterministic", "prefetch.strict_win")
            if scenario == "prefetch" else ("deterministic",),
        ), world

    def ready_p99(observed) -> str:
        ready = observed.get("ready_p99_s")
        return "-" if ready is None else f"{ready:.2f}"

    def max_burn(objectives) -> str:
        burn = max((o["burn_rate"] for o in objectives), default=0.0)
        return f"{burn:.2f}"

    return run_sweep(
        args,
        {
            "clients": args.clients,
            "bandwidth_mbps": args.bandwidth,
            "slo_seed": args.slo_seed,
        },
        "scenarios", args.scenario or SLO_SCENARIOS, run_cell,
        f"SLO gate: {args.clients} clients @ {args.bandwidth:g} Mbps "
        f"(seed {args.slo_seed}); every scenario double-run",
        [
            ("Ready p99 (s)", "observed", ready_p99),
            ("Max burn", "slo.objectives", max_burn),
            ("Violated", "slo.violated", lambda names: ",".join(names) or "-"),
            ("Deterministic", "deterministic", _yes_no),
            ("OK", "ok", _yes_no),
        ],
        verdict=True,
    )


#: Coverage floor for the single-deploy trace gate: the span tree must
#: account for at least this fraction of the deploy makespan.
TRACE_COVERAGE_FLOOR = 0.95
#: Float tolerance when checking phase totals against the deploy total.
TRACE_SUM_TOLERANCE = 1e-6
#: The traced deploy's wire, in Mbps.
TRACE_MBPS = 100.0


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
    the same seed are byte-identical (`scripts/check.sh` diffs them for
    the ``obs`` row of :data:`GATES`).
    """
    generated = _target_images(args)[0]
    wave_mode = args.clients > 1
    if wave_mode:
        cluster = Cluster(args.clients, bandwidth_mbps=TRACE_MBPS)
        testbed = cluster.registry_testbed
        publish_images(testbed, [generated], convert=True)
        tracer = testbed.attach_tracer()
        cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated)
        )
        root = "wave"
        deploy_total_s = None
    else:
        testbed = make_testbed(bandwidth_mbps=TRACE_MBPS)
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
        metrics_path = os.path.join(args.out_dir, "metrics.json")
        with open(metrics_path, "w") as handle:
            handle.write(dump_json(metrics_snapshot(testbed.metrics)))
        written["metrics"] = metrics_path

    if args.json:
        report = {
            "target": generated.reference,
            "bandwidth_mbps": TRACE_MBPS,
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
            f"@ {TRACE_MBPS:g} Mbps "
            f"({len(tracer.finished_spans())} spans)"
        )
        print(format_report(path))
        for key, dest in written.items():
            print(f"wrote {key}: {dest}")
    for problem in problems:
        print(f"trace gate FAILED: {problem}", file=sys.stderr)
    return 0 if ok else 1


def _flag(parser, name: str, default, help: Optional[str] = None) -> None:
    """Declare option ``name`` with its type read off ``default``: ``False``
    makes a switch, a string (or ``None``) is taken as typed, and any other
    default converts with its own type."""
    if default is False:
        parser.add_argument(name, action="store_true", help=help)
    else:
        as_typed = default is None or isinstance(default, str)
        parser.add_argument(name, type=None if as_typed else type(default),
                            default=default, help=help)


def _scenario_flag(parser, scenarios: tuple) -> None:
    """``--scenario``: any of ``scenarios`` (argparse rejects another name
    with exit 2); none named means all of them, in table order."""
    parser.add_argument(
        "--scenario", nargs="*", default=None, choices=scenarios,
        help=f"scenarios to run (default: all of {list(scenarios)})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (shared options on every command)."""
    common = argparse.ArgumentParser(add_help=False)
    _flag(common, "--seed", 7)
    _flag(common, "--scale", 0.4,
          "file-count/size scale of the synthetic corpus")
    _flag(common, "--versions", 6, "versions per series")
    common.add_argument(
        "--series", nargs="*", default=["nginx", "tomcat"],
        help="series to generate (default: nginx tomcat)",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gear (ICDCS 2021) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        """A subcommand whose parsed args dispatch to ``run(args)``."""
        subparser = sub.add_parser(name, parents=[common], help=help)
        subparser.set_defaults(run=run)
        return subparser

    command("catalog", cmd_catalog, "list the Table I series catalog")
    command("demo", cmd_demo, "build -> convert -> lazy deploy walkthrough")
    studies = command("paper", cmd_paper,
                      "the paper's own studies (Table II, Figs. 2 and 6-11, "
                      "ablations), measured beside the paper's numbers")
    _scenario_flag(studies, tuple(paper.STUDIES))
    _flag(studies, "--json", False, "emit the sweep report as one JSON line")
    deploy = command("deploy", cmd_deploy, "deploy a series under all systems")
    _flag(deploy, "--target", "nginx")
    _flag(deploy, "--bandwidth", 100.0)
    fleet = deploy.add_argument_group(
        "fleet contention",
        "deploy one image from N clients at once; transfers fair-share "
        "the registry uplink and the report carries latency percentiles",
    )
    _flag(fleet, "--clients", 1, "number of client nodes (1 = classic mode)")
    _flag(fleet, "--concurrency", 0,
          "clients deploying simultaneously per wave (default: all of them)")
    _flag(fleet, "--json", False, "emit the fleet report as one JSON line")
    faults = deploy.add_argument_group(
        "fault injection",
        "deterministic wire faults (off by default; any flag enables "
        "the FaultyLink + default RetryPolicy)",
    )
    _flag(faults, "--drop-rate", 0.0,
          "probability a transfer is lost (timeout)")
    _flag(faults, "--corrupt-rate", 0.0,
          "probability a response payload is corrupted")
    _flag(faults, "--outage-start", 0.0,
          "outage start, seconds after deployment begins")
    _flag(faults, "--outage-len", 0.0,
          "outage duration in seconds (0 = no outage)")
    crash = command("crash", cmd_crash,
                    f"crash/fsck/resume sweep over every crash point "
                    f"({CRASH_MBPS:g} Mbps)")
    _flag(crash, "--target", "nginx")
    _flag(crash, "--crash-seed", "0", "seed token for the crash-instant draw")
    _flag(crash, "--json", False, "emit the sweep report as one JSON line")
    chunks = command("chunks", cmd_chunks,
                     f"chunk-granular big-file read sweep under fault "
                     f"scenarios ({CHUNK_MBPS:g} Mbps)")
    _flag(chunks, "--clients", 32, "concurrent range readers in the wave")
    _flag(chunks, "--big-mib", 8, "model-file size in MiB (128 KiB chunks)")
    _flag(chunks, "--chunk-seed", "7",
          "seed token for the fault, retry-jitter, and crash streams")
    _flag(chunks, "--json", False, "emit the sweep report as one JSON line")
    ha = command("ha", cmd_ha,
                 f"highly-available registry sweep under fault scenarios "
                 f"({HA_MBPS:g} Mbps replica links, hedged downloads)")
    _flag(ha, "--target", "nginx")
    _flag(ha, "--clients", 8, "number of client nodes in the fleet")
    _flag(ha, "--concurrency", 0,
          "clients deploying simultaneously per wave (default: all of them)")
    _flag(ha, "--replicas", 3, "Gear registry replicas")
    ha.add_argument("--strategy", default="primary-first",
                    choices=list(STRATEGIES),
                    help="replica selection strategy")
    _scenario_flag(ha, HA_SCENARIOS)
    _flag(ha, "--ha-seed", "0",
          "seed token for replica selection, hedging, backoff, and fault "
          "streams")
    _flag(ha, "--json", False, "emit the sweep report as one JSON line")
    edge = command("edge", cmd_edge,
                   f"multi-tier edge/P2P sweep under churn/byzantine "
                   f"scenarios (one site, {EDGE_LAN_MBPS:g} Mbps LAN)")
    _flag(edge, "--target", "nginx")
    _flag(edge, "--bandwidth", 200.0, "registry WAN uplink in Mbps")
    _flag(edge, "--clients", 8,
          "number of edge nodes in the fleet (a quarter deploy at a time)")
    _flag(edge, "--edge-seed", "0",
          "seed token for peer selection, gossip jitter, churn, and crash "
          "streams")
    _flag(edge, "--equivalence", False,
          "instead of the sweep, check a peer-less edge run is byte- and "
          "time-identical to the single-tier testbed")
    _flag(edge, "--json", False, "emit the report as one JSON line")
    faas = command("faas", cmd_faas,
                   f"serverless spike sweep over the three-tier cache chain "
                   f"({FAAS_WAN_MBPS:g} Mbps WAN, {FAAS_TIER_MBPS:g} Mbps "
                   f"tier, {FAAS_REPLICAS} HA replicas)")
    _flag(faas, "--nodes", 6, "FaaS worker nodes (functions hash onto them)")
    _flag(faas, "--functions", 40,
          "distinct functions (Zipf-popular, images assigned round-robin "
          "by rank)")
    _flag(faas, "--duration", 20.0,
          "invocation-stream horizon in virtual seconds")
    _flag(faas, "--rate", 6.0, "baseline Poisson arrival rate per second")
    _flag(faas, "--spike-start", 8.0, "burst window start in virtual seconds")
    _flag(faas, "--spike-len", 4.0, "burst window length in virtual seconds")
    _flag(faas, "--outage-start", 9.0,
          "shared-tier outage start (mid-spike default)")
    _flag(faas, "--outage-len", 2.0,
          "shared-tier outage length in virtual seconds")
    _scenario_flag(faas, FAAS_SCENARIOS)
    _flag(faas, "--faas-seed", "0",
          "seed token for arrivals, placement, backoff, and fault streams")
    _flag(faas, "--json", False, "emit the sweep report as one JSON line")
    slo = command("slo", cmd_slo,
                  "readiness-aware SLO gate: objectives + burn rates over "
                  "fleet/edge/faas/prefetch, double-run for determinism")
    _scenario_flag(slo, SLO_SCENARIOS)
    _flag(slo, "--target", "nginx")
    _flag(slo, "--bandwidth", 200.0)
    _flag(slo, "--clients", 6, "fleet/edge wave size")
    _flag(slo, "--slo-seed", 1, "scenario seed (corpus seed stays --seed)")
    _flag(slo, "--json", False,
          "emit the full report (timelines included) as one JSON line")
    trace = command("trace", cmd_trace,
                    f"trace a Gear deployment at {TRACE_MBPS:g} Mbps; "
                    f"critical path + Chrome trace export")
    _flag(trace, "--target", "nginx")
    _flag(trace, "--clients", 1,
          "fleet wave mode when > 1, all at once (roots at 'wave')")
    _flag(trace, "--out-dir", None,
          "write trace.json + metrics.json here (trace.json loads in "
          "Perfetto)")
    _flag(trace, "--json", False,
          "emit the critical-path report as one JSON line")
    return parser


#: Stands for the seed in a :data:`GATES` row (``str.format`` style): a
#: row that has it is double-run at every gate seed, one without it once.
SEED = "{seed}"

#: The gate table: the one smoke invocation of every scenario, by gate
#: name, as typed after ``python -m repro.cli``.  ``scripts/check.sh``
#: runs each row in two fresh interpreters per seed and diffs the bytes,
#: ``benchmarks/artifacts.py`` records each at seed 11 as
#: ``BENCH_ext_<name>.json``, and ``tests/test_cli.py`` runs each
#: in-process against that artifact — a scenario added here is picked up
#: by all three.
GATES = {
    # Every category, the tomcat chain and the four Fig. 11 services.
    "paper": "paper --scale 0.2 --versions 3 --series debian golang mysql "
             "redis memcached tomcat nginx httpd node jenkins wordpress "
             "maven registry --seed {seed} --json",
    "fleet": "deploy --series nginx --versions 2 --scale 0.2 --clients 8 "
             "--bandwidth 100 --json",
    "crash": "crash --series nginx --versions 1 --scale 0.2 --target nginx "
             "--crash-seed {seed} --json",
    # p2c exercises the seeded replica-selection stream too.
    "ha": "ha --series nginx --versions 2 --scale 0.2 --clients 6 "
          "--concurrency 3 --strategy p2c --ha-seed {seed} --json",
    "obs": "trace --series nginx --versions 1 --scale 0.2 --target nginx "
           "--seed {seed} --json",
    "edge": "edge --series nginx --versions 2 --scale 0.2 --target nginx "
            "--clients 8 --edge-seed {seed} --json",
    # With no peers and no churn the edge tier must cost exactly nothing
    # (exit 1 on any divergence); an identity, so it records no artifact.
    "edge-equivalence": "edge --series nginx --versions 2 --scale 0.2 "
                        "--target nginx --equivalence --json",
    "faas": "faas --series nginx --versions 2 --scale 0.2 --functions 10 "
            "--duration 8 --rate 4 --nodes 4 --spike-start 3 --spike-len 3 "
            "--outage-start 4 --outage-len 1.5 --scenario spike spike+outage "
            "--faas-seed {seed} --json",
    "chunk": "chunks --clients 8 --big-mib 4 --chunk-seed {seed} --json",
    "slo": "slo --series nginx --versions 2 --scale 0.2 --target nginx "
           "--clients 6 --bandwidth 200 --slo-seed {seed} --json",
}


def gate_argv(name: str, seed: int) -> List[str]:
    """Gate ``name``'s argv with its seed flag, if it has one, set."""
    return GATES[name].format(seed=seed).split()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except argparse.ArgumentError as exc:  # a value only the command can vet
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
