"""The one file of the ledger that imports ``repro``.

One thin function per workload step and one table of wrapped boundaries.
When a later change renames ``HACluster``, the ``make_*_testbed``
builders or anything else below, re-point this file; workload
definitions (:mod:`workloads`) and the run discipline (:mod:`run`) stay
put.  Library entry points only — no ``repro.cli`` argv, none of its
private helpers.

Every step returns plain data (dicts, lists, numbers, strings): nothing
of ``repro`` leaks to the caller except opaque *world* objects that are
handed back to the matching ``check_*`` function.
"""

from __future__ import annotations

import random
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.deploy import (
    deploy_with_docker,
    deploy_with_gear,
    viewer_fs_digest,
)
from repro.bench.environment import (
    make_faas_testbed,
    make_testbed,
    publish_images,
)
from repro.blob import Blob
from repro.common import hashing
from repro.common.clock import SimClock, SimScheduler
from repro.common.stats import percentile
from repro.common.units import MiB
from repro.docker.daemon import DockerDaemon
from repro.docker.registry import DockerRegistry
from repro.gear.bigfile import ChunkFetchStats, ChunkedGearFileViewer
from repro.gear.converter import GearConverter
from repro.gear.driver import GearDriver
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.journal import IntentJournal
from repro.gear.pool import SharedFilePool
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
from repro.net.edge import EdgeSite
from repro.net.faas import FAAS_TIER_ENDPOINT, FaasFabric, FaasPlatform
from repro.net.faults import FaultPlan, FaultyLink, OutageWindow, chunk_plan
from repro.net.ha import HATransport
from repro.net.link import Link
from repro.net.resilience import RetryPolicy
from repro.net.topology import Cluster, EdgeCluster, HACluster
from repro.net.transport import RpcTransport
from repro.obs import TimelineSampler, critical_path
from repro.storage.disk import Disk
from repro.storage.objectstore import ObjectStore
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree
from repro.workloads.corpus import CorpusBuilder, CorpusConfig
from repro.workloads.schedule import BurstWindow, ScheduleBuilder

Counters = Dict[str, float]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The program's own nearest-rank percentile (one definition)."""
    return percentile(list(values), q)


# ---------------------------------------------------------------------------
# dataset


def build_corpus(
    seed: int,
    scale: float,
    series: Optional[Tuple[str, ...]] = None,
    versions_cap: Optional[int] = None,
) -> Any:
    return CorpusBuilder(
        CorpusConfig(
            seed=seed,
            file_scale=scale,
            size_scale=scale,
            series_names=series,
            versions_cap=versions_cap,
        )
    ).build()


def series_images(corpus: Any, series: str) -> List[Any]:
    return list(corpus.by_series[series])


def all_images(corpus: Any) -> List[Any]:
    return list(corpus.images)


def images_by_series(corpus: Any) -> List[List[Any]]:
    """One list of versions per series, in catalog order."""
    return [list(versions) for versions in corpus.by_series.values()]


# ---------------------------------------------------------------------------
# shared accounting


def _store_bytes(testbed: Any) -> int:
    """Docker layers + Gear objects + indexes (index images live in the
    Docker registry)."""
    return testbed.docker_registry.stored_bytes + testbed.gear_registry.stored_bytes


def _poisoned(pool: Any) -> int:
    """Committed pool entries whose bytes do not hash to their name."""
    bad = 0
    for identity in pool.identities():
        if identity.startswith("uid-"):
            continue
        inode = pool.peek(identity)
        if inode is None or inode.blob is None or inode.blob.fingerprint != identity:
            bad += 1
    return bad


def _add(into: Counters, more: Counters) -> Counters:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
    return into


def _sum_matching(snapshot: Dict[str, Any], prefix: str) -> float:
    """Sum ``prefix`` and every labelled variant ``prefix{...}``."""
    return sum(
        value
        for key, value in snapshot.items()
        if key == prefix or key.startswith(prefix + "{")
    )


def _registry_counters(testbed: Any) -> Counters:
    """Counters of the registry side and the wires, from the testbed's
    own ``MetricsRegistry`` and transfer logs."""
    snapshot = testbed.metrics.snapshot()
    links = testbed.all_links()
    logs = {id(link.log): link.log for link in links}
    counters: Counters = {
        "net.transport.retries": _sum_matching(snapshot, "rpc.retries"),
        "net.transport.giveups": _sum_matching(snapshot, "rpc.giveups"),
        "net.faults.drops": _sum_matching(snapshot, "link_faults.drops"),
        "net.faults.corruptions": _sum_matching(snapshot, "link_faults.corruptions"),
        "net.resilience.backoff_virt_s": sum(
            _sum_matching(snapshot, name)
            for name in ("retry.spent_s", "edge_retry.spent_s", "faas_retry.spent_s")
        ),
        "net.link.transfers": sum(log.total_requests for log in logs.values()),
        "net.link.bytes": sum(log.total_bytes for log in logs.values()),
        "net.link.virt_busy_s": sum(link.busy_seconds for link in links),
        "gear.registry.objects": testbed.gear_registry.file_count,
        "gear.registry.stored_bytes": testbed.gear_registry.stored_bytes,
        "gear.registry.bytes_served": sum(
            value
            for key, value in snapshot.items()
            if key.startswith("rpc.response_bytes{") and "gear-registry" in key
        ),
        "docker.registry.layers": testbed.docker_registry.layer_count,
        "docker.registry.stored_bytes": testbed.docker_registry.stored_bytes,
    }
    return counters


def _client_counters(bed: Any) -> Counters:
    """One client node's pool / journal / chunk / daemon counters."""
    driver = bed.gear_driver
    chunk = driver.chunk_stats
    return {
        "gear.pool.hits": driver.pool.stats.hits,
        "gear.pool.misses": driver.pool.stats.misses,
        "gear.pool.evictions": driver.pool.stats.evictions,
        "gear.journal.records": driver.journal.stats.appends,
        "gear.bigfile.chunks_fetched": chunk.chunks_fetched,
        "gear.bigfile.refetches": chunk.chunk_refetches,
        "gear.bigfile.coalesced_waits": chunk.coalesced_waits,
        "gear.bigfile.duplicate_chunk_fetches": chunk.duplicate_chunk_fetches,
        "gear.bigfile.sequential_fallbacks": chunk.sequential_fallbacks,
    }


def _deploy_counters(result: Any) -> Counters:
    """What one ``DeploymentResult`` adds to the layer counters."""
    if result.system == "gear":
        return {
            "gear.driver.deploys": 1,
            "gear.driver.degraded": 1 if result.degraded else 0,
            "gear.viewer.fetches": result.files_fetched,
            "gear.viewer.cache_hits": result.cache_hits,
        }
    return {
        "docker.daemon.pulls": 1,
        "docker.daemon.layers_extracted": result.files_fetched,
    }


def _wave_ops(
    nodes: Sequence[Any], outcomes: Dict[str, Any], control: str
) -> Tuple[List[float], List[str], Counters, List[str]]:
    """Per-node op accounting shared by every deploy wave.

    Returns (ready latencies, failure reasons, summed counters, digests).
    An op fails when it raised, degraded to the Docker-pull fallback,
    left a poisoned pool commit, or ended with a filesystem different
    from the control.
    """
    latencies: List[float] = []
    failures: List[str] = []
    counters: Counters = {}
    digests: List[str] = []
    for node in nodes:
        outcome = outcomes.get(node.name)
        _add(counters, _client_counters(node.testbed))
        if outcome is None or isinstance(outcome, BaseException):
            failures.append(f"{node.name}: {type(outcome).__name__}: {outcome}")
            continue
        result, mount = outcome
        _add(counters, _deploy_counters(result))
        latencies.append(result.ready_s)
        digest = viewer_fs_digest(mount)
        digests.append(digest)
        if result.degraded:
            failures.append(f"{node.name}: degraded to docker-pull fallback")
        elif digest != control:
            failures.append(f"{node.name}: filesystem differs from control")
        elif _poisoned(node.testbed.gear_driver.pool):
            failures.append(f"{node.name}: poisoned pool commit")
    return latencies, failures, counters, digests


def control_digest(image: Any) -> str:
    """Filesystem digest of a fault-free sequential Gear deploy."""
    bed = make_testbed()
    publish_images(bed, [image], convert=True)
    deploy_with_gear(bed, image)
    return viewer_fs_digest(bed.gear_driver.containers()[-1].mount)


# ---------------------------------------------------------------------------
# wave


def wave_build(image: Any, clients: int, bandwidth_mbps: float) -> Any:
    cluster = Cluster(clients, bandwidth_mbps=bandwidth_mbps)
    publish_images(cluster.registry_testbed, [image], convert=True)
    return cluster


def _staggered_wave(
    cluster: Any,
    image: Any,
    stagger_s: Sequence[float],
    tracer: Any,
    concurrency: Optional[int] = None,
) -> Tuple[Any, Dict[str, Any]]:
    """Every node deploys ``image`` with Gear after its own rollout
    stagger, each deploy a counted op.

    ``outcomes[node]`` becomes ``(result, mount)``, or the exception the
    deploy raised: a failure is recorded, never thrown into the scheduler.
    """
    outcomes: Dict[str, Any] = {}
    clock = cluster.clock
    delay = {node.name: stagger_s[i] for i, node in enumerate(cluster.nodes)}

    def action(node: Any) -> Any:
        bed = node.testbed
        with tracer.op("op.deploy"):
            try:
                clock.advance(delay[node.name], "rollout-stagger")
                result = deploy_with_gear(bed, image)
                outcomes[node.name] = (
                    result, bed.gear_driver.containers()[-1].mount
                )
            except Exception as error:  # counted as a failed op by _wave_ops
                outcomes[node.name] = error
                return None
        return result

    return cluster.deploy_wave(action, concurrency=concurrency), outcomes


def wave_run(
    cluster: Any, image: Any, stagger_s: Sequence[float], tracer: Any
) -> Dict[str, Any]:
    """One all-at-once wave; serves the plain and the HA cluster alike."""
    report, outcomes = _staggered_wave(cluster, image, stagger_s, tracer)
    return {"report": report, "outcomes": outcomes}


def wave_check(cluster: Any, raw: Dict[str, Any], control: str) -> Dict[str, Any]:
    report = raw["report"]
    latencies, failures, counters, digests = _wave_ops(
        cluster.nodes, raw["outcomes"], control
    )
    root = cluster.registry_testbed
    _add(counters, _registry_counters(root))
    counters["net.topology.clients"] = len(cluster.nodes)
    counters["common.clock.events"] = cluster.last_wave_events
    return {
        "ops": len(cluster.nodes),
        "failures": failures,
        "latencies_s": latencies,
        "makespan_s": report.makespan_s,
        "net_bytes": report.egress_bytes,
        "store_bytes": _store_bytes(root),
        "outputs": digests,
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# microflows


def microflows_run(
    plans: Sequence[Tuple[Sequence[int], Sequence[float]]],
    bandwidth_mbps: float,
    tracer: Any,
) -> Dict[str, Any]:
    """Generator clients alternate a think time with a transfer on one
    shared link: pure ``common.clock`` + ``net.link`` work."""
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=bandwidth_mbps)
    durations: List[List[float]] = [[] for _ in plans]

    def client(index: int, sizes: Sequence[int], thinks: Sequence[float]) -> Iterator[Any]:
        done = durations[index]
        for size, think in zip(sizes, thinks):
            yield think
            done.append((yield from link.transfer_gen(size)))

    with SimScheduler(clock) as scheduler:
        for index, (sizes, thinks) in enumerate(plans):
            scheduler.spawn(client, index, sizes, thinks, name=f"flow-{index:04d}")
        scheduler.run()
        events = scheduler.events_processed
    latencies = [value for done in durations for value in done]
    expected = sum(len(sizes) for sizes, _ in plans)
    payload = sum(sum(sizes) for sizes, _ in plans)
    failures = []
    if len(latencies) != expected:
        failures.append(f"{expected - len(latencies)} transfers never completed")
    if link.log.total_bytes != payload:
        failures.append(
            f"link carried {link.log.total_bytes} B, plans asked for {payload} B"
        )
    return {
        "ops": expected,
        "failures": failures,
        "latencies_s": latencies,
        "makespan_s": clock.now,
        "net_bytes": link.log.total_bytes,
        "store_bytes": 0,
        "outputs": [repr(clock.now), str(link.log.total_bytes), str(events)],
        "counters": {
            "common.clock.events": events,
            "net.link.transfers": link.log.total_requests,
            "net.link.bytes": link.log.total_bytes,
            "net.link.virt_busy_s": link.busy_seconds,
        },
    }


# ---------------------------------------------------------------------------
# convert


def convert_run(
    corpus_args: Tuple[Any, ...], schedule_seed: str, gap_s: float, tracer: Any
) -> Dict[str, Any]:
    """Build the corpus, push every image, convert every image — the
    registry-side write path, no scheduler.

    Pushes arrive in an order shuffled from ``schedule_seed``.
    Conversions run series by series in catalog order (distro bases
    first, as the registry sees them), the versions *within* a series in
    seeded order, separated by seeded arrival gaps.  This is seed
    policy, not tuning: dedup makes whichever image comes first pay for
    the files it shares, so a shuffle across series moves
    ``virt_op_p99_s`` by 4% between seeds, the shuffle within a series
    by 2%.
    """
    corpus = build_corpus(*corpus_args)
    testbed = make_testbed()
    rng = random.Random(schedule_seed)
    images = []
    for versions in images_by_series(corpus):
        images += rng.sample(versions, len(versions))
    for generated in rng.sample(images, len(images)):
        testbed.docker_registry.push_image(generated.image)
    converted = []
    for generated in images:
        testbed.clock.advance(rng.random() * gap_s, "arrival-gap")
        with tracer.op("op.convert"):
            try:
                converted.append(testbed.converter.convert(generated.reference))
            except Exception as error:  # counted as a failed op
                converted.append(error)
    return {"corpus": corpus, "testbed": testbed, "images": images,
            "converted": converted}


def convert_check(raw: Dict[str, Any]) -> Dict[str, Any]:
    testbed = raw["testbed"]
    registry = testbed.gear_registry
    latencies: List[float] = []
    failures: List[str] = []
    outputs: List[str] = []
    seen = uploaded = 0
    for generated, outcome in zip(raw["images"], raw["converted"]):
        if isinstance(outcome, BaseException):
            failures.append(
                f"{generated.reference}: {type(outcome).__name__}: {outcome}"
            )
            continue
        index, report = outcome
        latencies.append(report.duration_s)
        seen += report.gear_files_new + report.gear_files_deduped
        uploaded += report.gear_files_new
        outputs.append(f"{index.reference}|{report.index_bytes}|{report.file_count}")
        dangling = [
            path for path, entry in index.entries.items()
            if not registry.query(entry.identity)
        ]
        if dangling:
            failures.append(
                f"{generated.reference}: {len(dangling)} index entries "
                f"missing from the gear registry"
            )
        elif not testbed.docker_registry.has_manifest(index.reference):
            failures.append(f"{generated.reference}: index image not published")
    counters = _registry_counters(testbed)
    counters.update({
        "gear.converter.files_seen": seen,
        "gear.converter.files_uploaded": uploaded,
        "workloads.corpus.images": len(raw["corpus"].images),
    })
    return {
        "ops": len(raw["images"]),
        "failures": failures,
        "latencies_s": latencies,
        "makespan_s": testbed.clock.now,
        "net_bytes": testbed.link.log.total_bytes,
        "store_bytes": _store_bytes(testbed),
        "outputs": outputs,
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# seqdeploy


def seqdeploy_build(images: Sequence[Any]) -> Any:
    testbed = make_testbed()
    publish_images(testbed, images, convert=True)
    return testbed


def seqdeploy_run(
    testbed: Any,
    schedule: Sequence[Tuple[Any, str, float, float]],
    tracer: Any,
) -> List[Tuple[Any, Any]]:
    """One cold client at a time: ``(image, system, mbps, think_s)``."""
    done: List[Tuple[Any, Any]] = []
    for generated, system, mbps, think_s in schedule:
        client = testbed.fresh_client()
        testbed.set_bandwidth(mbps)
        testbed.clock.advance(think_s, "operator-think")
        deploy = deploy_with_gear if system == "gear" else deploy_with_docker
        with tracer.op(f"op.{system}-deploy"):
            try:
                done.append((client, deploy(client, generated)))
            except Exception as error:  # counted as a failed op
                done.append((client, error))
    return done


def seqdeploy_check(
    testbed: Any,
    schedule: Sequence[Tuple[Any, str, float, float]],
    done: Sequence[Tuple[Any, Any]],
) -> Dict[str, Any]:
    latencies: List[float] = []
    failures: List[str] = []
    counters: Counters = {}
    digests: Dict[Tuple[str, float], Dict[str, str]] = {}
    copy_ups = 0
    for (generated, system, mbps, _), (client, outcome) in zip(schedule, done):
        label = f"{system} {generated.reference} @ {mbps:g} Mbps"
        _add(counters, _client_counters(client))
        if isinstance(outcome, BaseException):
            failures.append(f"{label}: {type(outcome).__name__}: {outcome}")
            continue
        _add(counters, _deploy_counters(outcome))
        latencies.append(outcome.ready_s)
        owner = client.gear_driver if system == "gear" else client.daemon
        mount = owner.containers()[-1].mount
        copy_ups += mount.stats.copy_ups
        digests.setdefault((generated.reference, mbps), {})[system] = (
            viewer_fs_digest(mount)
        )
        if outcome.degraded:
            failures.append(f"{label}: degraded to docker-pull fallback")
        elif system == "gear" and _poisoned(client.gear_driver.pool):
            failures.append(f"{label}: poisoned pool commit")
    for (reference, mbps), pair in digests.items():
        if len(pair) == 2 and pair["gear"] != pair["docker"]:
            # Both deploys of the image count as failed: neither can be
            # trusted until they agree.
            failures.append(f"gear {reference} @ {mbps:g}: fs differs from docker")
            failures.append(f"docker {reference} @ {mbps:g}: fs differs from gear")
    _add(counters, _registry_counters(testbed))
    counters["vfs.overlay.copy_ups"] = copy_ups
    return {
        "ops": len(schedule),
        "failures": failures,
        "latencies_s": latencies,
        "makespan_s": testbed.clock.now,
        "net_bytes": testbed.link.log.total_bytes,
        "store_bytes": _store_bytes(testbed),
        "outputs": [
            f"{reference}|{mbps:g}|{pair.get('gear')}|{pair.get('docker')}"
            for (reference, mbps), pair in sorted(digests.items())
        ],
        "counters": counters,
    }


def seqdeploy_phases(testbed: Any, images: Sequence[Any], mbps: float) -> Counters:
    """``virt.phase``: the program's own ``SpanTracer`` + critical path on
    sampled Gear deploys, averaged — decomposes ``virt_op_p50_s``."""
    phases: Counters = {}
    coverage = 0.0
    testbed.set_bandwidth(mbps)
    for generated in images:
        client = testbed.fresh_client()
        tracer = client.clock.attach_tracer()
        try:
            deploy_with_gear(client, generated)
            report = critical_path(tracer, root="deploy")
        finally:
            client.clock.detach_tracer()
        if report is None:
            continue
        coverage += report.coverage
        for name, seconds in report.phases.items():
            phases[name] = phases.get(name, 0.0) + seconds
    count = max(1, len(images))
    known = {"pull_index": "pull_index_s", "fetch_file": "fetch_s",
             "link": "link_s", "start": "start_s"}
    out = {f"virt.phase.{metric}": 0.0 for metric in known.values()}
    for name, seconds in phases.items():
        if name in known:
            out[f"virt.phase.{known[name]}"] = seconds / count
    out["virt.phase.coverage"] = coverage / count
    return out


# ---------------------------------------------------------------------------
# fabrics


def ha_build(image: Any, clients: int, bandwidth_mbps: float, seed: str) -> Any:
    """HA tier with replica 0 of 3 in whole-run outage."""
    outage = FaultPlan(
        outages=(OutageWindow(start_s=0.0, duration_s=1e9),),
        seed=f"{seed}-outage",
    )
    cluster = HACluster(
        clients,
        replicas=3,
        bandwidth_mbps=bandwidth_mbps,
        replica_fault_plans=[outage],
        seed=seed,
    )
    publish_images(cluster.registry_testbed, [image], convert=True)
    cluster.registry_testbed.arm_faults()
    return cluster


def edge_build(
    images: Sequence[Any],
    clients: int,
    bandwidth_mbps: float,
    churn_rate_per_s: float,
    churn_horizon_s: float,
    seed: str,
) -> Any:
    """Edge fleet with churn and one byzantine peer in the first batch."""
    cluster = EdgeCluster(
        clients,
        bandwidth_mbps=bandwidth_mbps,
        churn_rate_per_s=churn_rate_per_s,
        churn_horizon_s=churn_horizon_s,
        byzantine=(min(1, clients - 1),),
        seed=seed,
    )
    publish_images(cluster.registry_testbed, images, convert=True)
    return cluster


def edge_run(
    cluster: Any, images: Sequence[Any], stagger_s: Sequence[float], tracer: Any
) -> Dict[str, Any]:
    """Rolling upgrade: every version fleet-wide, a quarter at a time."""
    reports = []
    outcomes = []
    concurrency = max(1, len(cluster.nodes) // 4)
    for generated in images:
        report, version = _staggered_wave(
            cluster, generated, stagger_s, tracer, concurrency
        )
        reports.append(report)
        outcomes.append(version)
    return {"reports": reports, "outcomes": outcomes}


def faas_build(
    corpus: Any,
    stream_args: Dict[str, Any],
    spike: Tuple[float, float, float],
    outage: Tuple[float, float],
    nodes: int,
    keep_warm_s: float,
    bandwidth_mbps: float,
    trace_seed: str,
    seed: str,
) -> Dict[str, Any]:
    """FaaS platform over a 2-replica HA registry; Zipf stream with a
    spike and a shared-tier outage inside it.

    The invocation stream is drawn from ``trace_seed`` (a recorded trace:
    part of the dataset); placement, backoff and fault streams from
    ``seed``.
    """
    stream = ScheduleBuilder(corpus, seed=trace_seed).invocation_stream(
        bursts=(BurstWindow(*spike),), **stream_args
    )
    referenced = {invocation.image.reference for invocation in stream}
    images = [g for g in corpus.images if g.reference in referenced]
    bed = make_faas_testbed(
        bandwidth_mbps=bandwidth_mbps,
        tier_admission_capacity=4,
        ha_replicas=2,
        tier_fault_plan=FaultPlan(
            seed=f"{seed}-tier-outage",
            outages=(OutageWindow(start_s=outage[0], duration_s=outage[1]),),
            targets=(FAAS_TIER_ENDPOINT,),
        ),
        seed=seed,
    )
    publish_images(bed, images, convert=True)
    platform = FaasPlatform(
        bed, bed.faas, nodes=nodes, keep_warm_s=keep_warm_s, seed=seed
    )
    return {"bed": bed, "platform": platform, "stream": stream, "images": images}


def faas_controls(images: Sequence[Any]) -> Dict[str, str]:
    """reference -> fs digest of a fault-free registry-only deploy."""
    bed = make_testbed()
    publish_images(bed, images, convert=True)
    client = bed.fresh_client()
    digests = {}
    for generated in images:
        deploy_with_gear(client, generated)
        digests[generated.reference] = viewer_fs_digest(
            client.gear_driver.containers()[-1].mount
        )
    return digests


def faas_run(world: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    """Replay the stream.  The platform reports tails, not samples; a
    probe-less ``TimelineSampler`` is its public hook that receives one
    ``cold_ready_s`` point per cold start."""
    bed = world["bed"]
    samples = TimelineSampler(bed.clock, period_s=5.0, seed="ledger")
    with tracer.op("op.faas-stream"):
        report = world["platform"].run(world["stream"], sampler=samples)
    cold = samples.series["cold_ready_s"].values() if "cold_ready_s" in samples.series else []
    return {"report": report, "cold_ready_s": cold}


def ha_check(cluster: Any, raw: Dict[str, Any], control: str) -> Dict[str, Any]:
    result = wave_check(cluster, raw, control)
    report = raw["report"]
    result["failures"] = [f"ha {reason}" for reason in result["failures"]]
    result["counters"].update({
        "net.ha.failovers": report.failovers,
        "net.ha.hedges": report.hedges,
        "net.ha.wasted_hedge_bytes": report.wasted_hedge_bytes,
        "net.ha.sheds": report.sheds,
        "net.ha.virt_ready_p99_s": report.ready_p99_s,
    })
    return result


def edge_check(
    cluster: Any, raw: Dict[str, Any], controls: Sequence[str]
) -> Dict[str, Any]:
    latencies: List[float] = []
    failures: List[str] = []
    counters: Counters = {}
    outputs: List[str] = []
    last = raw["reports"][-1]
    for wave, version, control in zip(raw["reports"], raw["outcomes"], controls):
        ready, wave_failures, wave_counters, digests = _wave_ops(
            cluster.nodes, version, control
        )
        # Node pools/journals are cumulative over the upgrade: keep only
        # the per-deploy counters of every wave but the last.
        if wave is not last:
            wave_counters = {
                key: value for key, value in wave_counters.items()
                if key.startswith(("gear.driver.", "gear.viewer."))
            }
        _add(counters, wave_counters)
        _add(counters, {
            "net.edge.peer_hits": wave.peer_hits,
            "net.edge.site_hits": wave.site_hits,
            "net.edge.registry_fetches": wave.registry_fetches,
            "net.edge.blacklisted": wave.blacklists,
        })
        failures += [f"edge {reason}" for reason in wave_failures]
        outputs += digests
        latencies += ready
    failures += [
        f"edge integrity: {problem}" for problem in cluster.fabric.audit_integrity()
    ]
    root = cluster.registry_testbed
    _add(counters, _registry_counters(root))
    counters["net.edge.virt_ready_p99_s"] = (
        nearest_rank(latencies, 99) if latencies else 0.0
    )
    counters["net.topology.clients"] = len(cluster.nodes)
    return {
        "ops": len(cluster.nodes) * len(raw["reports"]),
        "failures": failures,
        "latencies_s": latencies,
        "makespan_s": sum(wave.makespan_s for wave in raw["reports"]),
        "net_bytes": sum(wave.egress_bytes for wave in raw["reports"]),
        "store_bytes": _store_bytes(root),
        "outputs": outputs,
        "counters": counters,
    }


def faas_check(
    world: Dict[str, Any], raw: Dict[str, Any], control: Dict[str, str]
) -> Dict[str, Any]:
    run = raw["report"]
    bed = world["bed"]
    node_beds = world["platform"].node_beds
    duplicate = run.fabric["duplicate_upstream_fetches"]
    # Run-level violations cannot be pinned on one invocation; each
    # counts as one failed op on top of the per-invocation failures.
    failures = [f"faas integrity: {problem}" for problem in bed.faas.audit_integrity()]
    failures += [
        f"faas {reference}: fs differs from control"
        for reference, digest in sorted(run.fs_digests.items())
        if control.get(reference) != digest
    ]
    failures += ["faas invocation failed"] * run.failures
    failures += ["faas cold start degraded"] * run.degraded
    failures += ["faas cold starts of one image disagree"] * run.digest_conflicts
    failures += ["faas duplicate upstream fetch"] * duplicate
    counters = _registry_counters(bed)
    for node_bed in node_beds:
        _add(counters, _client_counters(node_bed))
        if _poisoned(node_bed.gear_driver.pool):
            failures.append("faas poisoned pool commit")
    counters.update({
        "net.faas.cold_starts": run.cold_starts,
        "net.faas.warm_starts": run.warm_starts,
        "net.faas.tier_hits": run.fabric["tier_hits"],
        "net.faas.coalesced": run.fabric["tier_coalesced"],
        "net.faas.duplicate_upstream_fetches": duplicate,
        "net.faas.virt_cold_p99_s": run.cold_ready_p99_s,
        "gear.driver.deploys": run.cold_starts,
        "gear.driver.degraded": run.degraded,
        "net.topology.clients": len(node_beds),
    })
    return {
        "ops": run.invocations,
        "failures": failures,
        "latencies_s": list(raw["cold_ready_s"]),
        "makespan_s": run.makespan_s,
        "net_bytes": run.wan_egress_bytes,
        "store_bytes": _store_bytes(bed),
        "outputs": [f"{ref}|{digest}" for ref, digest in sorted(run.fs_digests.items())],
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# chunkreads

BIG_PATH = "/models/weights.bin"
SMALL_PATH = "/etc/app.conf"


def chunk_plans(
    seed: str, drop_rate: float, corrupt_rate: float, byzantine_rate: float
) -> Dict[str, Optional[Any]]:
    """The three scenarios' label-scoped fault plans (timeouts and
    stalls at the program's defaults)."""
    return {
        "clean": None,
        # Half of the corruptions are caught by the wire checksum
        # (transport retry), the rest slip to chunk verification.
        "chunk-faults": chunk_plan(
            seed=f"{seed}-faults", drop_rate=drop_rate,
            corrupt_rate=corrupt_rate, corrupt_detect_rate=0.5,
        ),
        # Every corruption slides past the wire checksum.
        "byzantine": chunk_plan(
            seed=f"{seed}-byz", corrupt_rate=byzantine_rate,
            corrupt_detect_rate=0.0,
        ),
    }


def chunk_build(
    big_bytes: int, model_seed: str, bandwidth_mbps: float, seed: str,
    plan: Optional[Any] = None,
) -> Dict[str, Any]:
    """A single-node chunk testbed: registry pre-seeded with one big
    model file and one small config; faults only on chunk traffic.

    Both retry ladders (wire faults in the transport, failed chunk
    verification in the viewer) are the program's default
    ``RetryPolicy``; only their jitter streams are seeded."""
    clock = SimClock()
    if plan is not None:
        link: Any = FaultyLink(clock, plan, bandwidth_mbps=bandwidth_mbps)
    else:
        link = Link(clock, bandwidth_mbps=bandwidth_mbps)
    transport = RpcTransport(link, retry_policy=RetryPolicy(seed=f"{seed}-rpc"))
    registry = GearRegistry()
    transport.bind(registry.endpoint())
    root = FileSystemTree()
    root.write_file(BIG_PATH, Blob.synthetic(model_seed, big_bytes), parents=True)
    root.write_file(SMALL_PATH, b"mode=chunks\n", parents=True)
    index = GearIndex.from_tree("ai.gear", "v1", root)
    for _, node in root.iter_files():
        registry.upload(GearFile.from_blob(node.blob))
    return {
        "clock": clock, "link": link, "transport": transport,
        "registry": registry, "index": index, "pool": SharedFilePool(),
        "journal": IntentJournal(clock), "big_bytes": big_bytes, "seed": seed,
    }


def chunk_control(world: Dict[str, Any]) -> str:
    """Whole-file control: both files read in full, fault-free."""
    viewer = GearFileViewer(
        world["index"], world["pool"], transport=world["transport"],
        journal=world["journal"],
    )
    viewer.read_blob(BIG_PATH)
    viewer.read_blob(SMALL_PATH)
    return viewer_fs_digest(viewer)


def chunk_run(
    world: Dict[str, Any], ranges: Sequence[Tuple[int, int]], tracer: Any
) -> Dict[str, Any]:
    """One concurrent reader per ``(offset, length)`` range."""
    clock = world["clock"]
    viewer = ChunkedGearFileViewer(
        world["index"], world["pool"], transport=world["transport"],
        journal=world["journal"], big_file_threshold=1 * MiB,
        chunk_retry=RetryPolicy(seed=f"{world['seed']}-verify"),
        chunk_stats=ChunkFetchStats(),
    )
    finished: Dict[int, Any] = {}

    def reader(reader_id: int, offset: int, length: int) -> None:
        with tracer.op("op.range-read"):
            begun = clock.now
            try:
                viewer.read_range(BIG_PATH, offset, length)
                viewer.read_range(SMALL_PATH, 0, 4)
                finished[reader_id] = clock.now - begun
            except Exception as error:  # counted as a failed op
                finished[reader_id] = error

    with SimScheduler(clock) as scheduler:
        for reader_id, (offset, length) in enumerate(ranges):
            scheduler.spawn(reader, reader_id, offset, length,
                            name=f"reader-{reader_id:03d}")
        scheduler.run()
        events = scheduler.events_processed
    return {"viewer": viewer, "finished": finished, "events": events}


def chunk_check(
    world: Dict[str, Any], raw: Dict[str, Any], readers: int, control: str,
    scenario: str,
) -> Dict[str, Any]:
    viewer, pool, link = raw["viewer"], world["pool"], world["link"]
    stats = viewer.chunk_stats
    latencies: List[float] = []
    failures: List[str] = []
    for reader_id in range(readers):
        outcome = raw["finished"].get(reader_id)
        if isinstance(outcome, float):
            latencies.append(outcome)
        else:
            failures.append(
                f"{scenario} reader {reader_id}: {type(outcome).__name__}: {outcome}"
            )
    # The readers cover the file between them, so the scenario-level
    # checks only mean something when every reader finished; a violation
    # there cannot be pinned on one reader and fails all of them.
    digest = ""
    identity = world["index"].entries[BIG_PATH].identity
    if not failures:
        digest = viewer_fs_digest(viewer)
        problem = None
        if digest != control:
            problem = "fs differs from whole-file control"
        elif _poisoned(pool):
            problem = "poisoned pool commit"
        elif stats.duplicate_chunk_fetches:
            problem = f"{stats.duplicate_chunk_fetches} duplicate chunk fetches"
        elif pool.partials or not pool.contains(identity):
            problem = "partial file leaked or never promoted"
        if problem is not None:
            failures = [f"{scenario}: {problem}"] * readers
    fault_stats = getattr(link, "fault_stats", None)
    endpoint = world["transport"].endpoint("gear-registry").stats
    counters: Counters = {
        "common.clock.events": raw["events"],
        "net.link.transfers": link.log.total_requests,
        "net.link.bytes": link.log.total_bytes,
        "net.link.virt_busy_s": link.busy_seconds,
        "net.transport.retries": endpoint.retries,
        "net.transport.giveups": endpoint.giveups,
        "net.faults.drops": fault_stats.drops if fault_stats else 0,
        "net.faults.corruptions": fault_stats.corruptions if fault_stats else 0,
        "net.resilience.backoff_virt_s": (
            world["transport"].retry_policy.spent_s + viewer.chunk_retry.spent_s
        ),
        "gear.pool.hits": pool.stats.hits,
        "gear.pool.misses": pool.stats.misses,
        "gear.pool.evictions": pool.stats.evictions,
        "gear.journal.records": world["journal"].stats.appends,
        "gear.bigfile.chunks_fetched": stats.chunks_fetched,
        "gear.bigfile.refetches": stats.chunk_refetches,
        "gear.bigfile.coalesced_waits": stats.coalesced_waits,
        "gear.bigfile.duplicate_chunk_fetches": stats.duplicate_chunk_fetches,
        "gear.bigfile.sequential_fallbacks": stats.sequential_fallbacks,
        "gear.viewer.fetches": viewer.fault_stats.remote_fetches,
        "gear.viewer.cache_hits": viewer.fault_stats.cache_hits,
        "gear.registry.objects": world["registry"].file_count,
        "gear.registry.stored_bytes": world["registry"].stored_bytes,
        "gear.registry.bytes_served": endpoint.response_bytes,
    }
    return {
        "ops": readers,
        "failures": failures,
        "latencies_s": latencies,
        "makespan_s": world["clock"].now,
        "net_bytes": link.log.total_bytes,
        "store_bytes": world["registry"].stored_bytes,
        "outputs": [f"{scenario}|{digest}"],
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# traced boundaries

#: layer -> [(owner, attribute), ...]: the public callables timed from
#: outside.  Module-level functions are listed with their module as owner.
BOUNDARIES: Dict[str, List[Tuple[Any, str]]] = {
    "common.clock": [
        (SimClock, "advance"), (SimScheduler, "spawn"), (SimScheduler, "run"),
        (SimScheduler, "run_until"),
    ],
    "net.link": [(Link, "transfer"), (Link, "transfer_gen")],
    "net.transport": [(RpcTransport, "call")],
    "net.topology": [
        (Cluster, "deploy_wave"), (HACluster, "deploy_wave"),
        (EdgeCluster, "deploy_wave"),
    ],
    "net.ha": [(HATransport, "call")],
    "net.edge": [(EdgeSite, "fetch")],
    "net.faas": [(FaasPlatform, "run"), (FaasFabric, "fetch")],
    "gear.driver": [
        (GearDriver, "pull_index"), (GearDriver, "create_container"),
        (GearDriver, "start_container"),
    ],
    "gear.index": [(GearIndex, "from_image"), (GearIndex, "from_tree")],
    "gear.viewer": [(GearFileViewer, "read_blob")],
    "gear.pool": [
        (SharedFilePool, "get"), (SharedFilePool, "prepare"),
        (SharedFilePool, "commit"),
    ],
    "gear.journal": [
        (IntentJournal, "fetch_begin"), (IntentJournal, "fetch_commit"),
        (IntentJournal, "link_begin"), (IntentJournal, "link_commit"),
        (IntentJournal, "chunk_begin"), (IntentJournal, "chunk_commit"),
    ],
    "gear.bigfile": [(ChunkedGearFileViewer, "read_range")],
    "gear.converter": [(GearConverter, "convert")],
    "gear.registry": [
        (GearRegistry, "upload"), (GearRegistry, "download"),
        (GearRegistry, "query"), (ObjectStore, "upload"),
        (ObjectStore, "download"), (ObjectStore, "query"),
    ],
    "docker.registry": [(DockerRegistry, "push_image")],
    "docker.daemon": [(DockerDaemon, "pull"), (DockerDaemon, "run")],
    "vfs.tree": [(FileSystemTree, "clone"), (FileSystemTree, "write_file")],
    "vfs.tar": [(LayerArchive, "extract"), (LayerArchive, "extract_diff")],
    "vfs.overlay": [(OverlayMount, "read_blob"), (OverlayMount, "copy_up")],
    "blob": [(Blob, "synthetic"), (Blob, "mutate")],
    "common.hashing": [
        (hashing, "fingerprint_bytes"), (hashing, "fingerprint_tokens"),
        (hashing, "sha256_bytes"), (hashing, "sha256_tokens"),
    ],
    "storage.disk": [(Disk, "read"), (Disk, "write"), (Disk, "metadata_op")],
    "workloads.corpus": [(CorpusBuilder, "build")],
}


def install_tracing(tracer: Any) -> Callable[[], Counters]:
    """Wrap every boundary; ``tracer.uninstall()`` restores them.

    Returns a reader for the two counts only a traced pass can see,
    because the program keeps no counter for them: virtual seconds the
    disk model charged (the boundaries return them) and scheduler events
    of the fabrics' private schedulers.
    """
    disk_virt_s = [0.0]
    events: Dict[Any, int] = {}

    def disk_charged(args: Tuple[Any, ...], duration: float) -> None:
        disk_virt_s[0] += duration

    def loop_returned(args: Tuple[Any, ...], _: Any) -> None:
        events[args[0]] = args[0].events_processed

    observers = {
        (Disk, "read"): disk_charged, (Disk, "write"): disk_charged,
        (Disk, "metadata_op"): disk_charged,
        (SimScheduler, "run"): loop_returned,
        (SimScheduler, "run_until"): loop_returned,
    }
    program = [
        module for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for layer, targets in BOUNDARIES.items():
        for owner, attr in targets:
            if isinstance(owner, type):
                tracer.wrap(owner, attr, layer, observers.get((owner, attr)))
            else:
                tracer.wrap_everywhere(owner, attr, layer, program)

    def observed() -> Counters:
        return {
            "storage.disk.virt_s": disk_virt_s[0],
            "common.clock.events": sum(events.values()),
        }

    return observed
