"""The paper's own studies, one function each (DESIGN.md §4).

``STUDIES`` maps a cell of the ``repro.cli paper`` sweep to a
:class:`Study`: ``measure(corpus)`` runs the experiment and returns its
numbers (scalars, per-category dicts, and lists aligned with an axis list
that sits beside them), ``paper`` holds the paper's numbers at the same
key paths, and ``shape(measured)`` names the ordinal claims — an
ordering, a monotone trend, a sign, an "about equal" — that hold on any
corpus, smoke-sized ones included.  A shape predicate compares measured
quantities with each other, never with a calibrated constant: the
thresholds that need full-size images are checked against the recorded
full-size run (``benchmarks/artifacts/PAPER_full.json``,
``tests/test_paper_full.py``).  :func:`render` turns cells into the
measured-vs-paper tables of the CLI's text mode and of EXPERIMENTS.md.
A study that reads a series or category the corpus lacks raises
``KeyError`` naming it.
"""

from __future__ import annotations

import re
from statistics import fmean
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple

from repro.analysis import category_redundancy, compute_dedup_table
from repro.baselines.duphunter import DupHunterRegistry
from repro.baselines.layerpack import pack_layers
from repro.baselines.slacker import SlackerDriver
from repro.bench.deploy import (
    DeploymentResult,
    deploy_with_docker,
    deploy_with_gear,
    deploy_with_slacker,
)
from repro.bench.environment import Testbed, make_testbed, publish_images
from repro.bench.storage import (
    category_savings,
    compare_storage,
    compare_storage_by_series,
)
from repro.blob import Blob
from repro.common.clock import SimClock, SimScheduler
from repro.common.units import MiB
from repro.gear.bigfile import ChunkedGearFileViewer
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.pool import EvictionPolicy, SharedFilePool
from repro.gear.prefetch import Prefetcher, TraceRecorder
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
from repro.net.link import Link
from repro.net.transport import RpcTransport
from repro.storage.disk import SSD
from repro.vfs.tree import FileSystemTree
from repro.workloads.corpus import Corpus, GeneratedImage
from repro.workloads.series import SERIES
from repro.workloads.services import SERVICES, run_service
from repro.workloads.tasks import task_for_category


class Study(NamedTuple):
    """One table or figure: how it is measured, what the paper reports,
    and the ordinal claims any corpus must reproduce."""

    title: str
    measure: Callable[[Corpus], dict]
    paper: dict
    shape: Callable[[dict], Dict[str, bool]]


def deploy_versions(
    testbed: Testbed,
    images: Iterable[GeneratedImage],
    docker_client: Callable[[], Testbed],
    gear_client: Testbed,
) -> Iterator[List[DeploymentResult]]:
    """Deploy ``images`` in order under Docker, Gear and Slacker (§V-E2);
    one ``[docker, gear, slacker]`` result row per version.

    Gear and Slacker keep one client for the whole sequence;
    ``docker_client()`` names the Docker node of each version (the same
    one every time, or a cold one).
    """
    slacker = SlackerDriver(testbed.clock, testbed.link)
    for generated in images:
        yield [
            deploy_with_docker(docker_client(), generated),
            deploy_with_gear(gear_client, generated),
            deploy_with_slacker(slacker, testbed, generated),
        ]


def table2(corpus: Corpus) -> dict:
    """Table II: storage and object count at each dedup granularity (§II-D)."""
    table = compute_dedup_table(corpus.docker_images())
    rows = table.rows()
    reduction = table.reduction_vs_none()
    return {
        "granularity": [name for name, _, _ in rows],
        "storage_gb": [size / 1e9 for _, size, _ in rows],
        "objects": [count for _, _, count in rows],
        "reduction": [0.0, *(reduction[k] for k in ("layer", "file", "chunk"))],
        "chunk_object_blowup": table.chunk_object_blowup,
    }


def _table2_shape(m: dict) -> Dict[str, bool]:
    _, layer, file, chunk = m["reduction"]
    return {
        "finer_granularity_saves_more": layer < file <= chunk,
        # §II-D: file level captures nearly all of chunk level's saving...
        "file_level_captures_most_of_chunk_level": chunk - file < file - layer,
        # ...at a fraction of the objects to manage.
        "chunking_multiplies_objects": m["objects"][3] > m["objects"][2],
    }


def fig2(corpus: Corpus) -> dict:
    """Fig. 2: redundancy among the necessary launch data of a series."""
    return {"redundancy": category_redundancy(corpus)}


def _fig2_shape(m: dict) -> Dict[str, bool]:
    redundancy = m["redundancy"]
    distro = redundancy["Linux Distro"]
    return {
        "database_above_distro": redundancy["Database"] > distro,
        "platform_above_distro": redundancy["Application Platform"] > distro,
    }


#: Series re-converted on the SSD profile for Fig. 6's HDD/SSD comparison.
SSD_SAMPLE = ("node", "tomcat", "debian", "golang", "mysql")


def _conversions(testbed: Testbed, images) -> Dict[str, tuple]:
    """Publish and convert ``images``; per series, (average image bytes,
    average conversion seconds)."""
    by_series: Dict[str, list] = {}
    for report in publish_images(testbed, images, convert=True):
        by_series.setdefault(report.reference.split(":")[0], []).append(report)
    return {
        name: (fmean(r.image_bytes for r in reports),
               fmean(r.duration_s for r in reports))
        for name, reports in by_series.items()
    }


def fig6(corpus: Corpus) -> dict:
    """Fig. 6: Docker→Gear conversion time by image size, HDD vs SSD."""
    hdd = _conversions(make_testbed(), corpus.images)
    ssd = _conversions(
        make_testbed(registry_disk=SSD),
        [g for g in corpus.images if g.spec.name in SSD_SAMPLE],
    )
    seconds = [s for _, s in sorted(hdd.values())]  # smallest images first
    quarter = max(1, len(seconds) // 4)
    return {
        "avg_conversion_s": fmean(seconds),
        "smallest_quartile_s": fmean(seconds[:quarter]),
        "largest_quartile_s": fmean(seconds[-quarter:]),
        "hdd_s": {name: hdd[name][1] for name in ssd},
        "ssd_s": {name: s for name, (_, s) in ssd.items()},
    }


def _fig6_shape(m: dict) -> Dict[str, bool]:
    return {
        # Per-file work dominates, so time follows image size.
        "time_grows_with_image_size":
            m["largest_quartile_s"] > m["smallest_quartile_s"],
        "ssd_converts_faster": all(
            m["ssd_s"][name] < hdd for name, hdd in m["hdd_s"].items()),
    }


def fig7(corpus: Corpus) -> dict:
    """Fig. 7: registry storage saving per category (a) and overall (b)."""
    saving = category_savings(
        compare_storage_by_series(corpus.by_series),
        {spec.name: spec.category for spec in SERIES},
    )
    whole = compare_storage("corpus", corpus.images)
    return {
        "saving": {**saving, "Whole registry": whole.saving_fraction},
        "docker_gb": whole.docker_bytes / 1e9,
        "gear_gb": whole.gear_bytes / 1e9,
        "index_share": whole.index_share,
    }


def _fig7_shape(m: dict) -> Dict[str, bool]:
    saving = m["saving"]
    return {
        "gear_registry_is_smaller": m["gear_gb"] < m["docker_gb"],
        # Base images churn whole; application images mostly their app data.
        "distro_lt_language_lt_database":
            saving["Linux Distro"] < saving["Language"] < saving["Database"],
    }


def fig8(corpus: Corpus) -> dict:
    """Fig. 8: bytes a deployment moves, with and without the local cache."""
    # Three versions per series exercise cross-version sharing while
    # keeping the sweep tractable.
    sample = [g for images in corpus.by_series.values() for g in images[:3]]
    testbed = make_testbed()
    publish_images(testbed, sample, convert=True)
    moved: Dict[str, list] = {}  # category -> [docker, no-cache, cached] bytes
    for generated in sample:
        row = moved.setdefault(generated.category, [0, 0, 0])
        row[0] += deploy_with_docker(
            testbed.fresh_client(), generated).network_bytes
        row[1] += deploy_with_gear(
            testbed.fresh_client(), generated, clear_cache=True).network_bytes
    cached = testbed.fresh_client()  # one long-lived client accrues the cache
    for generated in sample:
        moved[generated.category][2] += deploy_with_gear(
            cached, generated).network_bytes
    moved["All"] = [sum(column) for column in zip(*moved.values())]
    docker, no_cache, with_cache = moved["All"]
    return {
        "moved_gb": {"docker": docker / 1e9, "gear_no_cache": no_cache / 1e9,
                     "gear_cached": with_cache / 1e9},
        "no_cache_share": {c: row[1] / row[0] for c, row in moved.items()},
        "cached_share": {c: row[2] / row[0] for c, row in moved.items()},
    }


def _fig8_shape(m: dict) -> Dict[str, bool]:
    moved = m["moved_gb"]
    return {
        "gear_moves_fewer_bytes": moved["gear_no_cache"] < moved["docker"],
        "cache_moves_fewer_still": moved["gear_cached"] < moved["gear_no_cache"],
    }


FIG9_MBPS = (904, 100, 20, 5)


def fig9(corpus: Corpus) -> dict:
    """Fig. 9: average pull and run time of every system at four bandwidths."""
    # One representative version per series keeps 4 bandwidths tractable.
    sample = [images[0] for images in corpus.by_series.values()]
    testbed = make_testbed()
    publish_images(testbed, sample, convert=True)
    m: Dict[str, list] = {"mbps": list(FIG9_MBPS)}
    for mbps in FIG9_MBPS:
        testbed.set_bandwidth(mbps)
        # §V-D cached scenario: one long-lived client "maintains and uses
        # its locally cached files" — each deployment profits from what
        # earlier ones pulled, not from a copy of itself.
        cached = testbed.fresh_client()
        runs = {
            "docker": [deploy_with_docker(testbed.fresh_client(), g)
                       for g in sample],
            "gear_nc": [deploy_with_gear(testbed.fresh_client(), g,
                                         clear_cache=True) for g in sample],
            "gear_cache": [deploy_with_gear(cached, g) for g in sample],
        }
        total = {}
        for system, results in runs.items():
            pull = fmean(r.pull_s for r in results)
            run = fmean(r.run_s for r in results)
            m.setdefault(f"{system}_pull_s", []).append(pull)
            m.setdefault(f"{system}_run_s", []).append(run)
            total[system] = pull + run
        for mode in ("cache", "nc"):
            m.setdefault(f"speedup_{mode}", []).append(
                total["docker"] / total[f"gear_{mode}"])
    return m


def _fig9_shape(m: dict) -> Dict[str, bool]:
    def total(system):
        return [pull + run for pull, run in
                zip(m[f"{system}_pull_s"], m[f"{system}_run_s"])]

    speedup = m["speedup_cache"]
    return {
        # §V-E1: only the index travels at pull time; files fault in at run.
        "gear_pulls_shorter_at_every_bandwidth": all(
            g < d for g, d in zip(m["gear_nc_pull_s"], m["docker_pull_s"])),
        "gear_runs_longer_at_every_bandwidth": all(
            g > d for g, d in zip(m["gear_nc_run_s"], m["docker_run_s"])),
        "cached_no_slower_than_no_cache": all(
            c <= n for c, n in zip(total("gear_cache"), total("gear_nc"))),
        "speedup_grows_as_bandwidth_falls": all(
            fast < slow for fast, slow in zip(speedup, speedup[1:])),
    }


FIG10_MBPS = (1000, 100)
SYSTEMS = ("docker", "gear", "slacker")


def fig10(corpus: Corpus) -> dict:
    """Fig. 10: the tomcat chain deployed one version at a time (§V-E2)."""
    versions = corpus.by_series["tomcat"]
    testbed = make_testbed()
    publish_images(testbed, versions, convert=True)
    m: Dict[str, dict] = {}
    for mbps in FIG10_MBPS:
        testbed.set_bandwidth(mbps)
        # One long-lived client per system: sharing accrues across the
        # sequence exactly as on the paper's single test node.
        docker_node = testbed.fresh_client()
        rows = list(deploy_versions(
            testbed, versions, lambda: docker_node, testbed.fresh_client()))
        m[f"versions_{mbps}_s"] = {
            system: [row[i].total_s for row in rows]
            for i, system in enumerate(SYSTEMS)
        }
        m[f"avg_{mbps}_s"] = {
            system: fmean(times)
            for system, times in m[f"versions_{mbps}_s"].items()
        }
    m["slowdown"] = {
        system: m["avg_100_s"][system] / m["avg_1000_s"][system]
        for system in SYSTEMS
    }
    return m


def _fig10_shape(m: dict) -> Dict[str, bool]:
    slacker = m["versions_1000_s"]["slacker"]
    early = fmean(slacker[:3])
    later = fmean(slacker[len(slacker) // 2:])
    slowdown = m["slowdown"]
    return {
        # No sharing mechanism: later versions cost what early ones did.
        "slacker_flat_across_versions": abs(later - early) < 0.35 * early,
        # §V-E2: a bandwidth drop hurts whole-image pulls the most.
        "gear_slows_down_least":
            slowdown["gear"] < min(slowdown["docker"], slowdown["slacker"]),
    }


LIFECYCLE_ROUNDS = 100


def _lifecycle(clock: SimClock, launch, trace, destroy) -> Dict[str, float]:
    """Average launch / request / destroy seconds over the rounds."""
    spent = {"launch": 0.0, "request": 0.0, "destroy": 0.0}
    for _ in range(LIFECYCLE_ROUNDS):
        timer = clock.timer()
        container = launch()
        spent["launch"] += timer.restart()
        for path, _ in trace.accesses:
            container.mount.read_blob(path)
        spent["request"] += timer.restart()
        destroy(container)
        spent["destroy"] += timer.restart()
    return {phase: total / LIFECYCLE_ROUNDS for phase, total in spent.items()}


def fig11(corpus: Corpus) -> dict:
    """Fig. 11: steady-state service throughput (a), Httpd lifecycle (b)."""
    targets = {spec.name: corpus.by_series[spec.name][0] for spec in SERVICES}
    testbed = make_testbed()
    publish_images(testbed, targets.values(), convert=True)
    clock = testbed.clock
    rates: Dict[str, dict] = {"docker": {}, "gear": {}}
    for spec in SERVICES:
        generated = targets[spec.name]
        docker, gear = testbed.fresh_client(), testbed.fresh_client()
        docker.daemon.pull(generated.reference)
        mounts = {
            "docker": docker.daemon.run(generated.reference).mount,
            "gear": gear.gear_driver.deploy(generated.gear_reference)[0].mount,
        }
        # The paper measures sustained memtier/ab throughput, after Gear's
        # one-time first-touch faults: warm both to steady state.
        for mount in mounts.values():
            for path, _ in generated.trace.accesses[: spec.working_set_files]:
                mount.read_blob(path)
        for system, mount in mounts.items():
            rates[system][spec.name] = run_service(
                clock, mount, generated.trace, spec).requests_per_second

    httpd = targets["httpd"]
    docker, gear = testbed.fresh_client(), testbed.fresh_client()
    docker.daemon.pull(httpd.reference)
    gear.gear_driver.pull_index(httpd.gear_reference)

    def launch_gear():
        container = gear.gear_driver.create_container(httpd.gear_reference)
        gear.gear_driver.start_container(container)
        return container

    requests = httpd.trace.head(12)
    return {
        "throughput_rps": rates,
        "gear_over_docker": {name: rates["gear"][name] / rate
                             for name, rate in rates["docker"].items()},
        "lifecycle_s": {
            "docker": _lifecycle(
                clock, lambda: docker.daemon.run(httpd.reference), requests,
                docker.daemon.destroy_container),
            "gear": _lifecycle(
                clock, launch_gear, requests,
                gear.gear_driver.destroy_container),
        },
    }


def _fig11_shape(m: dict) -> Dict[str, bool]:
    docker, gear = m["lifecycle_s"]["docker"], m["lifecycle_s"]["gear"]
    rates = m["throughput_rps"]
    return {
        # Lazy retrieval costs nothing at steady state (within 5%).
        "steady_state_throughput_matches": all(
            abs(rates["gear"][name] - rate) < 0.05 * rate
            for name, rate in rates["docker"].items()),
        # §V-F: teardown destroys only the inode caches actually used.
        "gear_destroys_faster": gear["destroy"] < docker["destroy"],
        "gear_launch_comparable": gear["launch"] < 1.1 * docker["launch"],
        "gear_lifecycle_comparable":
            sum(gear.values()) < 1.05 * sum(docker.values()),
    }


def _short_lived_jobs(sample, policy, capacity, clear_cache=False):
    """Deploy ``sample`` as short-lived jobs; (remote bytes, the pool).

    Each container is destroyed and its *image* removed after the
    deployment ("old images have to be replaced quickly", §II-D), so
    cached files unpin and become eviction candidates — the regime where
    capacity and policy actually matter.
    """
    testbed = make_testbed(pool_capacity_bytes=capacity, pool_policy=policy)
    publish_images(testbed, sample, convert=True)
    client = testbed.fresh_client()
    driver = client.gear_driver
    total = 0
    for generated in sample:
        total += deploy_with_gear(
            client, generated, clear_cache=clear_cache).network_bytes
        driver.destroy_container(driver.containers()[-1])
        driver.remove_image(generated.gear_reference)
    return total, driver.pool


def ablation_cache(corpus: Corpus) -> dict:
    """§III-D1 leaves the cache policy to the operator: what it costs."""
    sample = [g for name in ("tomcat", "nginx", "mysql")
              for g in corpus.by_series[name][:6]]
    unbounded, pool = _short_lived_jobs(sample, EvictionPolicy.LRU, None)
    # A third of the unique bytes the sweep touches: tight enough to force
    # evictions, loose enough to retain value.
    capacity = max(1, pool.used_bytes // 3)
    remote = {
        "unbounded": unbounded,
        "lru_third": _short_lived_jobs(sample, EvictionPolicy.LRU, capacity)[0],
        "fifo_third":
            _short_lived_jobs(sample, EvictionPolicy.FIFO, capacity)[0],
        "no_cache": _short_lived_jobs(
            sample, EvictionPolicy.LRU, None, clear_cache=True)[0],
    }
    return {"remote_mb": {k: v / 1e6 for k, v in remote.items()}}


def _ablation_cache_shape(m: dict) -> Dict[str, bool]:
    remote = m["remote_mb"]
    return {
        "any_cache_beats_none": remote["unbounded"] < remote["no_cache"],
        # A bounded cache sits between: evictions cost refetches.
        "lru_between_unbounded_and_none":
            remote["unbounded"] <= remote["lru_third"] <= remote["no_cache"],
        "fifo_between_unbounded_and_none":
            remote["unbounded"] <= remote["fifo_third"] <= remote["no_cache"],
    }


MODEL_PATH = "/models/llm.bin"
MODEL_BYTES = 256 * MiB
#: (offset, length) reads the model loader issues at startup: header,
#: embedding table, trailing metadata — ~3 MiB of the 256.
STARTUP_READS = (
    (0, 64 * 1024),
    (1 * MiB, 2 * MiB),
    (MODEL_BYTES - 512 * 1024, 512 * 1024),
)


def ablation_bigfile(corpus: Corpus) -> dict:
    """§VII future work: an "AI container" whose startup reads a sliver
    of a multi-GB model, whole-file Gear vs the chunked viewer."""
    m: Dict[str, dict] = {"startup_s": {}, "moved_mb": {}}
    for mode, viewer_cls in (("whole_file", GearFileViewer),
                             ("chunked", ChunkedGearFileViewer)):
        root = FileSystemTree()
        root.write_file(MODEL_PATH, Blob.synthetic("llm-weights", MODEL_BYTES),
                        parents=True)
        root.write_file("/etc/serving.conf", b"threads=8", parents=True)
        clock = SimClock()
        link = Link(clock, bandwidth_mbps=100)
        transport = RpcTransport(link)
        registry = GearRegistry()
        transport.bind(registry.endpoint())
        for _, node in root.iter_files():
            registry.upload(GearFile.from_blob(node.blob))
        viewer = viewer_cls(GearIndex.from_tree("ai.gear", "v1", root),
                            SharedFilePool(), transport=transport)
        viewer.read_bytes("/etc/serving.conf")
        for offset, length in STARTUP_READS:
            if mode == "chunked":
                viewer.read_range(MODEL_PATH, offset, length)
            else:  # whole-file Gear downloads the model before any read
                viewer.read_blob(MODEL_PATH)
        m["startup_s"][mode] = clock.now
        m["moved_mb"][mode] = link.log.total_bytes / 1e6
    return m


def _ablation_bigfile_shape(m: dict) -> Dict[str, bool]:
    # The startup reads touch ~1% of the model: an order of magnitude.
    return {
        "chunked_moves_a_tenth_of_the_bytes":
            10 * m["moved_mb"]["chunked"] < m["moved_mb"]["whole_file"],
        "chunked_starts_five_times_sooner":
            5 * m["startup_s"]["chunked"] < m["startup_s"]["whole_file"],
    }


PREFETCH_MODES = ("demand-only", "prefetch-all", "prefetch-half", "overlapped")


def ablation_prefetch(corpus: Corpus) -> dict:
    """Gear fetches strictly on demand (§III-D2); replaying a recorded
    startup profile ahead of, or beside, the task moves that latency."""
    generated = corpus.by_series["tomcat"][0]
    reference = generated.gear_reference
    # 20 Mbps: fetch latency dominates, so moving it shows.
    testbed = make_testbed(bandwidth_mbps=20)
    publish_images(testbed, [generated], convert=True)
    clock, link_log = testbed.clock, testbed.link.log
    task = task_for_category(generated.category)

    def started_container():
        driver = testbed.fresh_client().gear_driver
        driver.pull_index(reference)
        container = driver.create_container(reference)
        driver.start_container(container)
        return driver, container

    # Record a profile from one observation deployment.
    recorder = TraceRecorder()
    _, observed = started_container()
    task.run(clock, observed.mount, generated.trace)
    profile = recorder.record(reference, observed.mount)

    m: Dict[str, list] = {"mode": list(PREFETCH_MODES), "prefetch_s": [],
                          "task_s": [], "remote_fetches": [], "wire_mb": []}
    wire = {}
    for mode in PREFETCH_MODES:
        driver, container = started_container()
        bytes_before = link_log.total_bytes
        timer = clock.timer()
        if mode == "overlapped":
            # The profile replays *while* the task runs, sharing the link.
            with SimScheduler(clock) as scheduler:
                driver.spawn_prefetch(container, profile)
                startup = scheduler.spawn(
                    task.run, clock, container.mount, generated.trace,
                    name="startup")
                scheduler.run()
            prefetch_s, task_s = 0.0, startup.finished_at - timer.start
        else:
            if mode != "demand-only":
                budget = (profile.total_bytes // 2
                          if mode == "prefetch-half" else None)
                Prefetcher(recorder).prefetch(
                    reference, container.mount, byte_budget=budget)
            prefetch_s = timer.restart()
            task.run(clock, container.mount, generated.trace)
            task_s = timer.elapsed()
        wire[mode] = link_log.total_bytes - bytes_before
        m["prefetch_s"].append(prefetch_s)
        m["task_s"].append(task_s)
        m["remote_fetches"].append(container.mount.fault_stats.remote_fetches)
        m["wire_mb"].append(wire[mode] / 1e6)
    m["overlap_duplicate_bytes"] = wire["overlapped"] - wire["demand-only"]
    return m


def _ablation_prefetch_shape(m: dict) -> Dict[str, bool]:
    demand, everything, half, overlap = m["task_s"]
    return {
        # Prefetching does not reduce bytes; it moves them off the task.
        "prefetch_all_shortens_the_task": everything < demand,
        "prefetch_half_shortens_the_task": half < demand,
        "overlap_beats_demand_only": overlap < demand,
        "overlap_beats_serial_prefetch":
            overlap < m["prefetch_s"][1] + everything,
        # Single-flight coalescing: racing the task duplicates no bytes.
        "overlap_duplicates_no_bytes": m["overlap_duplicate_bytes"] == 0,
    }


def related_work(corpus: Corpus) -> dict:
    """The §VI design space on one version chain: registry bytes stored
    and bytes cold deployments download, for all four points."""
    chain = corpus.by_series["tomcat"]
    sample = chain[:4]  # the cold deploys measured on the wire
    testbed = make_testbed()
    publish_images(testbed, chain, convert=True)
    gear_stored = testbed.gear_registry.stored_bytes + sum(
        testbed.docker_registry.get_manifest(g.gear_reference).layer_sizes[0]
        for g in chain
    )
    docker_wire = sum(
        deploy_with_docker(testbed.fresh_client(), g).network_bytes
        for g in sample)
    gear_wire = sum(
        deploy_with_gear(
            testbed.fresh_client(), g, clear_cache=True).network_bytes
        for g in sample)
    # DupHunter: file-dedup storage, whole-image pulls.
    duphunter = DupHunterRegistry(SimClock())
    for generated in chain:
        duphunter.push_image(generated.image)
    duphunter_wire = sum(
        duphunter.serve_layer(digest)[1]
        for g in sample
        for digest in duphunter.get_manifest(g.reference).layer_digests
    )
    # Layer restructuring: regrouped layers, whole-layer pulls; each cold
    # client downloads every packed layer its image references.
    packed = pack_layers([g.image for g in chain], min_layer_bytes=2 * MiB)
    stored = (testbed.docker_registry.stored_bytes, duphunter.stored_bytes,
              packed.stored_bytes, gear_stored)
    wire = (docker_wire, duphunter_wire,
            sum(packed.bytes_per_image[: len(sample)]), gear_wire)
    return {
        "system": ["docker", "duphunter", "layer-restructured", "gear"],
        "registry_mb": [b / 1e6 for b in stored],
        "wire_mb": [b / 1e6 for b in wire],
    }


def _related_work_shape(m: dict) -> Dict[str, bool]:
    docker_mb, duphunter_mb, packed_mb, gear_mb = m["registry_mb"]
    docker_wire, duphunter_wire, _, gear_wire = m["wire_mb"]
    return {
        # §VI: a deduplicating registry saves storage, not bandwidth...
        "duphunter_saves_storage": duphunter_mb < docker_mb,
        "duphunter_saves_no_bandwidth": duphunter_wire > 0.95 * docker_wire,
        # ...restructured layers sit between Docker and file level...
        "restructuring_saves_storage": packed_mb < docker_mb,
        # ...and Gear improves both axes at once.
        "gear_saves_storage_and_bandwidth":
            gear_mb < docker_mb and gear_wire < docker_wire,
    }


#: The sweep's cells, in DESIGN.md §4 order.
STUDIES: Dict[str, Study] = {
    "table2": Study(
        "Table II — storage and objects by dedup granularity", table2,
        {"storage_gb": [370, 98, 47, 43],
         "objects": [971, 5_670, 639_585, 10_478_675],
         "reduction": [0.0, 0.74, 0.87, 0.88], "chunk_object_blowup": 16.4},
        _table2_shape),
    "fig2": Study(
        "Fig. 2 — redundancy of necessary data within a series", fig2,
        {"redundancy": {"Database": 0.560, "Application Platform": 0.574,
                        "Average": 0.399}},
        _fig2_shape),
    "fig6": Study(
        "Fig. 6 — Docker→Gear conversion time", fig6,
        {"avg_conversion_s": 46.0, "hdd_s": {"node": 105.0},
         "ssd_s": {"node": 36.0}},
        _fig6_shape),
    "fig7": Study(
        "Fig. 7 — registry storage saving of Gear over Docker", fig7,
        {"saving": {"Linux Distro": 0.205, "Language": 0.328,
                    "Database": 0.522, "Web Component": 0.609,
                    "Application Platform": 0.586, "Others": 0.467,
                    "Whole registry": 0.537},
         "index_share": 0.011},
        _fig7_shape),
    "fig8": Study(
        "Fig. 8 — bytes moved during deployment, relative to Docker", fig8,
        {"no_cache_share": {"All": 0.291}, "cached_share": {"All": 0.162}},
        _fig8_shape),
    "fig9": Study(
        "Fig. 9 — deployment time (pull + run) vs bandwidth", fig9,
        {"speedup_cache": [1.64, 2.61, 3.45, 5.01],
         "speedup_nc": [1.40, 1.92, 2.23, 2.95]},
        _fig9_shape),
    "fig10": Study(
        "Fig. 10 — Tomcat versions deployed one by one", fig10,
        {"avg_1000_s": {"docker": 6.08, "slacker": 3.03, "gear": 3.04},
         "slowdown": {"docker": 2.7, "slacker": 2.6, "gear": 1.2}},
        _fig10_shape),
    "fig11": Study(
        "Fig. 11 — service throughput and Httpd lifecycle ×100", fig11,
        {"gear_over_docker": {spec.name: 1.0 for spec in SERVICES}},
        _fig11_shape),
    "ablation-cache": Study(
        "Ablation — shared-cache policy vs remote traffic", ablation_cache,
        {}, _ablation_cache_shape),
    "ablation-bigfile": Study(
        "Ablation — 256 MiB model, partial startup reads @ 100 Mbps",
        ablation_bigfile, {}, _ablation_bigfile_shape),
    "ablation-prefetch": Study(
        "Ablation — prefetching one cold tomcat deployment @ 20 Mbps",
        ablation_prefetch, {}, _ablation_prefetch_shape),
    "related-work": Study(
        "§VI design space — tomcat chain stored, four cold deploys moved",
        related_work, {}, _related_work_shape),
}


def run(name: str, corpus: Corpus) -> dict:
    """Cell ``name`` of the sweep: measured numbers, the paper's beside
    them, and the named shape booleans."""
    study = STUDIES[name]
    measured = study.measure(corpus)
    return {"measured": measured, "paper": study.paper,
            "shape": study.shape(measured)}


def leaves(tree: dict, prefix: str = "") -> Iterator[tuple]:
    """``(dotted key path, value)`` for every non-dict value, in key order."""
    for key, value in sorted(tree.items()):
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _show(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, list):
        return " ".join(_show(item) for item in value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return f"{value:,}" if isinstance(value, int) else value


def render(cells: Dict[str, dict]) -> str:
    """Per cell, its title line and the measured-vs-paper table (GitHub
    pipe syntax, one row per quantity in key order)."""
    blocks = []
    for name, cell in cells.items():
        paper = dict(leaves(cell["paper"]))
        held = sum(map(bool, cell["shape"].values()))
        blocks.append("".join([
            f"**{STUDIES[name].title}** "
            f"({held}/{len(cell['shape'])} shape invariants hold)\n\n",
            "| Quantity | Paper | Measured |\n|---|---|---|\n",
            *(f"| {path} | {_show(paper.get(path))} | {_show(value)} |\n"
              for path, value in leaves(cell["measured"])),
        ]))
    return "\n".join(blocks)


def splice(document: str, cells: Dict[str, dict]) -> str:
    """``document`` with the table under each cell's bold title line
    replaced by :func:`render`'s for that cell (EXPERIMENTS.md keeps its
    hand-written prose between generated tables)."""
    for name, cell in cells.items():
        title = re.escape(f"**{STUDIES[name].title}**")
        document, found = re.subn(
            rf"^{title}.*\n\n(?:\|.*\n)+", lambda _: render({name: cell}),
            document, flags=re.MULTILINE)
        if found != 1:
            raise ValueError(f"document has {found} generated tables for {name}")
    return document
