"""What each tier wires into a testbed and a wave, pinned.

Every tier (the HA replica set, an edge fabric, a FaaS shared cache)
adds links, metrics groups, timeline probes, wave services and wave
counters to the testbed it is attached to.  The expected values in
``tests/fixtures/tier_wiring.json`` were recorded before the wiring
moved from the testbed and cluster code into the tiers themselves; a
later move that renames, drops or reorders a metric key, a probe, a
link or a wave-report field fails here.

Regenerate the fixture only when a tier is *supposed* to wire something
new::

    PYTHONPATH=src python tests/test_tier_wiring.py > tests/fixtures/tier_wiring.json
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.blob import Blob
from repro.common.clock import SimClock, SimScheduler
from repro.common.units import MiB
from repro.bench.environment import (
    attach_edge,
    attach_faas,
    make_faas_testbed,
    make_ha_testbed,
    make_testbed,
    make_timeline_sampler,
    publish_images,
)
from repro.gear.bigfile import ChunkedGearFileViewer
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.pool import SharedFilePool
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
from repro.invariants import World, audit, flights_left
from repro.net.faults import FaultPlan, OutageWindow
from repro.net.link import Link
from repro.net.topology import EdgeCluster, HACluster
from repro.net.transport import RpcTransport
from repro.vfs.tree import FileSystemTree
from repro.workloads.tasks import task_for_category

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tier_wiring.json")


def _plan(seed: str) -> FaultPlan:
    return FaultPlan(
        seed=seed, outages=(OutageWindow(start_s=5.0, duration_s=1.0),)
    )


def _stacked():
    """FaaS tier over an edge site over a 2-replica HA registry side."""
    root = make_ha_testbed(replicas=2, replica_fault_plans=[_plan("r0")])
    node = attach_edge(root).edge.client()
    return attach_faas(node, tier_fault_plan=_plan("tier"))


TESTBEDS = {
    "plain": make_testbed,
    "ha": lambda: make_ha_testbed(
        replicas=2, replica_fault_plans=[None, _plan("r1")]
    ),
    "edge": lambda: attach_edge(make_testbed(fault_plan=_plan("wan")), sites=2),
    "faas": lambda: make_faas_testbed(tier_fault_plan=_plan("tier")),
    "faas_over_ha": lambda: make_faas_testbed(
        ha_replicas=2, replica_fault_plans=[None, _plan("r1")]
    ),
    "stacked": _stacked,
}


def _link_names(bed) -> dict:
    names = {id(bed.link): "base"}
    if bed.ha is not None:
        for replica in bed.ha.replica_set.replicas:
            names[id(replica.link)] = replica.name
    if bed.faas is not None:
        names[id(bed.faas.tier.link)] = "faas-tier"
    return names


def observe_testbed(bed) -> dict:
    names = _link_names(bed)
    return {
        "snapshot": sorted(bed.metrics.snapshot()),
        "probes": list(make_timeline_sampler(bed).series),
        "all_links": [names[id(link)] for link in bed.all_links()],
        "registry_links": [names[id(link)] for link in bed.registry_links()],
    }


WAVES = {
    "ha_wave": (lambda: HACluster(4, replicas=2), ("probes",)),
    "edge_wave": (
        lambda: EdgeCluster(4, churn_rate_per_s=1.0),
        ("gossip_rounds", "joins", "leaves"),
    ),
}


def observe_wave(name: str, generated) -> dict:
    """A 4-client wave, two at a time, with a timeline sampler attached."""
    make_cluster, service_counters = WAVES[name]
    cluster = make_cluster()
    publish_images(cluster.registry_testbed, [generated], convert=True)
    report = cluster.deploy_wave(
        lambda node: deploy_with_gear(node.testbed, generated),
        concurrency=2,
        sampler=make_timeline_sampler(cluster.registry_testbed),
    )
    summary = report.as_dict()
    return {
        "keys": list(summary),
        "events_processed": cluster.last_wave_events,
        "services": {key: summary[key] for key in service_counters},
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(TESTBEDS))
def test_testbed_wiring_is_pinned(name, pinned):
    seen = observe_testbed(TESTBEDS[name]())
    expected = pinned[name]
    assert seen["snapshot"] == expected["snapshot"]
    assert seen["all_links"] == expected["all_links"]
    assert seen["registry_links"] == expected["registry_links"]
    if name == "stacked":
        # The tiers add their probes origin outward, so on the stacked
        # chain the edge site's LAN probes now precede the FaaS tier's
        # (recorded: FaaS, then edge).  Probes are pure reads and every
        # export sorts series by name, so only the order in
        # ``sampler.series`` moved.
        assert sorted(seen["probes"]) == sorted(expected["probes"])
    else:
        assert seen["probes"] == expected["probes"]


@pytest.mark.parametrize("name", sorted(WAVES))
def test_wave_wiring_is_pinned(name, pinned, small_corpus):
    seen = observe_wave(name, small_corpus.by_series["nginx"][0])
    assert seen == pinned[name]


def _client(bed):
    """A node of ``bed``'s outermost tier, or of the testbed itself."""
    for tier in (bed.faas, bed.edge):
        if tier is not None:
            return tier.client()
    return bed.fresh_client()


def world_of(bed, nodes) -> World:
    """The nodes' pools and the tiers they hang on."""
    return World({f"node-{number}": node.gear_driver.pool
                  for number, node in enumerate(nodes)}, bed.tiers)


@pytest.mark.parametrize("name", sorted(TESTBEDS))
def test_a_wave_leaves_no_flight_in_the_air(name, small_corpus):
    """Three nodes fault in the startup set at once; when the wave has
    drained, the world they leave holds the whole invariant catalogue:
    no node pool, partial file or FaaS tier still holds a fetch in flight
    (a leak would park every later reader of that key), no partial file
    is left, and nothing stored fails its name."""
    generated = small_corpus.by_series["nginx"][0]
    task = task_for_category(generated.category)
    bed = TESTBEDS[name]()
    publish_images(bed, [generated], convert=True)
    nodes = [_client(bed) for _ in range(3)]
    mounts = []
    for node in nodes:
        node.gear_driver.pull_index(generated.gear_reference)
        container = node.gear_driver.create_container(generated.gear_reference)
        node.gear_driver.start_container(container)
        mounts.append(container.mount)
    with SimScheduler(bed.clock) as scheduler:
        for index, mount in enumerate(mounts):
            scheduler.spawn(task.run_gen, bed.clock, mount, generated.trace,
                            name=f"startup-{index}")
        scheduler.run()
    assert all(mount.fault_stats.remote_fetches > 0 for mount in mounts)
    assert audit(world_of(bed, nodes)) == {}


BIG_PATH = "/models/weights.bin"
BIG = 8 * MiB


def big_file_index(registry) -> GearIndex:
    """An index over one ``BIG``-byte file, uploaded to ``registry``."""
    root = FileSystemTree()
    root.write_file(BIG_PATH, Blob.synthetic("fabric-weights", BIG), parents=True)
    registry.upload(GearFile.from_blob(root.read_blob(BIG_PATH)))
    return GearIndex.from_tree("weights.gear", "v1", root)


def whole_file_digest() -> str:
    """The file faulted in whole over a plain wire: the control."""
    transport = RpcTransport(Link(SimClock(), bandwidth_mbps=904))
    registry = GearRegistry()
    transport.bind(registry.endpoint())
    control = GearFileViewer(big_file_index(registry), SharedFilePool(), transport=transport)
    control.read_blob(BIG_PATH)
    return control.fs_digest()


@pytest.mark.parametrize("name", sorted(TESTBEDS))
def test_chunk_reads_over_a_fabric_leave_no_flight_and_land_the_file(name):
    """Two nodes of the outermost tier read overlapping ranges of a big
    file chunk-wise through their own transports, in two waves: the
    first leaves the last chunks unread, so each node still holds a
    partial file whose chunk flights must be empty; the second completes
    it and leaves a world that holds the whole catalogue.  No chunk is
    fetched twice on a node, and the landed file is the one a whole-file
    read over a plain wire gives."""
    bed = TESTBEDS[name]()
    index = big_file_index(bed.gear_registry)
    nodes = [_client(bed), _client(bed)]
    viewers = [ChunkedGearFileViewer(index, node.gear_driver.pool, transport=node.transport,
                                     big_file_threshold=1 * MiB) for node in nodes]
    identity = index.entries[BIG_PATH].identity
    quarter = BIG // 4

    def wave(spans):
        with SimScheduler(bed.clock) as scheduler:
            for number, viewer in enumerate(viewers):
                for start, length in spans:
                    scheduler.spawn(viewer.read_range_gen, BIG_PATH, start, length,
                                    name=f"reader-{number}-{start}")
            scheduler.run()

    # Each reader takes its quarter and half the next: boundary chunks are contended.
    wave([(start, quarter + quarter // 2) for start in range(0, 3 * quarter, quarter)])
    assert all(identity in node.gear_driver.pool.partials for node in nodes)
    assert flights_left(world_of(bed, nodes)) == []
    wave([(3 * quarter, quarter), (3 * quarter + quarter // 2, quarter // 2)])
    assert audit(world_of(bed, nodes)) == {}
    assert all(node.gear_driver.pool.contains(identity) for node in nodes)
    assert [viewer.chunk_stats.duplicate_chunk_fetches for viewer in viewers] == [0, 0]
    assert all(viewer.chunk_stats.coalesced_waits > 0 for viewer in viewers)
    assert {viewer.fs_digest() for viewer in viewers} == {whole_file_digest()}


if __name__ == "__main__":
    from repro.workloads.corpus import CorpusBuilder, CorpusConfig

    corpus = CorpusBuilder(
        CorpusConfig(
            seed=7,
            file_scale=0.25,
            size_scale=0.1,
            series_names=("nginx", "tomcat"),
            versions_cap=4,
        )
    ).build()
    observed = {name: observe_testbed(make()) for name, make in TESTBEDS.items()}
    for name in WAVES:
        observed[name] = observe_wave(name, corpus.by_series["nginx"][0])
    json.dump(observed, sys.stdout, indent=1)
    sys.stdout.write("\n")
