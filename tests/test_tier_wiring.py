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
from repro.bench.environment import (
    attach_edge,
    attach_faas,
    make_faas_testbed,
    make_ha_testbed,
    make_testbed,
    make_timeline_sampler,
    publish_images,
)
from repro.net.faults import FaultPlan, OutageWindow
from repro.net.topology import EdgeCluster, HACluster

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
        ha_replicas=2, fault_plan=_plan("wan")
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
