"""What one fetch pass of each fabric does, pinned.

A Gear file download through the HA replica tier, an edge site or the
FaaS shared tier walks that tier's sources once per round: a replica (or
a hedged pair of them), a peer, the site cache, the shared tier, the
transport below.  The expected values in
``tests/fixtures/fetch_passes.json`` were recorded while each fabric
still hand-wrote its own pass; a later change to how the sources are
walked that moves a counter, a span, a byte on a link, the scheduler's
event count or who gets blamed for wrong bytes fails here.

Per scenario the fixture holds the report's ``as_dict()``, the fabric
stats, ``events_processed`` summed over every scheduler the run made,
each transfer log's bytes and requests with a digest of its
``(label, bytes)`` rows, a digest of every span and instant the tracer
saw, and the blame: each replica's breaker state and trips, each site's
blacklist, whether the FaaS tier was demoted.

Regenerate the fixture only when a pass is *supposed* to change::

    PYTHONPATH=src python tests/test_fetch_passes.py > tests/fixtures/fetch_passes.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_faas_testbed, publish_images
from repro.common.clock import SimScheduler
from repro.net.faas import FAAS_TIER_ENDPOINT, FaasPlatform
from repro.net.faults import (
    BrownoutWindow,
    FaultPlan,
    FaultyLink,
    OutageWindow,
    byzantine_plan,
)
from repro.net.topology import EdgeCluster, HACluster
from repro.workloads.schedule import BurstWindow, ScheduleBuilder

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "fetch_passes.json")


def _digest(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]


@contextmanager
def _schedulers():
    """Every scheduler built inside the block (a FaaS run makes its own)."""
    made, init = [], SimScheduler.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    SimScheduler.__init__ = recording
    try:
        yield made
    finally:
        SimScheduler.__init__ = init


def _links(bed) -> list:
    """One entry per transfer log (the replica links share the base's)."""
    links = bed.all_links() + (bed.edge.lan_links() if bed.edge else [])
    seen, observed = set(), []
    for link in links:
        if id(link.log) in seen:
            continue
        seen.add(id(link.log))
        log = link.log
        observed.append({
            "bytes": log.total_bytes,
            "requests": log.total_requests,
            "rows": _digest((r.label, r.payload_bytes) for r in log.records),
        })
    return observed


def _spans(tracer) -> dict:
    spans = [
        (s.id, s.parent_id, s.track, s.name, s.start_s, s.end_s,
         sorted(s.labels.items()))
        for s in tracer.spans
    ]
    instants = [(i.at_s, i.name, i.track) for i in tracer.instants]
    return {
        "spans": len(spans), "span_digest": _digest(spans),
        "instants": len(instants), "instant_digest": _digest(instants),
    }


def _blame(bed) -> dict:
    now = bed.clock.now
    blame = {}
    if bed.ha:
        blame["replicas"] = [
            [r.name, r.breaker.state(now).value, r.breaker.trips]
            for r in bed.ha.replica_set.replicas
        ]
    if bed.edge:
        blame["blacklisted"] = [sorted(s.blacklisted) for s in bed.edge.sites]
    if bed.faas:
        blame["tier"] = [
            bed.faas.blacklisted,
            bed.faas.tier.breaker.state(now).value,
            bed.faas.tier.breaker.trips,
        ]
    return blame


def _stats(bed) -> dict:
    stats = {}
    if bed.ha:
        stats["ha"] = bed.ha.policy.stats.metrics()
        stats["replicas"] = [
            dict(r.stats.metrics()) for r in bed.ha.replica_set.replicas
        ]
    if bed.edge:
        stats["edge"] = bed.edge.stats.metrics()
    if bed.faas:
        stats["faas"] = bed.faas.stats.metrics()
    return stats


def _observe(bed, run) -> dict:
    tracer = bed.clock.attach_tracer()
    with _schedulers() as made:
        report = run()
    bed.clock.detach_tracer()
    return {
        "report": json.loads(json.dumps(report.as_dict(), sort_keys=True)),
        "stats": _stats(bed),
        "events_processed": sum(s.events_processed for s in made),
        "links": _links(bed),
        "trace": _spans(tracer),
        "blame": _blame(bed),
    }


# -- the scenarios ------------------------------------------------------------


def _ha(generated, **kwargs):
    cluster = HACluster(4, replicas=3, strategy="p2c", seed="pin-ha", **kwargs)
    bed = cluster.registry_testbed
    publish_images(bed, [generated], convert=True)
    bed.arm_faults()
    return _observe(bed, lambda: cluster.deploy_wave(
        lambda node: deploy_with_gear(node.testbed, generated), concurrency=4
    ))


def _replica0(plan):
    return {"replica_fault_plans": [plan]}


HA = {
    "ha_healthy": {},
    "ha_outage": _replica0(FaultPlan(
        seed="pin-outage", outages=(OutageWindow(start_s=0.0, duration_s=1e9),)
    )),
    "ha_brownout": _replica0(FaultPlan(
        seed="pin-brownout",
        brownouts=(BrownoutWindow(start_s=0.0, duration_s=1e9, factor=6.0),),
    )),
    "ha_byzantine": _replica0(byzantine_plan(seed="pin-byzantine")),
    "ha_overload": {"admission_capacity": 1},
}


def _edge(generated):
    cluster = EdgeCluster(
        6, churn_rate_per_s=4.0, churn_horizon_s=4.0, byzantine=(1,),
        crash_node=0, crash_op_index=0, gossip_interval_s=2.0, seed="pin-edge",
    )
    bed = cluster.registry_testbed
    publish_images(bed, [generated], convert=True)
    return _observe(bed, lambda: cluster.deploy_wave(
        lambda node: deploy_with_gear(node.testbed, generated), concurrency=2
    ))


def _faas_run(corpus, bed, seed):
    stream = ScheduleBuilder(corpus, seed=seed).invocation_stream(
        duration_s=4.0, rate_per_s=3.0, functions=6,
        bursts=(BurstWindow(1.0, 1.5, 10.0),),
    )
    wanted = {invocation.image.reference for invocation in stream}
    publish_images(
        bed, [i for i in corpus.images if i.reference in wanted], convert=True
    )
    platform = FaasPlatform(bed, bed.faas, nodes=4, seed=seed)
    return _observe(bed, lambda: platform.run(stream))


def _faas_outage(corpus):
    bed = make_faas_testbed(
        seed="pin-faas", tier_admission_capacity=1, tier_fault_plan=FaultPlan(
            seed="pin-faas", targets=(FAAS_TIER_ENDPOINT,),
            outages=(OutageWindow(start_s=2.0, duration_s=1.0),),
        ),
    )
    return _faas_run(corpus, bed, "pin-faas-outage")


def _faas_byzantine(corpus):
    bed = make_faas_testbed(seed="pin-faas")
    bed.faas.tier.byzantine = True
    return _faas_run(corpus, bed, "pin-faas-byzantine")


def _faas_over_lying_ha(corpus):
    """Replica 0 serves wrong bytes that pass the wire checksum."""
    bed = make_faas_testbed(ha_replicas=2, seed="pin-liar")
    replica = bed.ha.replica_set.replicas[0]
    liar = FaultyLink(
        bed.clock, byzantine_plan("pin-liar"),
        bandwidth_mbps=replica.link.bandwidth_mbps,
    )
    liar.log = replica.link.log
    replica.link = replica.transport.link = liar
    return _faas_run(corpus, bed, "pin-faas-liar")


SCENARIOS = {
    **{name: (lambda c, kw=kw: _ha(c.by_series["nginx"][0], **kw))
       for name, kw in HA.items()},
    "edge_churn_byzantine": lambda c: _edge(c.by_series["nginx"][0]),
    "faas_spike_outage": _faas_outage,
    "faas_spike_byzantine": _faas_byzantine,
    "faas_over_lying_ha": _faas_over_lying_ha,
}


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fetch_pass_is_pinned(name, pinned, small_corpus):
    assert SCENARIOS[name](small_corpus) == pinned[name]


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
    observed = {name: run(corpus) for name, run in SCENARIOS.items()}
    json.dump(observed, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
