#!/usr/bin/env python
"""Scenario: a day of mixed deployments on a bandwidth-limited edge site.

Edge/IoT nodes redeploy a heavy-tailed mix of images all day (§V-E1
names this the regime where Gear shines).  The fleet now sits behind the
multi-tier topology from :mod:`repro.net.edge`: a handful of nodes share
one site LAN, peer-serve Gear files they already hold, and only fall
back to the registry across the thin WAN uplink.

We replay the same zipf-popular deployment stream twice — once through
the edge tier, once registry-only — and check the two promises the tier
makes: every container filesystem is byte-identical to the registry-only
run (peers can never change *what* is deployed, only *where the bytes
came from*), and a meaningful share of fetches never touches the WAN.

Run:  PYTHONPATH=src python examples/edge_node_day.py
"""

from repro.bench.deploy import container_fs_digest, deploy_with_gear
from repro.bench.environment import attach_edge, make_testbed, publish_images
from repro.bench.reporting import format_table
from repro.common.stats import percentile
from repro.workloads.corpus import CorpusBuilder, CorpusConfig
from repro.workloads.schedule import ScheduleBuilder

EVENTS = 24
NODES = 4
WAN_MBPS = 20
LAN_MBPS = 200


def _build_corpus():
    return CorpusBuilder(
        CorpusConfig(
            seed=7,
            file_scale=0.3,
            size_scale=0.3,
            series_names=("nginx", "redis", "python"),
            versions_cap=4,
        )
    ).build()


def _replay(root, nodes, schedule, *, gossip=None):
    """Deploy the stream round-robin across nodes on one topology.

    Returns per-event latencies, per-event container digests, and the
    registry (WAN) traffic the day cost.
    """
    latencies = []
    digests = []
    wan_before = root.link.log.total_bytes
    for index, event in enumerate(schedule):
        node = nodes[index % len(nodes)]
        latencies.append(deploy_with_gear(node, event.image).total_s)
        digests.append(container_fs_digest(node.gear_driver.containers()[-1]))
        if gossip is not None:
            gossip()
    return latencies, digests, root.link.log.total_bytes - wan_before


def main() -> None:
    print("generating the site's image mix…")
    corpus = _build_corpus()
    schedule = ScheduleBuilder(corpus).popularity_stream(EVENTS, skew=1.1)
    repeats = sum(1 for event in schedule if event.is_repeat)
    print(
        f"schedule: {EVENTS} deployments across {NODES} nodes, "
        f"{repeats} repeats of hot images"
    )

    print("replaying registry-only (every byte over the WAN)…")
    flat_root = make_testbed(bandwidth_mbps=WAN_MBPS)
    publish_images(flat_root, corpus.images, convert=True)
    flat_nodes = [flat_root.fresh_client() for _ in range(NODES)]
    flat_lat, flat_digests, flat_wan = _replay(
        flat_root, flat_nodes, schedule
    )

    print("replaying through the edge tier (peers serve site neighbors)…")
    edge_root = attach_edge(
        make_testbed(bandwidth_mbps=WAN_MBPS), lan_mbps=LAN_MBPS, seed="edge-day"
    )
    publish_images(edge_root, corpus.images, convert=True)
    edge_nodes = [edge_root.edge.client() for _ in range(NODES)]
    edge_lat, edge_digests, edge_wan = _replay(
        edge_root, edge_nodes, schedule, gossip=edge_root.edge.gossip
    )

    # Promise 1: the tier never changes what gets deployed — every
    # container filesystem is byte-identical to the registry-only run.
    assert edge_digests == flat_digests, "edge run diverged from registry-only"
    # Promise 2: the site actually offloaded the WAN.
    stats = edge_root.edge.stats
    assert stats.peer_hits > 0, "expected a nonzero peer-hit rate"
    assert not edge_root.edge.audit_integrity()

    rows = []
    for label, latencies, wan in (
        ("registry-only", flat_lat, flat_wan),
        ("edge tier", edge_lat, edge_wan),
    ):
        rows.append(
            (
                label,
                f"{sum(latencies) / len(latencies):.2f}",
                f"{percentile(latencies, 50):.2f}",
                f"{percentile(latencies, 95):.2f}",
                f"{wan / 1e6:.0f}",
            )
        )
    print(f"\ndeployment latency over the day @ {WAN_MBPS} Mbps WAN (s)")
    print(
        format_table(
            ["Topology", "mean", "p50", "p95", "WAN traffic (MB)"], rows
        )
    )
    hit_rate = stats.peer_hits / max(1, stats.fetches)
    print(
        f"\nall {EVENTS} container filesystems byte-identical to the "
        f"registry-only run; {stats.peer_hits} of {stats.fetches} fetches "
        f"({100 * hit_rate:.0f}%) served by site peers, saving "
        f"{100 * (1 - edge_wan / flat_wan):.0f}% of WAN traffic."
    )


if __name__ == "__main__":
    main()
