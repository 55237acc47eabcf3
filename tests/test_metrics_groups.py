"""Reflection over registered testbed metrics groups.

Every group a testbed registers (``rpc``, ``pool``, ``journal``, ``ha``,
``edge``, ``faas``, ``chunk``, ``timeline``, …) is read, never reset: a
snapshot keeps one key set as the counters grow, so one epoch is the
difference of two snapshots.
"""

import dataclasses

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import (
    attach_edge,
    make_faas_testbed,
    make_ha_testbed,
    make_testbed,
    make_timeline_sampler,
    publish_images,
)
from repro.net.faults import FaultPlan, OutageWindow
from repro.net.topology import EdgeCluster, HACluster

MAKERS = {
    "base": make_testbed,
    "ha": make_ha_testbed,
    "edge": lambda: attach_edge(make_testbed()),
    "faas": make_faas_testbed,
}

#: Group keys that must be present somewhere across the testbed matrix.
REQUIRED_GROUPS = {
    "rpc", "pool", "journal", "chunk", "timeline", "ha", "edge", "faas",
}


def _group_names(testbed):
    return {key.partition(".")[0] for key in testbed.metrics.snapshot()}


@pytest.fixture(params=sorted(MAKERS))
def testbed(request):
    return MAKERS[request.param]()


class TestGroupMatrix:
    def test_required_groups_all_covered_by_the_matrix(self):
        seen = set()
        for maker in MAKERS.values():
            seen |= _group_names(maker())
        assert REQUIRED_GROUPS <= seen

    def test_timeline_group_registered_on_every_testbed(self, testbed):
        assert "timeline" in _group_names(testbed)


class TestResetDiscipline:
    """Nothing resets a counter; a reader diffs two snapshots instead."""

    def _dirty(self, testbed):
        """Put nonzero numbers in the groups we can reach directly."""
        testbed.gear_driver.pool.stats.hits += 3
        testbed.gear_driver.chunk_stats.chunks_fetched += 2
        testbed.timeline_stats.samples += 5
        testbed.timeline_stats.points += 25
        sampler = make_timeline_sampler(testbed)
        sampler.sample()

    def test_snapshot_delta_is_one_epoch(self, testbed):
        before = testbed.metrics.snapshot()
        self._dirty(testbed)
        after = testbed.metrics.snapshot()
        assert set(after) == set(before)
        moved = {
            key: after[key] - before[key]
            for key in after if after[key] != before[key]
        }
        assert moved["pool.hits"] == 3
        assert moved["chunk.chunks_fetched"] == 2
        assert moved["timeline.samples"] == 6  # five plus one sample()
        assert all(delta > 0 for delta in moved.values())

    def test_fresh_client_keeps_groups_stable(self, testbed):
        before = _group_names(testbed)
        fresh = testbed.fresh_client()
        assert _group_names(fresh) == before
        # The shared timeline accounting rides along to the new client.
        assert fresh.timeline_stats is testbed.timeline_stats


def _grown(before, after):
    return {key: after[key] - before[key] for key in after}


def _ha_reading(bed):
    """The HA wave report's fields, read off the stats groups and links."""
    snapshot = bed.metrics.snapshot()
    reading = {
        key[len("ha."):]: value
        for key, value in snapshot.items() if key.startswith("ha.")
    }
    reading["sheds"] = reading.pop("sheds_seen")
    reading["breaker_trips"] = snapshot["breaker.trips"]
    reading["probes"] = sum(
        value for key, value in snapshot.items()
        if key.startswith("replica.probes{")
    )
    reading["egress_bytes"] = bed.link.log.total_bytes
    reading["uplink_busy_s"] = sum(
        link.busy_seconds
        for link in [bed.link] + [r.link for r in bed.ha.replica_set.replicas]
    )
    return reading


def _edge_reading(bed):
    """The edge wave report's fields, read off the stats groups and links."""
    snapshot = bed.metrics.snapshot()
    reading = {
        key[len("edge."):]: value
        for key, value in snapshot.items() if key.startswith("edge.")
    }
    sites = bed.edge.sites
    reading["lan_bytes"] = sum(site.link.log.total_bytes for site in sites)
    reading["lan_busy_s"] = sum(site.link.busy_seconds for site in sites)
    reading["egress_bytes"] = bed.link.log.total_bytes
    reading["uplink_busy_s"] = bed.link.busy_seconds
    return reading


def _ha_cluster():
    outage = FaultPlan(
        seed="delta-outage", outages=(OutageWindow(0.0, 1e9),)
    )
    return HACluster(
        3, replicas=2, replica_fault_plans=[outage], seed="delta-ha"
    ), _ha_reading


def _edge_cluster():
    return EdgeCluster(
        4, churn_rate_per_s=2.0, churn_horizon_s=2.0, seed="delta-edge"
    ), _edge_reading


class TestWaveDeltas:
    """A wave report is its own wave's growth of the running counters:
    two back-to-back waves on one cluster report disjoint epochs."""

    @pytest.mark.parametrize(
        "make", [_ha_cluster, _edge_cluster], ids=["ha", "edge"]
    )
    def test_back_to_back_waves_report_their_own_growth(self, make, small_corpus):
        cluster, read = make()
        bed = cluster.registry_testbed
        images = small_corpus.by_series["nginx"][:2]
        publish_images(bed, images, convert=True)
        bed.arm_faults()
        start = read(bed)
        readings, reports, degraded = [start], [], []
        for generated in images:
            outcomes = []

            def action(node, generated=generated):
                outcome = deploy_with_gear(node.testbed, generated)
                outcomes.append(outcome)
                return outcome

            reports.append(cluster.deploy_wave(action))
            readings.append(read(bed))
            degraded.append(sum(1 for o in outcomes if o.degraded))
        # Every counted report field: all but the wave's own timings and
        # the degraded count, which the wave tallies from its outcomes.
        counted = {f.name for f in dataclasses.fields(reports[0])} - {
            "concurrency", "latencies_s", "makespan_s", "ready_s", "degraded",
        }
        assert counted <= set(start)
        for index, report in enumerate(reports):
            grown = _grown(readings[index], readings[index + 1])
            assert {key: getattr(report, key) for key in counted} == {
                key: grown[key] for key in counted
            }
            assert report.degraded == degraded[index]
        assert reports[0].fetches > 0 and reports[1].fetches > 0
        total = _grown(start, readings[-1])
        for key in counted | {"degraded"}:
            summed = getattr(reports[0], key) + getattr(reports[1], key)
            expected = sum(degraded) if key == "degraded" else total[key]
            assert summed == pytest.approx(expected), key
