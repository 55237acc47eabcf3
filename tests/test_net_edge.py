"""Multi-tier edge/P2P distribution: peer serving, staleness, byzantium.

The edge tier (:mod:`repro.net.edge`) may change where Gear bytes come
from, never what gets deployed.  These tests pin the failover chain
(peer → site cache → registry), the adversity menu (stale tracker
entries, churn, mid-serve crashes, byzantine peers), and the two
headline invariants: byte-identical container filesystems vs. a
registry-only run, and deterministic replay of every scenario.
"""

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import attach_edge, make_testbed, publish_images
from repro.common.stats import EmptySampleError, percentile
from repro.net.edge import ChurnSchedule
from repro.net.topology import Cluster, EdgeCluster, WaveReport


def _deploy_digest(testbed, generated):
    result = deploy_with_gear(testbed, generated)
    digest = testbed.gear_driver.containers()[-1].mount.fs_digest()
    return result, digest


def _single_tier_run(images):
    """Registry-only ground truth: per-image (total_s, bytes, digest)."""
    root = make_testbed()
    publish_images(root, images, convert=True)
    node = root.fresh_client()
    out = []
    for generated in images:
        before = root.link.log.total_bytes
        result, digest = _deploy_digest(node, generated)
        out.append(
            (result.total_s, root.link.log.total_bytes - before, digest)
        )
    return out


class TestSingleTierEquivalence:
    def test_peerless_edge_run_is_byte_and_time_identical(self, small_corpus):
        """One node, no churn: the tier must cost exactly nothing."""
        images = small_corpus.by_series["nginx"][:2]
        control = _single_tier_run(images)
        root = attach_edge(make_testbed())
        publish_images(root, images, convert=True)
        node = root.edge.client()
        for generated, (want_s, want_bytes, want_digest) in zip(
            images, control
        ):
            before = root.link.log.total_bytes
            result, digest = _deploy_digest(node, generated)
            assert result.total_s == want_s  # exact, not approx
            assert root.link.log.total_bytes - before == want_bytes
            assert digest == want_digest


class TestPeerServing:
    def test_second_node_fetches_from_first(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        root = attach_edge(make_testbed())
        publish_images(root, [generated], convert=True)
        first = root.edge.client()
        _, first_digest = _deploy_digest(first, generated)
        wan_after_first = root.link.log.total_bytes
        root.edge.gossip()

        second = root.edge.client()
        _, second_digest = _deploy_digest(second, generated)
        wan_second = root.link.log.total_bytes - wan_after_first

        stats = root.edge.stats
        assert stats.peer_hits > 0
        assert stats.peer_bytes > 0
        assert stats.egress_saved_bytes > 0
        # The second deploy crossed the WAN for at most a sliver
        # (index/manifest traffic), not the image bytes.
        assert wan_second < wan_after_first / 4
        assert second_digest == first_digest
        assert root.edge.audit_integrity() == []

    def test_tracker_is_rebuilt_by_gossip(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        root = attach_edge(make_testbed())
        publish_images(root, [generated], convert=True)
        node = root.edge.client()
        deploy_with_gear(node, generated)
        site = root.edge.sites[0]
        assert not site.tracker._entries  # nothing announced yet
        root.edge.gossip()
        assert site.tracker._entries
        peer = root.edge.peers[0]
        for identity in site.tracker._entries:
            assert peer.name in site.tracker.resolve(identity)
            assert peer.online and peer.pool.contains(identity)

    def test_fleet_egress_reduction_vs_single_tier(self, small_corpus):
        """Acceptance: zero churn, ≥40% registry-egress reduction."""
        generated = small_corpus.by_series["nginx"][0]
        clients, concurrency = 8, 2

        flat = Cluster(clients, bandwidth_mbps=200.0)
        publish_images(flat.registry_testbed, [generated], convert=True)
        flat_wave = flat.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=concurrency,
        )

        edge = EdgeCluster(clients, bandwidth_mbps=200.0, seed="egress")
        publish_images(edge.registry_testbed, [generated], convert=True)
        edge_wave = edge.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=concurrency,
        )

        assert edge_wave.degraded == 0
        reduction = 1.0 - edge_wave.egress_bytes / flat_wave.egress_bytes
        assert reduction >= 0.40
        # The missing WAN bytes crossed the LAN instead.
        assert edge_wave.lan_bytes > 0
        assert edge_wave.egress_saved_bytes > 0

        # Peer capacity grows with the fleet: half the nodes offload no
        # better than all of them.
        small = EdgeCluster(clients // 2, bandwidth_mbps=200.0, seed="egress")
        publish_images(small.registry_testbed, [generated], convert=True)
        small_wave = small.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=1,
        )
        assert small_wave.degraded == 0
        assert edge_wave.offload_rate >= small_wave.offload_rate


class TestStaleTracker:
    def test_departed_peer_entry_is_demoted_not_fatal(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        root = attach_edge(make_testbed())
        publish_images(root, [generated], convert=True)
        first = root.edge.client()
        deploy_with_gear(first, generated)
        root.edge.gossip()
        # The peer departs *after* registration: every tracker entry for
        # it is now stale.
        root.edge.peers[0].online = False

        second = root.edge.client()
        _, digest = _deploy_digest(second, generated)

        stats = root.edge.stats
        assert stats.stale_resolutions > 0
        assert stats.peer_hits == 0
        site = root.edge.sites[0]
        for identity in site.tracker._entries:
            assert root.edge.peers[0].name not in site.tracker.resolve(
                identity
            )
        control = _single_tier_run([generated])
        assert digest == control[0][2]

    def test_evicted_holding_is_dropped_from_tracker(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        root = attach_edge(make_testbed())
        publish_images(root, [generated], convert=True)
        first = root.edge.client()
        deploy_with_gear(first, generated)
        root.edge.gossip()
        # The peer stays online but its cache is wiped (eviction): the
        # tracker still advertises it until fetches demote each entry.
        root.edge.peers[0].pool.clear()

        second = root.edge.client()
        _, digest = _deploy_digest(second, generated)
        stats = root.edge.stats
        assert stats.stale_resolutions > 0
        assert digest == _single_tier_run([generated])[0][2]
        assert root.edge.audit_integrity() == []


class TestByzantinePeers:
    def test_corrupt_peer_is_blacklisted_and_bytes_stay_clean(
        self, small_corpus
    ):
        generated = small_corpus.by_series["nginx"][0]
        root = attach_edge(make_testbed())
        publish_images(root, [generated], convert=True)
        first = root.edge.client()
        deploy_with_gear(first, generated)
        root.edge.gossip()
        root.edge.peers[0].byzantine = True

        second = root.edge.client()
        _, digest = _deploy_digest(second, generated)

        stats = root.edge.stats
        site = root.edge.sites[0]
        assert stats.blacklists >= 1
        assert root.edge.peers[0].name in site.blacklisted
        # Quarantined, refetched from the registry, bytes never poisoned.
        assert digest == _single_tier_run([generated])[0][2]
        assert root.edge.audit_integrity() == []

    def test_blacklisted_peer_is_never_consulted_again(self, small_corpus):
        images = small_corpus.by_series["nginx"][:2]
        root = attach_edge(make_testbed())
        publish_images(root, images, convert=True)
        first = root.edge.client()
        deploy_with_gear(first, images[0])
        root.edge.gossip()
        root.edge.peers[0].byzantine = True

        second = root.edge.client()
        deploy_with_gear(second, images[0])
        blacklists_after_first = root.edge.stats.blacklists
        serves_after_first = root.edge.peers[0].serves

        # A later deploy re-gossips; the blacklisted peer must stay out
        # of the tracker and never serve again.
        root.edge.gossip()
        deploy_with_gear(second, images[1])
        assert root.edge.stats.blacklists == blacklists_after_first
        assert root.edge.peers[0].serves == serves_after_first
        site = root.edge.sites[0]
        for identity in site.tracker._entries:
            assert root.edge.peers[0].name not in site.tracker.resolve(
                identity
            )


class TestPeerCrash:
    def test_crash_mid_serve_fails_over(self, small_corpus):
        from repro.common.clock import SimClock  # noqa: F401 (idiom)
        from repro.net.faults import CrashPlan, CrashPoint

        generated = small_corpus.by_series["nginx"][0]
        root = attach_edge(make_testbed())
        publish_images(root, [generated], convert=True)
        first = root.edge.client()
        deploy_with_gear(first, generated)
        root.edge.gossip()
        root.edge.peers[0].arm_crash(
            root.clock,
            CrashPlan(point=CrashPoint.MID_FETCH, seed="crash", op_index=0),
        )

        second = root.edge.client()
        _, digest = _deploy_digest(second, generated)

        stats = root.edge.stats
        assert stats.peer_crashes == 1
        assert stats.failovers >= 1
        assert not root.edge.peers[0].online
        assert digest == _single_tier_run([generated])[0][2]
        assert root.edge.audit_integrity() == []


class TestChurnDeterminism:
    def test_schedule_is_deterministic(self):
        names = [f"node-{i:03d}" for i in range(6)]
        a = ChurnSchedule.generate(names, seed="s", rate_per_s=3.0)
        b = ChurnSchedule.generate(names, seed="s", rate_per_s=3.0)
        assert a.events == b.events
        c = ChurnSchedule.generate(names, seed="other", rate_per_s=3.0)
        assert a.events != c.events

    def test_schedule_keeps_a_quorum_online(self):
        names = [f"node-{i:03d}" for i in range(4)]
        schedule = ChurnSchedule.generate(
            names, seed="q", rate_per_s=50.0, horizon_s=5.0
        )
        online = set(names)
        for event in schedule.events:
            if event.kind == "leave":
                online.discard(event.peer)
            else:
                online.add(event.peer)
            assert len(online) >= 1

    def test_churn_wave_replays_identically(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]

        def run():
            cluster = EdgeCluster(
                6, churn_rate_per_s=2.0, seed="replay"
            )
            publish_images(
                cluster.registry_testbed, [generated], convert=True
            )
            wave = cluster.deploy_wave(
                lambda node: deploy_with_gear(node.testbed, generated),
                concurrency=2,
            )
            return wave.as_dict()

        assert run() == run()


class TestAcceptanceWave:
    def test_churn_byzantine_32_clients_byte_identical(self, small_corpus):
        """The headline acceptance scenario: 32 clients, seeded churn,
        one mid-serve crash, one byzantine peer — every deploy completes
        with filesystems byte-identical to a fault-free registry-only
        wave, zero poisoned commits, and the corrupt peer blacklisted.
        """
        generated = small_corpus.by_series["nginx"][0]
        clients, concurrency = 32, 8

        control_digests = {}

        def control_action(node):
            result = deploy_with_gear(node.testbed, generated)
            control_digests[node.name] = node.testbed.gear_driver.containers()[-1].mount.fs_digest()
            return result

        flat = Cluster(clients, bandwidth_mbps=200.0)
        publish_images(flat.registry_testbed, [generated], convert=True)
        flat.deploy_wave(control_action, concurrency=concurrency)

        edge_digests = {}

        def edge_action(node):
            result = deploy_with_gear(node.testbed, generated)
            edge_digests[node.name] = node.testbed.gear_driver.containers()[-1].mount.fs_digest()
            return result

        cluster = EdgeCluster(
            clients,
            bandwidth_mbps=200.0,
            churn_rate_per_s=2.0,
            byzantine=(1,),
            crash_node=2,
            seed="acceptance",
        )
        publish_images(cluster.registry_testbed, [generated], convert=True)
        wave = cluster.deploy_wave(edge_action, concurrency=concurrency)

        # Every deploy completed, none degraded.
        assert len(wave.latencies_s) == clients
        assert wave.degraded == 0
        # Byte-identical to the fault-free registry-only wave.
        assert edge_digests == control_digests
        # The corrupt peer was caught and ostracised.
        assert wave.blacklists >= 1
        byz = cluster.fabric.peers[1]
        assert byz.name in cluster.fabric.site_of(byz.name).blacklisted
        # Adversity actually happened and the tier still offloaded.
        assert wave.joins + wave.leaves > 0
        assert wave.peer_hits > 0
        # Zero poisoned commits anywhere in the fabric.
        assert cluster.fabric.audit_integrity() == []


class TestEdgeMetrics:
    def test_edge_stats_registered_in_metrics_plane(self):
        from repro.obs.export import metrics_snapshot

        root = attach_edge(make_testbed())
        snapshot = metrics_snapshot(root.metrics)
        assert any(key.startswith("edge.") for key in snapshot)


class TestEmptySampleBoundaries:
    """Satellite: typed empty-input handling for stats and wave reports."""

    def test_percentile_empty_raises_typed_error(self):
        with pytest.raises(EmptySampleError):
            percentile([], 50)

    def test_typed_error_is_a_value_error(self):
        # Pre-hardening callers guarded with ValueError; they must keep
        # working.
        with pytest.raises(ValueError):
            percentile((), 99)

    def test_percentile_singleton_and_pair(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 100) == 7.0
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile([1.0, 2.0], 51) == 2.0

    def test_percentile_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_wave_report_uses_sentinel(self):
        report = WaveReport(
            concurrency=4,
            latencies_s=(),
            makespan_s=0.0,
            egress_bytes=0,
            uplink_busy_s=0.0,
        )
        assert report.p50_s == 0.0
        assert report.p99_s == 0.0
        assert report.mean_s == 0.0
        assert report.utilization == 0.0
        assert report.as_dict()["clients"] == 0
