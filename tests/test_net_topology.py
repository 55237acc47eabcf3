"""Cluster topology: shared registry serving many client nodes."""

import pytest

from repro.bench.deploy import deploy_with_docker, deploy_with_gear
from repro.bench.environment import publish_images
from repro.common.stats import percentile
from repro.net.topology import Cluster


@pytest.fixture
def cluster(small_corpus):
    cluster = Cluster(3, bandwidth_mbps=100)
    publish_images(cluster.registry_testbed, small_corpus.images, convert=True)
    return cluster


class TestClusterAssembly:
    def test_node_count_and_names(self, cluster):
        assert len(cluster.nodes) == 3
        assert cluster.nodes[0].name == "node-000"

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_nodes_share_registries_not_caches(self, cluster):
        testbeds = [node.testbed for node in cluster.nodes]
        assert (
            testbeds[0].docker_registry is testbeds[1].docker_registry
        )
        assert testbeds[0].gear_driver.pool is not testbeds[1].gear_driver.pool

    def test_shared_clock(self, cluster):
        assert all(
            node.testbed.clock is cluster.clock for node in cluster.nodes
        )


class TestFleetDeployment:
    def test_every_node_pays_its_own_downloads(self, cluster, small_corpus):
        generated = small_corpus.get("nginx:v1")
        per_node = []
        for node in cluster.nodes:
            before = cluster.registry_egress_bytes
            deploy_with_gear(node.testbed, generated)
            per_node.append(cluster.registry_egress_bytes - before)
        assert len(per_node) == 3
        assert all(volume > 0 for volume in per_node)

    def test_registry_egress_accumulates(self, cluster, small_corpus):
        generated = small_corpus.get("nginx:v1")
        before = cluster.registry_egress_bytes
        for node in cluster.nodes:
            deploy_with_docker(node.testbed, generated)
        assert cluster.registry_egress_bytes > before

    def test_gear_fleet_uses_less_registry_capacity(self, small_corpus):
        generated = small_corpus.get("tomcat:v1")

        docker_cluster = Cluster(3, bandwidth_mbps=100)
        publish_images(
            docker_cluster.registry_testbed, small_corpus.images, convert=True
        )
        docker_wave = docker_cluster.deploy_wave(
            lambda node: deploy_with_docker(node.testbed, generated),
            concurrency=1,
        )

        gear_cluster = Cluster(3, bandwidth_mbps=100)
        publish_images(
            gear_cluster.registry_testbed, small_corpus.images, convert=True
        )
        gear_wave = gear_cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated),
            concurrency=1,
        )

        # Publishing traffic is in-process; the deployment egress is what
        # differs — Gear's is a fraction of Docker's, so the registry
        # uplink stays free for more nodes.  Its measured busy time also
        # carries every request's fixed overhead, and Gear makes more,
        # smaller requests: the saving there is smaller (~0.7 here).
        assert gear_wave.egress_bytes < docker_wave.egress_bytes * 0.6
        assert gear_wave.uplink_busy_s < docker_wave.uplink_busy_s * 0.8


class TestPercentile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 0) == 1.0

    def test_single_value(self):
        # n=1: every quantile is the lone sample (rank clamps to 1).
        assert percentile([7.5], 99) == 7.5
        assert percentile([7.5], 0) == 7.5
        assert percentile([7.5], 100) == 7.5

    def test_two_values_boundary(self):
        # n=2, agreed nearest-rank semantics: q <= 50 takes the smaller
        # sample, q > 50 the larger (rank = max(1, ceil(q/100 * 2))).
        assert percentile([5.0, 1.0], 0) == 1.0
        assert percentile([5.0, 1.0], 50) == 1.0
        assert percentile([5.0, 1.0], 50.001) == 5.0
        assert percentile([5.0, 1.0], 95) == 5.0
        assert percentile([5.0, 1.0], 100) == 5.0

    def test_shared_helper_with_hedging_estimator(self):
        # Wave reports and the HA hedge-deadline estimator must agree on
        # tiny-sample semantics: both import the one implementation.
        from repro.common.stats import percentile as stats_percentile

        assert percentile is stats_percentile

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.5)


def _fresh_cluster(small_corpus, nodes=3):
    cluster = Cluster(nodes, bandwidth_mbps=100)
    publish_images(cluster.registry_testbed, small_corpus.images, convert=True)
    return cluster


class TestDeployWave:
    def test_report_shape(self, cluster, small_corpus):
        generated = small_corpus.get("nginx:v1")
        wave = cluster.deploy_wave(
            lambda node: deploy_with_docker(node.testbed, generated) and None
        )
        assert wave.concurrency == 3
        assert len(wave.latencies_s) == 3
        assert wave.makespan_s > 0
        assert wave.egress_bytes > 0
        assert 0.0 < wave.utilization <= 1.0 + 1e-9
        assert wave.as_dict()["clients"] == 3

    def test_rejects_nonpositive_concurrency(self, cluster):
        with pytest.raises(ValueError):
            cluster.deploy_wave(lambda node: None, concurrency=0)

    def test_deterministic_across_identical_clusters(self, small_corpus):
        generated = small_corpus.get("nginx:v1")
        waves = []
        for _ in range(2):
            cluster = _fresh_cluster(small_corpus)
            waves.append(
                cluster.deploy_wave(
                    lambda node: deploy_with_gear(
                        node.testbed, generated, clear_cache=True
                    )
                    and None
                )
            )
        assert waves[0] == waves[1]

    def test_concurrency_one_matches_sequential_timings(self, small_corpus):
        generated = small_corpus.get("tomcat:v1")

        sequential = _fresh_cluster(small_corpus)
        timings = []

        def timed(node):
            timer = sequential.clock.timer()
            deploy_with_docker(node.testbed, generated)
            timings.append(timer.elapsed())

        for node in sequential.nodes:
            timed(node)

        staged = _fresh_cluster(small_corpus)
        wave = staged.deploy_wave(
            lambda node: deploy_with_docker(node.testbed, generated) and None,
            concurrency=1,
        )
        # One client at a time = the seed sequential model, exactly.
        assert wave.latencies_s == tuple(timings)

    def test_contention_hurts_whole_image_pulls_most(self, small_corpus):
        """1 -> 8 clients pulling at once on a shared 100 Mbps uplink:
        Docker ships whole images through the saturated wire, Gear only
        necessary files, and a cache warmed by the previous version
        almost nothing (§I's registry-pressure argument)."""
        target, prev = small_corpus.by_series["nginx"][:2]
        actions = {
            "docker": lambda node: deploy_with_docker(node.testbed, target),
            "gear_nc": lambda node: deploy_with_gear(
                node.testbed, target, clear_cache=True
            ),
            "gear_cache": lambda node: deploy_with_gear(node.testbed, target),
        }
        fleet = (1, 4, 8)

        def wave(system, clients):
            cluster = Cluster(clients, bandwidth_mbps=100)
            publish_images(
                cluster.registry_testbed, [target, prev], convert=True
            )
            if system == "gear_cache":
                cluster.deploy_wave(
                    lambda node: deploy_with_gear(node.testbed, prev) and None
                )
            return cluster.deploy_wave(actions[system])

        grid = {
            system: [wave(system, clients) for clients in fleet]
            for system in actions
        }
        ratio = {
            system: waves[-1].p95_s / waves[0].p95_s
            for system, waves in grid.items()
        }
        assert ratio["docker"] > ratio["gear_nc"] > ratio["gear_cache"]
        for waves in grid.values():
            p95s = [w.p95_s for w in waves]
            assert p95s == sorted(p95s)  # contention never helps
            assert all(0.0 <= w.utilization <= 1.0 + 1e-9 for w in waves)
        docker = grid["docker"]
        assert docker[-1].utilization > docker[0].utilization
        # Docker's egress is linear in nodes: no cross-node sharing.
        assert (
            docker[-1].egress_bytes / fleet[-1]
            > target.image.compressed_size * 0.9
        )

    def test_contention_stretches_latency_not_bytes(self, small_corpus):
        generated = small_corpus.get("nginx:v1")

        staged = _fresh_cluster(small_corpus)
        one_at_a_time = staged.deploy_wave(
            lambda node: deploy_with_docker(node.testbed, generated) and None,
            concurrency=1,
        )

        slammed = _fresh_cluster(small_corpus)
        all_at_once = slammed.deploy_wave(
            lambda node: deploy_with_docker(node.testbed, generated) and None
        )

        # Same bytes cross the wire either way; only the clients' waiting
        # changes shape.
        assert all_at_once.egress_bytes == one_at_a_time.egress_bytes
        assert all_at_once.p95_s > one_at_a_time.p95_s
        # Overlap compresses the fleet's wall-clock…
        assert all_at_once.makespan_s < sum(one_at_a_time.latencies_s)
        # …while each client individually waits at least as long as when
        # it had the uplink to itself.
        assert min(all_at_once.latencies_s) >= min(one_at_a_time.latencies_s)
