"""Testbed assembly and publishing helpers."""

import pytest

from repro.bench.environment import (
    Testbed,
    attach_edge,
    make_faas_testbed,
    make_ha_testbed,
    make_testbed,
    publish_images,
)
from repro.bench.reporting import format_table, gb, pct
from repro.gear.pool import EvictionPolicy
from repro.storage.disk import SSD


class TestMakeTestbed:
    def test_default_topology(self, testbed):
        # Both registries are bound on the shared transport (§IV: "Gear
        # Registry and Docker Registry are deployed on the same node").
        assert testbed.transport.has_endpoint("docker-registry")
        assert testbed.transport.has_endpoint("gear-registry")
        assert not testbed.transport.has_endpoint("unbound-service")
        assert testbed.link.bandwidth_mbps == 904
        assert testbed.daemon.clock is testbed.clock
        assert testbed.gear_driver.daemon is testbed.daemon

    def test_bandwidth_override(self):
        bed = make_testbed(bandwidth_mbps=5)
        assert bed.link.bandwidth_mbps == 5

    def test_set_bandwidth_in_place(self, testbed):
        """The registry-side wires follow; a FaaS tier link keeps its own
        ``tier_mbps`` (it used to be overwritten with the WAN value)."""
        testbed.set_bandwidth(20)
        assert testbed.link.bandwidth_mbps == 20

        faas = make_faas_testbed(tier_mbps=500.0)
        faas.set_bandwidth(20)
        assert faas.link.bandwidth_mbps == 20
        assert faas.faas.tier.link.bandwidth_mbps == 500.0

        ha = make_ha_testbed(replicas=3)
        ha.set_bandwidth(20)
        assert [link.bandwidth_mbps for link in ha.all_links()] == [20] * 4

    def test_pool_configuration(self):
        bed = make_testbed(pool_capacity_bytes=1234,
                           pool_policy=EvictionPolicy.FIFO)
        assert bed.gear_driver.pool.capacity_bytes == 1234
        assert bed.gear_driver.pool.policy is EvictionPolicy.FIFO

    def test_disk_profiles(self):
        bed = make_testbed(registry_disk=SSD)
        assert bed.converter.disk.profile.name == "ssd"

    def test_fresh_client_shares_registries_not_state(self, small_corpus):
        bed = make_testbed()
        publish_images(bed, small_corpus.images, convert=False)
        bed.daemon.pull("nginx:v1")
        fresh = bed.fresh_client()
        assert fresh.docker_registry is bed.docker_registry
        assert fresh.clock is bed.clock
        assert not fresh.daemon.has_image("nginx:v1")
        assert fresh.gear_driver.pool is not bed.gear_driver.pool


MINT_SETTINGS = dict(
    client_disk=SSD, pool_capacity_bytes=1234, pool_policy=EvictionPolicy.FIFO
)


class TestMintKeepsRootSettings:
    """Every node mint builds the client the root was built with."""

    @pytest.mark.parametrize(
        "mint",
        [
            lambda: make_testbed(**MINT_SETTINGS).fresh_client(),
            lambda: attach_edge(make_testbed(**MINT_SETTINGS)).edge.client(),
            lambda: make_faas_testbed(**MINT_SETTINGS).faas.client(),
        ],
        ids=["fresh_client", "edge.client", "faas.client"],
    )
    def test_disk_and_pool_settings_survive(self, mint):
        node = mint()
        assert node.daemon.disk.profile is SSD
        assert node.gear_driver.pool.capacity_bytes == 1234
        assert node.gear_driver.pool.policy is EvictionPolicy.FIFO
        assert len(node.gear_driver.pool) == 0

    def test_fabric_nodes_keep_the_roots_shared_state(self):
        root = make_faas_testbed(ha_replicas=2)
        node = root.faas.client()
        assert node.ha is root.ha and node.faas is root.faas
        assert node.metrics is root.metrics
        assert node.timeline_stats is root.timeline_stats
        assert node.transport is not root.transport
        assert node.transport.base is root.transport


class TestPublishImages:
    def test_publish_without_convert(self, small_corpus, testbed):
        reports = publish_images(testbed, small_corpus.images, convert=False)
        assert reports == []
        assert testbed.docker_registry.manifest_count == len(small_corpus.images)
        assert testbed.gear_registry.file_count == 0

    def test_publish_with_convert(self, small_corpus, testbed):
        reports = publish_images(testbed, small_corpus.images, convert=True)
        assert len(reports) == len(small_corpus.images)
        # Index images double the manifest count.
        assert testbed.docker_registry.manifest_count == 2 * len(
            small_corpus.images
        )
        assert testbed.gear_registry.file_count > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["A", "Bbb"], [("x", 1), ("yy", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to equal width

    def test_gb_and_pct(self):
        assert gb(1.5e9) == "1.5"
        assert pct(0.537) == "53.7%"
