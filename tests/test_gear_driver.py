"""The Gear Driver: three-level storage, deploy flow, life-cycle decoupling."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import GearError, NotFoundError
from repro.docker.builder import ImageBuilder
from repro.docker.daemon import DockerDaemon
from repro.docker.registry import DockerRegistry
from repro.gear.converter import GearConverter
from repro.gear.driver import GearDriver
from repro.gear.index import STUB_XATTR
from repro.gear.registry import GearRegistry
from repro.net.link import Link
from repro.net.transport import RpcTransport


@pytest.fixture
def env():
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=904)
    transport = RpcTransport(link)
    docker_registry = DockerRegistry()
    gear_registry = GearRegistry()
    transport.bind(docker_registry.endpoint())
    transport.bind(gear_registry.endpoint())
    base = ImageBuilder("debian", "v1").add_file("/bin/sh", b"sh" * 4000).build()
    nginx = (
        ImageBuilder("nginx", "v1", base=base)
        .add_file("/usr/nginx", b"ngx" * 8000)
        .build()
    )
    docker_registry.push_image(base)
    docker_registry.push_image(nginx)
    converter = GearConverter(clock, docker_registry, gear_registry)
    converter.convert("debian:v1")
    converter.convert("nginx:v1")
    daemon = DockerDaemon(clock, transport)
    driver = GearDriver(clock, daemon, transport)
    return clock, link, driver, daemon


class TestPullIndex:
    def test_pull_downloads_only_index_bytes(self, env):
        _, link, driver, _ = env
        report = driver.pull_index("nginx.gear:v1")
        # The index is tiny compared to the image payload (~36 KB here).
        assert 0 < report.index_bytes < 20_000
        assert not report.index_reused

    def test_second_pull_reuses_index(self, env):
        _, _, driver, _ = env
        driver.pull_index("nginx.gear:v1")
        report = driver.pull_index("nginx.gear:v1")
        assert report.index_reused

    def test_regular_image_rejected(self, env):
        _, _, driver, _ = env
        with pytest.raises(GearError):
            driver.pull_index("nginx:v1")

    def test_missing_reference_raises(self, env):
        _, _, driver, _ = env
        with pytest.raises(NotFoundError):
            driver.pull_index("ghost.gear:v1")


class TestDeploy:
    def test_deploy_starts_without_fetching_files(self, env):
        _, link, driver, _ = env
        container, report = driver.deploy("nginx.gear:v1")
        assert container.state.value == "running"
        assert container.mount.fault_stats.remote_fetches == 0

    def test_reads_fault_on_demand(self, env):
        _, _, driver, _ = env
        container, _ = driver.deploy("nginx.gear:v1")
        assert container.mount.read_bytes("/usr/nginx") == b"ngx" * 8000
        assert container.mount.fault_stats.remote_fetches == 1

    def test_containers_of_one_image_share_level2(self, env):
        _, _, driver, _ = env
        first, _ = driver.deploy("nginx.gear:v1")
        first.mount.read_bytes("/usr/nginx")
        second = driver.create_container("nginx.gear:v1")
        second.mount.read_bytes("/usr/nginx")
        assert second.mount.fault_stats.faults == 0  # served from index

    def test_images_share_level1_cache(self, env):
        _, _, driver, _ = env
        nginx, _ = driver.deploy("nginx.gear:v1")
        nginx.mount.read_bytes("/bin/sh")
        debian, _ = driver.deploy("debian.gear:v1")
        debian.mount.read_bytes("/bin/sh")
        assert debian.mount.fault_stats.cache_hits == 1
        assert debian.mount.fault_stats.remote_fetches == 0


class TestLifecycleDecoupling:
    def test_destroy_container_keeps_index_and_cache(self, env):
        _, _, driver, _ = env
        container, _ = driver.deploy("nginx.gear:v1")
        container.mount.read_bytes("/usr/nginx")
        driver.destroy_container(container)
        # A new instance launches from level 2 without refetching.
        fresh = driver.create_container("nginx.gear:v1")
        fresh.mount.read_bytes("/usr/nginx")
        assert fresh.mount.fault_stats.remote_fetches == 0

    def test_remove_image_keeps_files_in_cache(self, env):
        _, _, driver, _ = env
        container, _ = driver.deploy("nginx.gear:v1")
        container.mount.read_bytes("/bin/sh")
        driver.destroy_container(container)
        driver.remove_image("nginx.gear:v1")
        with pytest.raises(NotFoundError):
            driver.get_index("nginx.gear:v1")
        # The shared /bin/sh file survives for other images.
        debian, _ = driver.deploy("debian.gear:v1")
        debian.mount.read_bytes("/bin/sh")
        assert debian.mount.fault_stats.cache_hits == 1

    def test_remove_image_unpins_cached_files(self, env):
        _, _, driver, _ = env
        container, _ = driver.deploy("nginx.gear:v1")
        container.mount.read_bytes("/usr/nginx")
        entry = driver.get_index("nginx.gear:v1").entries["/usr/nginx"]
        inode = driver.pool.get(entry.identity)
        assert inode.nlink >= 2
        driver.remove_image("nginx.gear:v1")
        assert inode.nlink == 1  # only the pool holds it: evictable

    def test_remove_missing_image_raises(self, env):
        _, _, driver, _ = env
        with pytest.raises(NotFoundError):
            driver.remove_image("nginx.gear:v1")

    def test_destroy_cost_scales_with_touched_inodes(self, env):
        clock, _, driver, _ = env
        quiet, _ = driver.deploy("nginx.gear:v1")
        quiet_cost = driver.destroy_container(quiet)
        busy = driver.create_container("nginx.gear:v1")
        driver.start_container(busy)
        busy.mount.read_bytes("/usr/nginx")
        busy.mount.read_bytes("/bin/sh")
        busy_cost = driver.destroy_container(busy)
        assert busy_cost > quiet_cost


class TestGearVsDockerBytes:
    def test_gear_transfers_less_than_docker_for_partial_access(self, env):
        _, link, driver, daemon = env
        container, _ = driver.deploy("nginx.gear:v1")
        container.mount.read_bytes("/usr/nginx")  # only one of two files
        gear_bytes = link.log.total_bytes
        daemon.pull("nginx:v1")
        docker_bytes = link.log.total_bytes - gear_bytes
        assert gear_bytes < docker_bytes
