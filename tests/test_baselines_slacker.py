"""The Slacker baseline: block-level lazy pulls, no sharing."""

import pytest

from repro.baselines.slacker import (
    FS_BLOCK_SIZE,
    META_BLOCKS_PER_FILE,
    NFS_RSIZE,
    SlackerDriver,
)
from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.net.link import Link
from repro.workloads.corpus import CorpusBuilder, CorpusConfig
from tests.conftest import image_of


@pytest.fixture(scope="module")
def env():
    corpus = CorpusBuilder(
        CorpusConfig(
            seed=7, file_scale=0.2, size_scale=0.05,
            series_names=("nginx",), versions_cap=2,
        )
    ).build()
    return corpus


def make_driver():
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=904)
    return clock, link, SlackerDriver(clock, link)


class TestDeploy:
    def test_deploy_requires_provisioning(self, env):
        _, _, driver = make_driver()
        with pytest.raises(NotFoundError):
            driver.deploy("nginx:v1")

    def test_pull_phase_is_cheap(self, env):
        clock, link, driver = make_driver()
        driver.provision_image(image_of(env, "nginx:v1"))
        before = clock.now
        driver.deploy("nginx:v1")
        # Snapshot clone + start: well under a second, no data transfer.
        assert clock.now - before < 1.0
        assert link.log.total_bytes == 0

    def test_read_fetches_blocks(self, env):
        _, link, driver = make_driver()
        generated = image_of(env, "nginx:v1")
        driver.provision_image(generated)
        mount = driver.deploy("nginx:v1")
        path, size = generated.trace.accesses[0]
        mount.read_blob(path)
        stats = mount.slacker_stats
        data_blocks = -(-max(size, 1) // FS_BLOCK_SIZE)
        assert stats.blocks_fetched == data_blocks + META_BLOCKS_PER_FILE
        assert stats.bytes_fetched == stats.blocks_fetched * FS_BLOCK_SIZE
        assert link.log.total_bytes == stats.bytes_fetched

    def test_block_fetch_exceeds_file_size(self, env):
        # Amplification: blocks + metadata always cost more than the file.
        _, _, driver = make_driver()
        generated = image_of(env, "nginx:v1")
        driver.provision_image(generated)
        mount = driver.deploy("nginx:v1")
        path, size = generated.trace.accesses[0]
        mount.read_blob(path)
        assert mount.slacker_stats.bytes_fetched > size

    def test_requests_coalesce_to_rsize(self, env):
        _, _, driver = make_driver()
        generated = image_of(env, "nginx:v1")
        driver.provision_image(generated)
        mount = driver.deploy("nginx:v1")
        path, size = generated.trace.accesses[0]
        mount.read_blob(path)
        stats = mount.slacker_stats
        assert stats.requests == -(-stats.bytes_fetched // NFS_RSIZE)

    def test_repeat_read_is_local(self, env):
        _, link, driver = make_driver()
        generated = image_of(env, "nginx:v1")
        driver.provision_image(generated)
        mount = driver.deploy("nginx:v1")
        path, _ = generated.trace.accesses[0]
        mount.read_blob(path)
        bytes_after = link.log.total_bytes
        mount.read_blob(path)
        assert link.log.total_bytes == bytes_after


class TestNoSharing:
    def test_containers_do_not_share_fetched_blocks(self, env):
        # Fig. 10: "Slacker's time shows little change due to the absence
        # of [a] sharing mechanism."
        _, link, driver = make_driver()
        generated = image_of(env, "nginx:v1")
        driver.provision_image(generated)
        first = driver.deploy("nginx:v1")
        path, _ = generated.trace.accesses[0]
        first.read_blob(path)
        first_bytes = link.log.total_bytes
        second = driver.deploy("nginx:v1")
        second.read_blob(path)
        assert link.log.total_bytes == pytest.approx(2 * first_bytes, rel=0.01)

    def test_versions_do_not_share(self, env):
        _, link, driver = make_driver()
        v1, v2 = image_of(env, "nginx:v1"), image_of(env, "nginx:v2")
        driver.provision_image(v1)
        driver.provision_image(v2)
        mount1 = driver.deploy("nginx:v1")
        for path, _ in v1.trace.accesses[:5]:
            mount1.read_blob(path)
        bytes_v1 = link.log.total_bytes
        mount2 = driver.deploy("nginx:v2")
        for path, _ in v2.trace.accesses[:5]:
            mount2.read_blob(path)
        # Even shared content is re-fetched for the second device.
        assert link.log.total_bytes > bytes_v1 * 1.5
