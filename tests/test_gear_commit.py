"""Committing Gear containers (§III-D2's commit flow)."""

import pytest

from repro.common.clock import SimClock
from repro.docker.builder import ImageBuilder
from repro.docker.daemon import DockerDaemon
from repro.docker.registry import DockerRegistry
from repro.gear.commit import commit_container
from repro.gear.converter import GearConverter
from repro.gear.driver import GearDriver
from repro.gear.index import GearIndex
from repro.gear.registry import GearRegistry
from repro.net.link import Link
from repro.net.transport import RpcTransport
from repro.vfs.tree import FileSystemTree


@pytest.fixture
def env():
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=904)
    transport = RpcTransport(link)
    docker_registry = DockerRegistry()
    gear_registry = GearRegistry()
    transport.bind(docker_registry.endpoint())
    transport.bind(gear_registry.endpoint())
    image = (
        ImageBuilder("app", "v1")
        .add_file("/bin/tool", b"tool" * 1000)
        .add_file("/etc/conf", b"original")
        .build()
    )
    docker_registry.push_image(image)
    GearConverter(clock, docker_registry, gear_registry).convert("app:v1")
    daemon = DockerDaemon(clock, transport)
    driver = GearDriver(clock, daemon, transport)
    return clock, transport, docker_registry, gear_registry, daemon, driver


def deploy(driver):
    container, _ = driver.deploy("app.gear:v1")
    return container


class TestCommit:
    def test_new_file_becomes_gear_file_and_entry(self, env):
        _, transport, _, gear_registry, daemon, driver = env
        container = deploy(driver)
        container.mount.write_file("/etc/added", b"fresh content")
        new_index, report = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert "/etc/added" in new_index.entries
        assert report.uploaded_gear_files == 1
        assert gear_registry.query(new_index.entries["/etc/added"].identity)

    def test_indexes_and_a_commit_share_one_stub_per_content(self, env):
        _, transport, _, _, daemon, driver = env
        container = deploy(driver)
        container.mount.write_file("/etc/added", b"same" * 100)
        committed, _ = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        root = FileSystemTree()
        root.write_file("/a", b"same" * 100)
        one = GearIndex.from_tree("i", "v1", root)
        two = GearIndex.from_tree("i", "v2", root)
        stub = committed.tree.read_blob("/etc/added")
        assert stub is one.tree.read_blob("/a") is two.tree.read_blob("/a")

    def test_unmodified_entries_survive(self, env):
        _, transport, _, _, daemon, driver = env
        container = deploy(driver)
        container.mount.write_file("/etc/added", b"x")
        new_index, _ = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert new_index.entries["/bin/tool"] == container.index.entries["/bin/tool"]

    def test_commit_after_faulting_still_produces_valid_index(self, env):
        # Regression: materialized (hard-linked) entries must be re-encoded
        # as stubs in the committed image.
        _, transport, _, _, daemon, driver = env
        container = deploy(driver)
        container.mount.read_bytes("/bin/tool")  # materialize
        container.mount.write_file("/etc/added", b"x")
        new_index, _ = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        fresh_driver = GearDriver(
            driver.clock, DockerDaemon(driver.clock, transport), transport
        )
        redeployed, _ = fresh_driver.deploy("app.gear:v2")
        assert redeployed.mount.read_bytes("/bin/tool") == b"tool" * 1000
        assert redeployed.mount.read_bytes("/etc/added") == b"x"

    def test_deletion_propagates(self, env):
        _, transport, _, _, daemon, driver = env
        container = deploy(driver)
        container.mount.remove("/etc/conf")
        new_index, _ = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert "/etc/conf" not in new_index.entries
        assert not new_index.tree.exists("/etc/conf")

    def test_a_file_replaced_by_a_directory_commits(self, env):
        _, transport, _, _, daemon, driver = env
        container = deploy(driver)
        container.mount.remove("/etc/conf")
        container.mount.mkdir("/etc/conf")
        container.mount.write_file("/etc/conf/inner", b"inside")
        new_index, _ = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert new_index.tree.is_dir("/etc/conf")
        assert "/etc/conf" not in new_index.entries
        assert "/etc/conf/inner" in new_index.entries
        fresh_driver = GearDriver(
            driver.clock, DockerDaemon(driver.clock, transport), transport
        )
        redeployed, _ = fresh_driver.deploy("app.gear:v2")
        assert redeployed.mount.read_bytes("/etc/conf/inner") == b"inside"

    def test_overwrite_updates_entry(self, env):
        _, transport, _, _, daemon, driver = env
        container = deploy(driver)
        container.mount.write_file("/etc/conf", b"changed")
        new_index, _ = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert (
            new_index.entries["/etc/conf"].identity
            != container.index.entries["/etc/conf"].identity
        )

    def test_duplicate_content_not_reuploaded(self, env):
        _, transport, _, gear_registry, daemon, driver = env
        container = deploy(driver)
        # Content identical to an existing gear file.
        container.mount.write_file("/etc/copy", b"tool" * 1000)
        _, report = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert report.uploaded_gear_files == 0

    def test_index_image_pushed_to_docker_registry(self, env):
        _, transport, docker_registry, _, daemon, driver = env
        container = deploy(driver)
        container.mount.write_file("/etc/added", b"x")
        _, report = commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert report.index_pushed
        assert docker_registry.get_manifest("app.gear:v2").gear_index

    def test_original_index_untouched(self, env):
        _, transport, _, _, daemon, driver = env
        container = deploy(driver)
        before = container.index.digest()
        container.mount.write_file("/etc/added", b"x")
        commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert container.index.digest() == before
