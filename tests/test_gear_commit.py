"""Committing Gear containers (§III-D2's commit flow)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.clock import SimClock
from repro.docker.builder import ImageBuilder
from tests.test_docker_builder import image_from_tree
from repro.docker.daemon import DockerDaemon
from repro.docker.registry import DockerRegistry
from repro.gear.commit import commit_container
from repro.gear.converter import GearConverter
from repro.gear.driver import GearDriver
from repro.gear.index import GearIndex
from repro.gear.registry import GearRegistry
from repro.net.link import Link
from repro.net.transport import RpcTransport
from repro.vfs import paths
from repro.vfs.overlay import OverlayMount
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
        before = dict(container.index.entries)
        container.mount.write_file("/etc/added", b"x")
        commit_container(
            container, "app.gear", "v2", daemon=daemon, transport=transport
        )
        assert container.index.entries == before


# -- generated commits -------------------------------------------------------

#: Where the generated ops land: the base image's files, directory and
#: symlink, and paths it lacks, some of them under others.
OP_PATHS = (
    "/etc/conf", "/etc/app", "/etc/app/a", "/etc/new",
    "/bin/tool", "/bin/sh", "/var", "/var/log", "/var/log/x", "/opt",
)
CONTENTS = (b"alpha", b"beta", b"tool" * 1000)  # the last dedups against the base
TARGETS = ("tool", "/etc/conf", "../nowhere")
KINDS = ("file", "dir", "symlink")

#: ``(kind, path, arg)`` makes a file (arg: content), a directory or a
#: symlink (arg: target); ``remove`` deletes, ``replace`` puts a fresh
#: node of another kind (arg) where one was.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("file"), st.sampled_from(OP_PATHS), st.sampled_from(CONTENTS)),
        st.tuples(st.just("dir"), st.sampled_from(OP_PATHS), st.none()),
        st.tuples(st.just("symlink"), st.sampled_from(OP_PATHS), st.sampled_from(TARGETS)),
        st.tuples(st.just("remove"), st.sampled_from(OP_PATHS), st.none()),
        st.tuples(st.just("replace"), st.sampled_from(OP_PATHS), st.sampled_from(KINDS)),
    ),
    max_size=12,
)


def base_tree():
    tree = FileSystemTree()
    tree.write_file("/bin/tool", b"tool" * 1000, parents=True)
    tree.symlink("/bin/sh", "tool")
    tree.write_file("/etc/conf", b"original", parents=True)
    tree.write_file("/etc/app/a", b"app", parents=True)
    tree.mkdir("/var")
    return tree


def in_real_dir(tree, path):
    """Is every ancestor of ``path`` a directory, no symlink on the way?"""
    parts = paths.split(path)[:-1]
    return all(
        tree.exists(paths.unsplit(parts[:n]), follow_symlinks=False)
        and tree.stat(paths.unsplit(parts[:n]), follow_symlinks=False).is_dir
        for n in range(1, len(parts) + 1)
    )


def make(fs, kind, path, arg):
    if kind == "file":
        fs.write_file(path, arg)
    elif kind == "dir":
        fs.mkdir(path)
    else:
        fs.symlink(path, arg)


def apply(op, mount, tree):
    """Apply ``op`` to the container and to the plain tree alike where the
    plain tree says it is well formed, else to neither.  Removing what the
    image held leaves a whiteout in the container's diff."""
    kind, path, arg = op
    if not in_real_dir(tree, path):
        return
    held = (tree.stat(path, follow_symlinks=False)
            if tree.exists(path, follow_symlinks=False) else None)
    for fs in (mount, tree):
        if kind in ("remove", "replace") and held is not None:
            fs.remove(path, recursive=True)
            if kind == "replace":
                make(fs, arg, path, CONTENTS[0] if arg == "file" else TARGETS[0])
        elif kind in KINDS and (held is None or kind == "file" and held.is_file):
            make(fs, kind, path, arg)


def symlinks(mount):
    return {path: node.symlink_target for path, node in mount.walk() if node.is_symlink}


class TestGeneratedCommits:
    """ROADMAP 4(d): ops drawn on a mounted Gear container, committed and
    pulled afresh, read the same as the ops applied to a plain tree."""

    @settings(deadline=None)  # example count: the profile's (conftest.py)
    @given(OPS)
    # Found by this test: a directory made over a whiteout showed the
    # lower directory's entries again (it was not opaque).
    @example([("replace", "/etc/app", "dir")])
    @example([("remove", "/etc/app", None), ("file", "/etc/app/a", b"beta")])
    def test_a_committed_container_repulls_as_the_plain_tree(self, ops):
        clock = SimClock()
        transport = RpcTransport(Link(clock, bandwidth_mbps=904))
        docker_registry, gear_registry = DockerRegistry(), GearRegistry()
        transport.bind(docker_registry.endpoint())
        transport.bind(gear_registry.endpoint())
        docker_registry.push_image(image_from_tree("app", "v1", base_tree()))
        GearConverter(clock, docker_registry, gear_registry).convert("app:v1")
        daemon = DockerDaemon(clock, transport)
        container, _ = GearDriver(clock, daemon, transport).deploy("app.gear:v1")

        expected = base_tree()
        for op in ops:
            apply(op, container.mount, expected)
        reference = OverlayMount([expected.freeze()])
        assert container.mount.fs_digest() == reference.fs_digest()

        commit_container(container, "app.gear", "v2", daemon=daemon, transport=transport)
        fresh = GearDriver(clock, DockerDaemon(clock, transport), transport)
        repulled, _ = fresh.deploy("app.gear:v2")
        assert repulled.mount.fs_digest() == reference.fs_digest()
        assert symlinks(repulled.mount) == symlinks(reference)
