"""The Gear File Viewer: fault path, cache hits, index linking."""

import sys

import pytest

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex, STUB_XATTR
from repro.gear.pool import SharedFilePool
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
from repro.net.link import Link
from repro.net.transport import RpcTransport
from repro.vfs.inode import Metadata
from repro.vfs.tree import FileSystemTree
from tests.test_gear_pool import admit


def build_env():
    """An index of a small root, its files in a registry, and a viewer."""
    root = FileSystemTree()
    root.mkdir("/bin")
    root.write_file("/bin/sh", b"shell!" * 500, meta=Metadata(mode=0o755))
    root.symlink("/bin/bash", "sh")
    root.write_file("/etc/conf", b"key=value", parents=True)
    index = GearIndex.from_tree("app.gear", "v1", root)

    clock = SimClock()
    link = Link(clock, bandwidth_mbps=904)
    transport = RpcTransport(link)
    registry = GearRegistry()
    transport.bind(registry.endpoint())
    for _, node in root.iter_files():
        registry.upload(GearFile.from_blob(node.blob))

    pool = SharedFilePool()
    viewer = GearFileViewer(index, pool, transport=transport)
    return root, index, registry, pool, viewer, link, clock


class TestFaultPath:
    def test_read_faults_file_from_registry(self):
        root, index, _, pool, viewer, link, _ = build_env()
        data = viewer.read_bytes("/bin/sh")
        assert data == b"shell!" * 500
        assert viewer.fault_stats.faults == 1
        assert viewer.fault_stats.remote_fetches == 1
        assert link.log.total_bytes > 0

    def test_second_read_served_from_index(self):
        _, _, _, _, viewer, link, _ = build_env()
        viewer.read_bytes("/bin/sh")
        bytes_after_first = link.log.total_bytes
        viewer.read_bytes("/bin/sh")
        assert viewer.fault_stats.faults == 1  # no second fault
        assert link.log.total_bytes == bytes_after_first

    def test_stub_replaced_by_hard_link(self):
        _, index, _, pool, viewer, _, _ = build_env()
        viewer.read_bytes("/bin/sh")
        node = viewer.stat("/bin/sh")
        assert STUB_XATTR not in node.meta.xattrs
        assert node.nlink >= 2  # pool + index
        entry = index.entries["/bin/sh"]
        assert pool.get(entry.identity) is node
        assert index.links["/bin/sh"] is node
        # The link lives beside the index tree, which keeps its stub.
        assert STUB_XATTR in index.tree.stat("/bin/sh").meta.xattrs

    def test_mode_restored_on_link(self):
        _, index, _, _, viewer, _, _ = build_env()
        viewer.read_bytes("/bin/sh")
        assert viewer.stat("/bin/sh").meta.mode == 0o755
        assert index.links["/bin/sh"].meta.mode == 0o755

    def test_cache_hit_avoids_network(self):
        root, _, _, pool, viewer, link, _ = build_env()
        # Pre-seed the pool, as if another image had fetched the file.
        admit(pool, GearFile.from_blob(root.read_blob("/bin/sh")))
        bytes_before = link.log.total_bytes
        viewer.read_bytes("/bin/sh")
        assert viewer.fault_stats.cache_hits == 1
        assert viewer.fault_stats.remote_fetches == 0
        assert link.log.total_bytes == bytes_before

    def test_symlink_resolves_to_faulted_file(self):
        _, _, _, _, viewer, _, _ = build_env()
        assert viewer.read_bytes("/bin/bash") == b"shell!" * 500

    def test_irregular_files_served_from_index_without_fault(self):
        _, _, _, _, viewer, link, _ = build_env()
        assert viewer.readlink("/bin/bash") == "sh"
        assert viewer.listdir("/bin") == ["bash", "sh"]
        assert viewer.fault_stats.faults == 0
        assert link.log.total_bytes == 0

    def test_missing_registry_entry_raises(self):
        _, index, registry, _, viewer, _, _ = build_env()
        for identity in set(filter(None, index.entries.identities)):
            # Simulate a registry that lost its objects.
            registry._store.delete(identity)
        with pytest.raises(NotFoundError):
            viewer.read_bytes("/bin/sh")

    def test_no_transport_and_cold_cache_raises(self):
        root = FileSystemTree()
        root.write_file("/f", b"x", parents=True)
        index = GearIndex.from_tree("i", "v", root)
        viewer = GearFileViewer(index, SharedFilePool(), transport=None)
        with pytest.raises(NotFoundError):
            viewer.read_bytes("/f")


class TestSharing:
    def test_two_viewers_share_pool(self):
        root, index, registry, pool, viewer, link, clock = build_env()
        viewer.read_bytes("/bin/sh")
        # A second image with the same file: its viewer hits the cache.
        other_index = GearIndex.from_image(index.to_image())
        transport = viewer.transport
        second = GearFileViewer(other_index, pool, transport=transport)
        bytes_before = link.log.total_bytes
        second.read_bytes("/bin/sh")
        assert second.fault_stats.cache_hits == 1
        assert link.log.total_bytes == bytes_before

    def test_containers_of_same_image_share_index(self):
        _, index, _, pool, viewer, _, _ = build_env()
        viewer.read_bytes("/etc/conf")
        second = GearFileViewer(index, pool, transport=viewer.transport)
        second.read_bytes("/etc/conf")
        # Second viewer reads through the index's materialized inode —
        # no fault at all.
        assert second.fault_stats.faults == 0


class TestTelemetry:
    @pytest.fixture
    def viewer_calls(self, monkeypatch):
        """Names of the ``SimClock.span`` / ``instant`` calls made from
        the viewer module's own frames."""
        calls = []
        for method in ("span", "instant"):
            original = getattr(SimClock, method)

            def counted(clock, name, *args, _original=original, **labels):
                caller = sys._getframe(1).f_code.co_filename
                if caller.replace("\\", "/").endswith("gear/viewer.py"):
                    calls.append(name)
                return _original(clock, name, *args, **labels)

            monkeypatch.setattr(SimClock, method, counted)
        return calls

    @staticmethod
    def fault_twice(root, pool, viewer):
        viewer.read_bytes("/bin/sh")  # a remote fetch
        admit(pool, GearFile.from_blob(root.read_blob("/etc/conf")))
        viewer.read_bytes("/etc/conf")  # a cache hit

    def test_an_untraced_fault_pays_for_no_span_or_instant(self, viewer_calls):
        root, _, _, pool, viewer, _, _ = build_env()
        self.fault_twice(root, pool, viewer)
        assert viewer.fault_stats.faults == 2
        assert viewer_calls == []

    def test_a_traced_fault_still_records_its_phases(self, viewer_calls):
        root, _, _, pool, viewer, _, clock = build_env()
        tracer = clock.attach_tracer()
        self.fault_twice(root, pool, viewer)
        assert viewer_calls == ["fetch_file", "link", "cache_hit", "link"]
        assert [span.name for span in tracer.finished_spans()] == [
            "fetch_file", "link", "link"
        ]
        assert "cache_hit" in [event.name for event in tracer.instants]


class TestHelpers:
    def test_prefetch_faults_without_read(self):
        _, _, _, _, viewer, _, _ = build_env()
        viewer.prefetch("/bin/sh")
        assert viewer.fault_stats.faults == 1
        assert viewer.stats.reads == 0


class TestWritableLayer:
    def test_writes_do_not_touch_index(self):
        _, index, _, _, viewer, _, _ = build_env()
        viewer.write_file("/etc/new", b"mine", parents=True)
        assert not index.tree.exists("/etc/new")
        assert viewer.read_bytes("/etc/new") == b"mine"

    def test_overwrite_shadows_stub_without_fault(self):
        _, _, _, _, viewer, link, _ = build_env()
        viewer.write_file("/etc/conf", b"replaced")
        assert viewer.read_bytes("/etc/conf") == b"replaced"
        assert viewer.fault_stats.faults == 0
        assert link.log.total_bytes == 0

    def test_remove_stub_places_whiteout(self):
        _, index, _, _, viewer, _, _ = build_env()
        viewer.remove("/etc/conf")
        assert not viewer.exists("/etc/conf")
        assert index.tree.exists("/etc/conf")  # the index is untouched


class TestCopyUpAndAppendOnStubs:
    def test_copy_up_faults_real_content(self):
        _, index, _, pool, viewer, _, _ = build_env()
        viewer.copy_up("/etc/conf")
        # The upper layer holds the real bytes, never the stub text.
        assert viewer.upper.read_bytes("/etc/conf") == b"key=value"
        assert viewer.fault_stats.faults == 1

