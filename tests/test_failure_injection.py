"""Failure injection: missing objects, corrupted stubs, torn-down services.

The framework must fail loudly and precisely — a registry losing an
object, a malformed index, or an unbound service should surface as the
typed error closest to the cause, never as silent wrong data.
"""

import pytest

from repro.blob import Blob
from repro.common.errors import (
    GearError,
    NotFoundError,
    TransportError,
)
from repro.bench.environment import make_testbed, publish_images
from repro.gear.index import GearIndex, STUB_MAGIC, STUB_XATTR
from repro.gear.pool import SharedFilePool
from repro.gear.viewer import GearFileViewer
from repro.vfs.inode import Metadata
from repro.vfs.tree import FileSystemTree
from tests.conftest import image_of


class TestRegistryLoss:
    def test_lost_gear_file_surfaces_as_not_found(self, small_corpus):
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        container, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        # The registry loses every object (disk wipe).
        for identity in set(filter(None, container.index.entries.identities)):
            testbed.gear_registry._store.delete(identity)
        path = image_of(small_corpus, "nginx:v1").trace.accesses[0][0]
        with pytest.raises(NotFoundError):
            container.mount.read_bytes(path)

    def test_lost_layer_blocks_pull(self, small_corpus):
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=False)
        manifest = testbed.docker_registry.get_manifest("nginx:v1")
        # A registry-side disk failure: the manifest still names the layer.
        del testbed.docker_registry._layer_objects[manifest.layer_digests[-1]]
        with pytest.raises(NotFoundError):
            testbed.daemon.pull("nginx:v1")

    def test_unbound_endpoint_is_transport_error(self):
        from repro.common.clock import SimClock
        from repro.net.link import Link
        from repro.net.transport import RpcTransport

        transport = RpcTransport(Link(SimClock()))
        with pytest.raises(TransportError):
            transport.call("gear-registry", "query", "abc")


class TestMalformedIndexes:
    def test_truncated_stub_rejected_at_parse(self):
        tree = FileSystemTree()
        meta = Metadata()
        tree.write_file("/f", Blob.from_text(f"{STUB_MAGIC}broken"), meta=meta,
                        parents=True)
        from tests.test_docker_builder import image_from_tree

        image = image_from_tree("bad.gear", "v1", tree, gear_index=True)
        with pytest.raises(GearError):
            GearIndex.from_image(image)

    @pytest.mark.parametrize("members", [
        ["/d/f"],            # no directory member above it
        ["/f", "/f"],        # one path twice
        ["/f", "/f/g"],      # a member below a file
        ["/.wh.f"],          # a whiteout: an index is not a diff
    ])
    def test_an_archive_not_shaped_like_an_index_is_rejected_at_parse(self, members):
        from repro.docker.image import Image, Layer
        from repro.vfs.tar import LayerArchive, TarEntry
        from repro.vfs.inode import FileKind

        stub = Blob.from_text(f"{STUB_MAGIC}{'a' * 32}:4\n")
        archive = LayerArchive(
            [TarEntry(path, FileKind.FILE, 0o644, 0, 0, blob=stub) for path in members]
        )
        image = Image("bad.gear", "v1", [Layer(archive)], gear_index=True)
        with pytest.raises(GearError):
            GearIndex.from_image(image)

    def test_stub_without_entry_fails_fault(self):
        # The entry view is read-only: no path can lose its entry.  A stub
        # reached at a path the index has no entry for (a node from one
        # path faulted at another) must not fabricate content.
        root = FileSystemTree()
        root.write_file("/f", b"real", parents=True)
        index = GearIndex.from_tree("i", "v", root)
        with pytest.raises(TypeError):
            del index.entries["/f"]
        viewer = GearFileViewer(index, SharedFilePool(), transport=None)
        stub = index.tree.stat("/f")
        with pytest.raises(GearError):
            viewer._drive(viewer._materialize(stub, None))

    def test_index_from_regular_image_rejected(self, small_corpus):
        with pytest.raises(GearError):
            GearIndex.from_image(image_of(small_corpus, "nginx:v1").image)


class TestCacheDamage:
    def test_cache_drop_mid_flight_refetches(self, small_corpus):
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        container, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        trace = image_of(small_corpus, "nginx:v1").trace
        container.mount.read_bytes(trace.accesses[0][0])
        # Operator wipes the level-1 cache under a live container: already
        # linked files keep working (hard links), new faults re-download.
        testbed.gear_driver.pool.clear()
        assert container.mount.read_blob(trace.accesses[0][0]).size > 0
        container.mount.read_bytes(trace.accesses[-1][0])
        assert container.mount.fault_stats.remote_fetches >= 2

    def test_eviction_never_breaks_linked_files(self, small_corpus):
        testbed = make_testbed(pool_capacity_bytes=1)
        # Capacity 1 byte: every insert must evict, but linked inodes are
        # pinned, so reads keep working and failures count up.
        publish_images(testbed, small_corpus.images, convert=True)
        container, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        trace = image_of(small_corpus, "nginx:v1").trace
        data_first = container.mount.read_bytes(trace.accesses[0][0])
        data_again = container.mount.read_bytes(trace.accesses[0][0])
        assert data_first == data_again


class TestConverterEdgeCases:
    def test_empty_directory_only_image(self):
        from repro.docker.builder import ImageBuilder
        from repro.common.clock import SimClock
        from repro.docker.registry import DockerRegistry
        from repro.gear.converter import GearConverter
        from repro.gear.registry import GearRegistry

        clock = SimClock()
        docker_registry = DockerRegistry()
        converter = GearConverter(clock, docker_registry, GearRegistry())
        builder = ImageBuilder("dirs", "v1")
        builder.mount.mkdir("/only/dirs/here", parents=True)
        image = builder.build()
        docker_registry.push_image(image)
        index, report = converter.convert("dirs:v1")
        assert report.file_count == 0
        assert index.tree.is_dir("/only/dirs/here")

    def test_symlink_only_image(self):
        from repro.docker.builder import ImageBuilder
        from repro.common.clock import SimClock
        from repro.docker.registry import DockerRegistry
        from repro.gear.converter import GearConverter
        from repro.gear.registry import GearRegistry

        clock = SimClock()
        docker_registry = DockerRegistry()
        converter = GearConverter(clock, docker_registry, GearRegistry())
        image = (
            ImageBuilder("links", "v1")
            .add_file("/target", b"t")
            .add_symlink("/link", "/target")
            .build()
        )
        docker_registry.push_image(image)
        index, _ = converter.convert("links:v1")
        assert index.tree.readlink("/link") == "/target"


class TestIntegrityVerification:
    def test_corrupted_download_raises_integrity_error(self, small_corpus):
        from repro.blob import Blob
        from repro.common.errors import IntegrityError
        from repro.gear.gearfile import GearFile

        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        container, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        # Corrupt one referenced object in place: same identity key,
        # different bytes.  Every re-fetch keeps returning the damaged
        # object, so after the quarantine/refetch budget the viewer must
        # surface the fault — never serve or cache the poison.
        index = testbed.gear_driver.get_index("nginx.gear:v1")
        path, entry = next(iter(sorted(index.entries.items())))
        victim = entry.identity
        testbed.gear_registry.corrupt(
            victim, GearFile(identity=victim, blob=Blob.from_bytes(b"evil bytes"))
        )
        with pytest.raises(IntegrityError):
            container.mount.read_bytes(path)
        stats = container.mount.fault_stats
        assert stats.integrity_failures >= 1
        assert stats.refetches == container.mount.INTEGRITY_REFETCH_LIMIT
        assert not testbed.gear_driver.pool.contains(victim)
        assert testbed.gear_driver.pool.stats.quarantines >= 1

    def test_registry_side_repair_lifts_quarantine(self, small_corpus):
        from repro.blob import Blob
        from repro.gear.gearfile import GearFile

        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        container, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        index = testbed.gear_driver.get_index("nginx.gear:v1")
        path, entry = next(iter(sorted(index.entries.items())))
        victim = entry.identity
        good = testbed.gear_registry.download(victim)
        testbed.gear_registry.corrupt(
            victim, GearFile(identity=victim, blob=Blob.from_bytes(b"bad"))
        )
        from repro.common.errors import IntegrityError

        with pytest.raises(IntegrityError):
            container.mount.read_bytes(path)
        # The operator restores the object; the next read re-fetches,
        # verifies, lifts the quarantine, and caches the good copy.
        testbed.gear_registry.corrupt(victim, good)
        assert container.mount.read_blob(path).fingerprint == victim
        assert testbed.gear_driver.pool.contains(victim)

    def test_uid_identities_skip_fingerprint_check(self):
        from repro.blob import Blob
        from repro.common.clock import SimClock
        from repro.gear.gearfile import GearFile
        from repro.gear.index import GearFileEntry, GearIndex
        from repro.gear.pool import SharedFilePool
        from repro.gear.registry import GearRegistry
        from repro.gear.viewer import GearFileViewer
        from repro.net.link import Link
        from repro.net.transport import RpcTransport
        from repro.vfs.tree import FileSystemTree

        clock = SimClock()
        transport = RpcTransport(Link(clock))
        registry = GearRegistry()
        transport.bind(registry.endpoint())
        blob = Blob.from_bytes(b"collision-handled content")
        registry.upload(GearFile(identity="uid-00000001-abc", blob=blob))

        root = FileSystemTree()
        root.write_file("/f", blob, parents=True)
        index = GearIndex.from_tree(
            "i", "v", root,
            identity_of=lambda node: "uid-00000001-abc",
        )
        viewer = GearFileViewer(index, SharedFilePool(), transport=transport)
        assert viewer.read_bytes("/f") == b"collision-handled content"
