"""Deep edge cases across subsystems.

Scenarios too specific for the per-module files: overlay chains three
levels deep, whiteout-over-whiteout, empty layers, zero-byte files end to
end, metadata propagation through conversion, and accounting corners.
"""

import pytest

from repro.blob import Blob
from repro.common.clock import SimClock
from repro.docker.builder import ImageBuilder
from repro.docker.registry import DockerRegistry
from repro.gear.converter import GearConverter
from repro.gear.registry import GearRegistry
from repro.vfs.inode import Metadata
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree
from tests.test_docker_image import layer_from_files
from tests.conftest import image_of


class TestDeepOverlayChains:
    def make_three_level(self):
        bottom = FileSystemTree()
        bottom.write_file("/f", b"bottom", parents=True)
        bottom.write_file("/only-bottom", b"ob")
        middle = FileSystemTree()
        middle.write_file("/f", b"middle")
        middle.whiteout("/only-bottom")
        top = FileSystemTree()
        top.write_file("/g", b"top")
        return OverlayMount([top.freeze(), middle.freeze(), bottom.freeze()])

    def test_middle_layer_shadows_and_whiteouts(self):
        mount = self.make_three_level()
        assert mount.read_bytes("/f") == b"middle"
        assert not mount.exists("/only-bottom")
        assert mount.read_bytes("/g") == b"top"

    def test_upper_write_over_three_levels(self):
        mount = self.make_three_level()
        mount.write_file("/f", b"upper")
        assert mount.read_bytes("/f") == b"upper"
        mount.remove("/f")
        # Whiteout hides both middle and bottom versions.
        assert not mount.exists("/f")

    def test_recreating_whiteouted_lower_name(self):
        mount = self.make_three_level()
        mount.write_file("/only-bottom", b"reborn", parents=True)
        assert mount.read_bytes("/only-bottom") == b"reborn"

    def test_listdir_across_three_levels(self):
        mount = self.make_three_level()
        assert mount.listdir("/") == ["f", "g"]


class TestZeroByteFiles:
    def test_zero_byte_file_through_gear_pipeline(self):
        clock = SimClock()
        docker_registry = DockerRegistry()
        gear_registry = GearRegistry()
        converter = GearConverter(clock, docker_registry, gear_registry)
        image = (
            ImageBuilder("zero", "v1")
            .add_file("/empty", b"")
            .add_file("/full", b"data")
            .build()
        )
        docker_registry.push_image(image)
        index, report = converter.convert("zero:v1")
        assert report.file_count == 2
        assert index.entries["/empty"].size == 0
        empty_identity = index.entries["/empty"].identity
        assert gear_registry.download(empty_identity).size == 0

    def test_two_empty_files_deduplicate(self):
        tree = FileSystemTree()
        tree.write_file("/a", b"", parents=True)
        tree.write_file("/b", b"", parents=True)
        assert (
            tree.read_blob("/a").fingerprint == tree.read_blob("/b").fingerprint
        )


class TestEmptyAndOddLayers:
    def test_empty_tree_archive(self):
        archive = LayerArchive.from_tree(FileSystemTree())
        assert len(archive) == 0
        assert archive.uncompressed_size > 0  # tar trailer blocks
        extracted = archive.extract()
        assert sum(1 for _ in extracted.walk()) == 0

    def test_two_empty_layers_share_digest(self):
        a = LayerArchive.from_tree(FileSystemTree())
        b = LayerArchive.from_tree(FileSystemTree())
        assert a.digest == b.digest

    def test_directory_metadata_survives_roundtrip(self):
        tree = FileSystemTree()
        inode = tree.mkdir("/secret")
        inode.meta = Metadata(mode=0o700, uid=1000)
        extracted = LayerArchive.from_tree(tree).extract()
        assert extracted.stat("/secret").meta.mode == 0o700
        assert extracted.stat("/secret").meta.uid == 1000


class TestMetadataThroughConversion:
    def test_file_mode_preserved_into_index_and_fault(self):
        clock = SimClock()
        docker_registry = DockerRegistry()
        gear_registry = GearRegistry()
        converter = GearConverter(clock, docker_registry, gear_registry)
        image = (
            ImageBuilder("modes", "v1")
            .add_file("/bin/tool", b"x" * 100, mode=0o755)
            .add_file("/etc/secret", b"y" * 100, mode=0o600)
            .build()
        )
        docker_registry.push_image(image)
        index, _ = converter.convert("modes:v1")
        assert index.entries["/bin/tool"].mode == 0o755
        assert index.entries["/etc/secret"].mode == 0o600
        assert index.tree.stat("/bin/tool").meta.mode == 0o755

    def test_hardlinked_files_become_one_gear_file(self):
        clock = SimClock()
        docker_registry = DockerRegistry()
        gear_registry = GearRegistry()
        converter = GearConverter(clock, docker_registry, gear_registry)
        tree = FileSystemTree()
        tree.write_file("/a", b"shared inode" * 50, parents=True)
        tree.hardlink("/b", "/a")
        from tests.test_docker_builder import image_from_tree

        docker_registry.push_image(image_from_tree("hard", "v1", tree))
        index, report = converter.convert("hard:v1")
        assert report.file_count == 2  # two paths
        assert len({e.identity for e in index.entries.values()}) == 1  # one content
        assert gear_registry.file_count == 1


class TestAccountingCorners:
    def test_link_log_records_have_timestamps(self):
        from repro.net.link import Link

        clock = SimClock()
        link = Link(clock, bandwidth_mbps=8)
        link.transfer(1000, label="first")
        link.transfer(2000, label="second")
        records = link.log.records
        assert records[0].start + records[0].duration <= records[1].start + 1e-12
        assert records[1].label == "second"

    def test_clock_trace_through_deployment(self, small_corpus):
        from repro.bench.environment import make_testbed, publish_images
        from repro.bench.deploy import deploy_with_gear

        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        # Virtual elapsed == sum of pull and run phases exactly.
        before = testbed.clock.now
        result = deploy_with_gear(testbed, image_of(small_corpus, "nginx:v1"))
        assert testbed.clock.now - before == pytest.approx(result.total_s)

    def test_registry_layer_bytes_uncompressed_vs_stored(self):
        registry = DockerRegistry()
        layer = layer_from_files([("/f", b"z" * 50_000)])
        registry.push_layer(layer)
        assert registry.stored_bytes < layer.uncompressed_size


class TestIndexTreeSharing:
    def test_concurrent_containers_see_each_others_materialization(
        self, small_corpus
    ):
        from repro.bench.environment import make_testbed, publish_images

        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        first, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        second = testbed.gear_driver.create_container("nginx.gear:v1")
        testbed.gear_driver.start_container(second)
        path = image_of(small_corpus, "nginx:v1").trace.accesses[0][0]
        first.mount.read_bytes(path)
        # Second container reads the same file: zero faults, shared inode.
        second.mount.read_bytes(path)
        assert second.mount.fault_stats.faults == 0
        assert (
            first.mount.stat(path).ino == second.mount.stat(path).ino
        )

    def test_writes_in_one_container_invisible_to_the_other(
        self, small_corpus
    ):
        from repro.bench.environment import make_testbed, publish_images

        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        first, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        second = testbed.gear_driver.create_container("nginx.gear:v1")
        first.mount.write_file("/tmp/mine", b"private", parents=True)
        assert not second.mount.exists("/tmp/mine")


class TestBlobChunkBoundaries:
    @pytest.mark.parametrize("size", [
        0, 1, 128 * 1024 - 1, 128 * 1024, 128 * 1024 + 1, 5 * 128 * 1024,
    ])
    def test_synthetic_sizes_at_boundaries(self, size):
        blob = Blob.synthetic("edge", size)
        assert blob.size == size
        assert sum(c.size for c in blob.chunks) == size
        if size:
            assert all(c.size > 0 for c in blob.chunks)

    def test_mutate_preserves_size_without_delta(self):
        blob = Blob.synthetic("edge", 777_777)
        assert blob.mutate("m", 0.5).size == blob.size
