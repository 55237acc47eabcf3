"""Chunk-granular big-file reads (the §VII future-work extension)."""

import pytest

from repro.blob import Blob, DEFAULT_CHUNK_SIZE
from repro.common.clock import SimClock
from repro.common.errors import GearError
from repro.common.units import MiB
from repro.gear.bigfile import ChunkedGearFileViewer
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.pool import SharedFilePool
from repro.gear.registry import GearRegistry
from repro.net.link import Link
from repro.net.transport import RpcTransport
from repro.vfs.tree import FileSystemTree

BIG = 8 * MiB  # 64 chunks at 128 KiB


def build_env(threshold=1 * MiB):
    root = FileSystemTree()
    root.write_file("/models/weights.bin", Blob.synthetic("model", BIG), parents=True)
    root.write_file("/etc/small.conf", b"tiny", parents=True)
    index = GearIndex.from_tree("ai.gear", "v1", root)
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=904)
    transport = RpcTransport(link)
    registry = GearRegistry()
    transport.bind(registry.endpoint())
    for _, node in root.iter_files():
        registry.upload(GearFile.from_blob(node.blob))
    viewer = ChunkedGearFileViewer(
        index, SharedFilePool(), transport=transport,
        big_file_threshold=threshold,
    )
    return viewer, link


class TestPartialReads:
    def test_range_read_fetches_only_covering_chunks(self):
        viewer, link = build_env()
        got = viewer.read_range("/models/weights.bin", 0, 100_000)
        assert got == 100_000
        assert viewer.chunk_stats.chunks_fetched == 1
        # Far less traffic than the whole 8 MiB file.
        assert link.log.total_bytes < 1 * MiB

    def test_range_spanning_chunks(self):
        viewer, _ = build_env()
        viewer.read_range(
            "/models/weights.bin", DEFAULT_CHUNK_SIZE - 10, 20
        )
        assert viewer.chunk_stats.chunks_fetched == 2

    def test_chunks_not_refetched(self):
        viewer, link = build_env()
        viewer.read_range("/models/weights.bin", 0, 10)
        bytes_after = link.log.total_bytes
        viewer.read_range("/models/weights.bin", 0, 10)
        assert viewer.chunk_stats.chunks_fetched == 1
        assert link.log.total_bytes == bytes_after

    def test_small_files_use_whole_file_path(self):
        viewer, _ = build_env()
        got = viewer.read_range("/etc/small.conf", 0, 4)
        assert got == 4
        assert viewer.chunk_stats.chunks_fetched == 0
        assert viewer.fault_stats.remote_fetches == 1

    def test_read_past_end_truncates(self):
        viewer, _ = build_env()
        got = viewer.read_range("/models/weights.bin", BIG - 5, 100)
        assert got == 5

    def test_rejects_negative_range(self):
        viewer, _ = build_env()
        with pytest.raises(ValueError):
            viewer.read_range("/models/weights.bin", -1, 10)


class TestPromotion:
    def test_full_coverage_promotes_to_pool(self):
        viewer, _ = build_env()
        viewer.read_range("/models/weights.bin", 0, BIG)
        entry = viewer.index.entries["/models/weights.bin"]
        assert viewer.pool.contains(entry.identity)
        # Subsequent whole-file reads are index-local.
        viewer.read_bytes("/models/weights.bin")
        assert viewer.fault_stats.remote_fetches == 0


class TestSavings:
    def test_partial_access_much_cheaper_than_whole_file(self):
        chunked, chunked_link = build_env()
        chunked.read_range("/models/weights.bin", 0, 256 * 1024)

        whole, whole_link = build_env(threshold=32 * MiB)  # disable chunking
        whole.read_range("/models/weights.bin", 0, 256 * 1024)

        assert chunked_link.log.total_bytes < whole_link.log.total_bytes / 5

    def test_bad_threshold_rejected(self):
        with pytest.raises(GearError):
            build_env(threshold=0)


class TestRangeEdgeCases:
    def test_read_range_on_directory_raises(self):
        viewer, _ = build_env()
        with pytest.raises(GearError):
            viewer.read_range("/models", 0, 10)

    def test_read_range_after_promotion_uses_pool(self):
        viewer, link = build_env()
        viewer.read_range("/models/weights.bin", 0, BIG)  # promote
        bytes_after = link.log.total_bytes
        got = viewer.read_range("/models/weights.bin", 0, 4096)
        assert got == 4096
        assert link.log.total_bytes == bytes_after

    def test_zero_length_range(self):
        viewer, _ = build_env()
        got = viewer.read_range("/models/weights.bin", 0, 0)
        assert got == 0
        # A zero-length read still resolves the chunk map but fetches no
        # data chunks.
        assert viewer.chunk_stats.chunks_fetched == 0
