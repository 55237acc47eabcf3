"""Dedup engines: granularity invariants from Table II."""

import pytest

from repro.blob import Blob
from repro.dedup.engines import (
    chunk_level_dedup,
    file_level_dedup,
    layer_level_dedup,
    no_dedup,
)
from repro.docker.builder import ImageBuilder


def chain_of_images(n=3, shared=b"common payload " * 400):
    """Version chain sharing a base layer, each version adding a file."""
    base = ImageBuilder("base", "v1").add_file("/shared", shared).build()
    images = [base]
    for index in range(1, n):
        images.append(
            ImageBuilder("app", f"v{index}", base=base)
            .add_file(f"/app/file{index}", f"unique {index}".encode() * 200)
            .add_file("/app/same-everywhere", b"identical content" * 100)
            .build()
        )
    return images


class TestNoDedup:
    def test_counts_whole_images(self):
        images = chain_of_images()
        report = no_dedup(images)
        assert report.object_count == len(images)
        assert report.storage_bytes == sum(i.uncompressed_size for i in images)


class TestLayerLevel:
    def test_shared_layers_counted_once(self):
        images = chain_of_images()
        report = layer_level_dedup(images)
        # base layer + one unique layer per derived image.
        assert report.object_count == 1 + (len(images) - 1)

    def test_layer_storage_is_compressed(self):
        images = chain_of_images()
        report = layer_level_dedup(images)
        assert report.storage_bytes < report.logical_bytes


class TestFileLevel:
    def test_identical_files_across_images_dedup(self):
        images = chain_of_images()
        report = file_level_dedup(images)
        # /shared + /app/same-everywhere + one unique file per version.
        assert report.object_count == 2 + (len(images) - 1)

    def test_file_beats_layer(self):
        # Different layers containing identical files: layer dedup fails,
        # file dedup succeeds — the paper's core observation.
        a = ImageBuilder("a", "v1").add_file("/f", b"same" * 1000).add_file(
            "/a-only", b"a"
        ).build()
        b = ImageBuilder("b", "v1").add_file("/f", b"same" * 1000).add_file(
            "/b-only", b"b"
        ).build()
        assert layer_level_dedup([a, b]).object_count == 2
        file_report = file_level_dedup([a, b])
        assert file_report.object_count == 3
        assert file_report.storage_bytes < layer_level_dedup([a, b]).storage_bytes


class TestChunkLevel:
    def test_partially_shared_files_share_chunks(self):
        blob = Blob.synthetic("big", 128 * 1024 * 8)
        mutated = blob.mutate("edit", 0.25)
        a = ImageBuilder("a", "v1").add_file("/big", blob).build()
        b = ImageBuilder("b", "v1").add_file("/big", mutated).build()
        file_report = file_level_dedup([a, b])
        chunk_report = chunk_level_dedup([a, b])
        assert chunk_report.storage_bytes < file_report.storage_bytes
        assert chunk_report.object_count > file_report.object_count

    def test_identical_files_add_no_chunks(self):
        a = ImageBuilder("a", "v1").add_file("/f", b"x" * 1000).build()
        b = ImageBuilder("b", "v1").add_file("/f", b"x" * 1000).build()
        one = chunk_level_dedup([a])
        two = chunk_level_dedup([a, b])
        assert one.object_count == two.object_count


#: Table II's columns, coarsest granularity first.
ENGINES = (no_dedup, layer_level_dedup, file_level_dedup, chunk_level_dedup)


class TestOrdering:
    def test_granularity_monotonicity(self):
        """Finer granularity never stores more bytes (Table II's shape)."""
        images = chain_of_images(5)
        stored = [engine(images).storage_bytes for engine in ENGINES]
        assert stored == sorted(stored, reverse=True)

    def test_object_counts_grow_with_granularity(self):
        images = chain_of_images(5)
        counts = [engine(images).object_count for engine in ENGINES]
        assert counts == sorted(counts)

    def test_saving_vs(self):
        images = chain_of_images()
        saving = file_level_dedup(images).saving_vs(no_dedup(images))
        assert 0 < saving < 1
