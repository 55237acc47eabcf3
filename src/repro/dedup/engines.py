"""Corpus-wide deduplication analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.blob.compressibility import blob_compressed_size, chunk_compressed_size
from repro.docker.image import Image


@dataclass(frozen=True)
class DedupReport:
    """Outcome of one deduplication pass over a corpus.

    ``storage_bytes`` is what the registry would store (unique objects,
    compressed where the scheme compresses); ``logical_bytes`` is the
    same data uncompressed; ``object_count`` is the number of unique
    managed objects — the management-cost axis of Table II.
    """

    granularity: str
    object_count: int
    logical_bytes: int
    storage_bytes: int

    def saving_vs(self, other: "DedupReport") -> float:
        """Fractional storage saving relative to another report."""
        if other.storage_bytes == 0:
            return 0.0
        return 1.0 - self.storage_bytes / other.storage_bytes


def no_dedup(images: Sequence[Image]) -> DedupReport:
    """Baseline: every image stored whole and uncompressed.

    Table II's "No" column is the unpacked corpus (370 GB for 971
    images); objects are whole images.
    """
    total = sum(image.uncompressed_size for image in images)
    return DedupReport(
        granularity="none",
        object_count=len(images),
        logical_bytes=total,
        storage_bytes=total,
    )


def layer_level_dedup(images: Sequence[Image]) -> DedupReport:
    """What a stock Docker registry does: unique compressed layers."""
    logical: Dict[str, int] = {}
    stored: Dict[str, int] = {}
    for image in images:
        for layer in image.layers:
            logical[layer.digest] = layer.uncompressed_size
            stored[layer.digest] = layer.compressed_size
    return DedupReport(
        granularity="layer",
        object_count=len(stored),
        logical_bytes=sum(logical.values()),
        storage_bytes=sum(stored.values()),
    )


def file_level_dedup(images: Sequence[Image]) -> DedupReport:
    """Unique files across all unpacked images, compressed per file.

    This is the granularity Gear adopts (§II-D): near-chunk-level space
    savings at ~16× fewer objects.
    """
    logical: Dict[str, int] = {}
    stored: Dict[str, int] = {}
    for image in images:
        tree = image.flatten()
        for _, node in tree.iter_files():
            assert node.blob is not None
            fingerprint = node.blob.fingerprint
            if fingerprint not in logical:
                logical[fingerprint] = node.blob.size
                stored[fingerprint] = blob_compressed_size(node.blob)
    return DedupReport(
        granularity="file",
        object_count=len(stored),
        logical_bytes=sum(logical.values()),
        storage_bytes=sum(stored.values()),
    )


def chunk_level_dedup(images: Sequence[Image]) -> DedupReport:
    """Unique 128 KB chunks across all unpacked images."""
    logical: Dict[str, int] = {}
    stored: Dict[str, int] = {}
    for image in images:
        tree = image.flatten()
        for _, node in tree.iter_files():
            assert node.blob is not None
            for chunk in node.blob.chunks:
                if chunk.token not in logical:
                    logical[chunk.token] = chunk.size
                    stored[chunk.token] = chunk_compressed_size(chunk)
    return DedupReport(
        granularity="chunk",
        object_count=len(stored),
        logical_bytes=sum(logical.values()),
        storage_bytes=sum(stored.values()),
    )
