"""A DupHunter-style deduplicating registry baseline.

§VI-A: Zhao et al.'s DupHunter does "file-level deduplication after
decompressing the layers and hide[s] the overhead caused by
reconstructing the compressed layers via a content-aware cache."  The
paper's argument against this family: "existing deduplication methods
neither reduce bandwidth demands nor accelerate the deployment of a
container, because … an entire image still has to be reconstructed and
downloaded."

This baseline makes that argument measurable.  The registry stores
unique files once (storage ≈ Gear's), but a pull must *reconstruct* each
layer — reading every member file and re-compressing — and then ship the
full compressed layer to the client.  DupHunter's content-aware layer
cache is left out: every pull pays the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.common.hashing import Digest
from repro.docker.image import Image, Layer, Manifest
from repro.storage.disk import Disk

#: Re-compressing a reconstructed layer (single-threaded gzip).
RECOMPRESS_BPS = 90e6


@dataclass
class DupHunterStats:
    """Registry-side work accounting."""

    reconstructions: int = 0
    reconstructed_bytes: int = 0


class DupHunterRegistry:
    """File-deduplicated layer storage with on-demand reconstruction."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.disk = Disk(clock)
        self._manifests: Dict[str, Manifest] = {}
        self._layers: Dict[Digest, Layer] = {}
        #: Unique file store: fingerprint → (size, compressed size).
        self._files: Dict[str, Tuple[int, int]] = {}
        self.stats = DupHunterStats()

    # -- push ---------------------------------------------------------------

    def push_image(self, image: Image) -> None:
        """Store the image with per-file dedup (layers are decomposed)."""
        for layer in image.layers:
            if layer.digest in self._layers:
                continue
            self._layers[layer.digest] = layer
            for entry in layer.archive:
                if entry.blob is None:
                    continue
                fingerprint = entry.blob.fingerprint
                if fingerprint not in self._files:
                    from repro.blob.compressibility import blob_compressed_size

                    self._files[fingerprint] = (
                        entry.blob.size,
                        blob_compressed_size(entry.blob),
                    )
        self._manifests[image.reference] = image.manifest()

    # -- pull -----------------------------------------------------------------

    def get_manifest(self, reference: str) -> Manifest:
        try:
            return self._manifests[reference]
        except KeyError:
            raise NotFoundError(f"no such image: {reference!r}") from None

    def serve_layer(self, digest: Digest) -> Tuple[Layer, int]:
        """Serve one layer, reconstructing it.

        Returns the layer and the wire payload size (the *compressed
        full layer*, which is the point: dedup does not shrink what the
        client downloads).
        """
        layer = self._layers.get(digest)
        if layer is None:
            raise NotFoundError(f"no such layer: {digest.short()}")
        # Reconstruct: read every member file from the dedup store,
        # write the assembled tarball, re-compress it.
        self.disk.read(
            layer.uncompressed_size,
            file_ops=len(layer.archive),
            label=f"duphunter-reassemble:{digest.short()}",
        )
        self.clock.advance(
            layer.uncompressed_size / RECOMPRESS_BPS,
            f"duphunter-recompress:{digest.short()}",
        )
        self.stats.reconstructions += 1
        self.stats.reconstructed_bytes += layer.uncompressed_size
        return layer, layer.compressed_size

    # -- accounting ---------------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        """Dedup store + manifests."""
        files = sum(compressed for _, compressed in self._files.values())
        manifests = sum(m.size_bytes for m in self._manifests.values())
        return files + manifests

    def __repr__(self) -> str:
        return (
            f"DupHunterRegistry(images={len(self._manifests)}, "
            f"files={len(self._files)}, bytes={self.stored_bytes})"
        )
