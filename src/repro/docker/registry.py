"""The Docker registry service.

Stores manifests and compressed layer tarballs, deduplicating layers by
digest (§II-B): "Layer-level deduplication is carried out by comparing the
digests of the layers to be stored with the digests of the layers already
in the registry.  Unique layers will be sent to and stored in the
registry."

The registry exposes an RPC endpoint so clients pay simulated network
costs for manifests and layer downloads; it can also be used in-process by
the storage experiments, which only need byte accounting.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import NotFoundError
from repro.common.hashing import Digest
from repro.docker.image import Image, Layer, Manifest
from repro.net.transport import RpcEndpoint
from repro.storage.objectstore import ObjectStore


class DockerRegistry:
    """A registry holding manifests and layer blobs."""

    ENDPOINT_NAME = "docker-registry"

    def __init__(self) -> None:
        self._manifests: Dict[str, Manifest] = {}
        self._layers = ObjectStore(name="registry-layers")
        #: Layers kept as objects so clients can re-extract them.
        self._layer_objects: Dict[Digest, Layer] = {}

    # -- push side ---------------------------------------------------------

    def has_layer(self, digest: Digest) -> bool:
        return self._layers.query(digest)

    def push_layer(self, layer: Layer) -> bool:
        """Store a layer blob; returns False when deduplicated away."""
        stored = self._layers.upload(
            layer.digest,
            layer,
            size=layer.uncompressed_size,
            stored_size=layer.compressed_size,
        )
        if stored:
            self._layer_objects[layer.digest] = layer
        return stored

    def push_manifest(self, manifest: Manifest) -> None:
        for digest in manifest.layer_digests:
            if not self.has_layer(digest):
                raise NotFoundError(
                    f"cannot publish {manifest.reference!r}: missing layer "
                    f"{digest.short()}"
                )
        self._manifests[manifest.reference] = manifest

    def push_image(self, image: Image) -> Tuple[int, int]:
        """Push an image in-process (no network accounting).

        Returns ``(layers_sent, layers_deduplicated)``.
        """
        sent = 0
        deduped = 0
        for layer in image.layers:
            if self.push_layer(layer):
                sent += 1
            else:
                deduped += 1
        self.push_manifest(image.manifest())
        return sent, deduped

    # -- pull side -----------------------------------------------------------

    def get_manifest(self, reference: str) -> Manifest:
        try:
            return self._manifests[reference]
        except KeyError:
            raise NotFoundError(f"no such image: {reference!r}") from None

    def get_layer(self, digest: Digest) -> Layer:
        try:
            return self._layer_objects[digest]
        except KeyError:
            raise NotFoundError(f"no such layer: {digest.short()}") from None

    def has_manifest(self, reference: str) -> bool:
        return reference in self._manifests

    # -- accounting ----------------------------------------------------------

    @property
    def layer_count(self) -> int:
        return len(self._layers)

    @property
    def stored_bytes(self) -> int:
        """Registry footprint: compressed layers + manifests (§II-B)."""
        manifests = sum(m.size_bytes for m in self._manifests.values())
        return self._layers.total_stored_size + manifests

    # -- RPC surface -----------------------------------------------------------

    def endpoint(self) -> RpcEndpoint:
        """Bind the registry's remote interface.

        Response sizes: manifests cost their JSON size; layer downloads
        cost the *compressed* tarball size (layers travel compressed,
        §II-B); queries and uploads cost framing only (upload payload
        bytes are charged by the transport on the request side).
        """
        endpoint = RpcEndpoint(self.ENDPOINT_NAME)
        endpoint.register(
            "get_manifest",
            lambda reference: (
                (manifest := self.get_manifest(reference)),
                manifest.size_bytes,
            ),
        )
        endpoint.register(
            "has_layer", lambda digest: (self.has_layer(digest), 16)
        )
        endpoint.register(
            "get_layer",
            lambda digest: (
                (layer := self.get_layer(digest)),
                layer.compressed_size,
            ),
        )
        endpoint.register(
            "push_layer", lambda layer: (self.push_layer(layer), 16)
        )
        endpoint.register(
            "push_manifest",
            lambda manifest: (self.push_manifest(manifest), 16),
        )
        return endpoint

    def __repr__(self) -> str:
        return (
            f"DockerRegistry(images={len(self._manifests)}, "
            f"layers={self.layer_count}, bytes={self.stored_bytes})"
        )
