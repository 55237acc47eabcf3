"""The Overlay2-style graph driver.

"The graph driver is responsible for saving the image in the local storage
and making image layers locally available for reuse … and for providing a
complete and correct root file system for the container" (§II-C).  This
driver keeps each layer keyed by digest and unpacks its ``diff/`` tree at
first mount — shared across every image and container on the node, which
is the layer-level local sharing Docker provides (and the level Gear
improves on with file-level sharing).
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import NotFoundError
from repro.common.hashing import Digest
from repro.docker.image import Image, Layer
from repro.vfs.overlay import OverlayMount
from repro.vfs.tree import FileSystemTree


class Overlay2Driver:
    """Local layer storage plus union-mount construction."""

    def __init__(self) -> None:
        #: digest → layer object
        self._layers: Dict[Digest, Layer] = {}
        #: digest → read-only diff tree, unpacked at the layer's first mount
        self._diffs: Dict[Digest, FileSystemTree] = {}
        self.mounts_created = 0

    # -- layer store -------------------------------------------------------

    def has_layer(self, digest: Digest) -> bool:
        return digest in self._layers

    def register_layer(self, layer: Layer) -> bool:
        """Keep a layer in local storage; False when already present."""
        if layer.digest in self._layers:
            return False
        self._layers[layer.digest] = layer
        return True

    def get_layer(self, digest: Digest) -> Layer:
        try:
            return self._layers[digest]
        except KeyError:
            raise NotFoundError(f"layer not in local storage: {digest.short()}") from None

    def diff_tree(self, digest: Digest) -> FileSystemTree:
        """The layer's diff tree, shared by every mount on this node."""
        diff = self._diffs.get(digest)
        if diff is None:
            diff = self._diffs[digest] = self.get_layer(digest).diff_tree().freeze()
        return diff

    # -- mounts --------------------------------------------------------------

    def mount(self, image: Image) -> OverlayMount:
        """Union-mount an image's layers under a fresh writable layer.

        Lowers are ordered top-most layer first, matching overlayfs's
        ``lowerdir`` ordering (§II-C, Fig. 1b).
        """
        for layer in image.layers:
            if not self.has_layer(layer.digest):
                raise NotFoundError(
                    f"cannot mount {image.reference!r}: layer "
                    f"{layer.digest.short()} not local"
                )
        lowers = [self.diff_tree(layer.digest) for layer in reversed(image.layers)]
        self.mounts_created += 1
        return OverlayMount(lowers)

    def __repr__(self) -> str:
        return f"Overlay2Driver(layers={len(self._layers)})"
