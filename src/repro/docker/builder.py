"""Building layered images.

:class:`ImageBuilder` plays the role of ``docker build``: it starts from
scratch or from a base image, records filesystem mutations into a pending
diff, and commits each diff as a new read-only layer.  The synthetic
corpus generator uses it to produce realistic version chains (shared base
layers, small top layers), and the Gear storage path uses it to package a
Gear index as a single-layer image (§III-C).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.blob import Blob
from repro.common.errors import ReproError
from repro.docker.image import Image, ImageConfig, Layer
from repro.vfs.inode import Metadata
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree


class ImageBuilder:
    """Accumulates layers, exposing Dockerfile-like mutation steps."""

    def __init__(
        self,
        name: str,
        tag: str,
        *,
        base: Optional[Image] = None,
        config: Optional[ImageConfig] = None,
    ) -> None:
        self.name = name
        self.tag = tag
        self._layers: List[Layer] = list(base.layers) if base is not None else []
        self._config = config or (base.config if base is not None else ImageConfig.make())
        self._mount: Optional[OverlayMount] = None

    # -- the working diff --------------------------------------------------

    @property
    def mount(self) -> OverlayMount:
        """The writable build filesystem (lazy so FROM-only builds are free)."""
        if self._mount is None:
            lowers = [layer.diff_tree().freeze() for layer in reversed(self._layers)]
            self._mount = OverlayMount(lowers)
        return self._mount

    def add_file(
        self,
        path: str,
        content: "Blob | bytes | str",
        *,
        mode: int = 0o644,
        parents: bool = True,
    ) -> "ImageBuilder":
        """COPY-like step: place a file into the working diff."""
        self.mount.write_file(
            path, content, meta=Metadata(mode=mode), parents=parents
        )
        return self

    def add_symlink(self, path: str, target: str) -> "ImageBuilder":
        from repro.vfs import paths

        parent, _ = paths.parent_and_name(path)
        self.mount.mkdir(parent, parents=True, exist_ok=True)
        self.mount.symlink(path, target)
        return self

    def mkdir(self, path: str) -> "ImageBuilder":
        self.mount.mkdir(path, parents=True, exist_ok=True)
        return self

    def remove(self, path: str) -> "ImageBuilder":
        """RUN rm -rf — records whiteouts against lower layers."""
        self.mount.remove(path, recursive=True)
        return self

    def set_config(self, config: ImageConfig) -> "ImageBuilder":
        self._config = config
        return self

    def with_env(self, **env: str) -> "ImageBuilder":
        merged = self._config.env_dict()
        merged.update(env)
        self._config = ImageConfig.make(
            env=merged,
            entrypoint=self._config.entrypoint,
            cmd=self._config.cmd,
            workdir=self._config.workdir,
            labels=dict(self._config.labels),
        )
        return self

    # -- layer / image production -----------------------------------------

    def commit_layer(self) -> Layer:
        """Seal the working diff into a read-only layer."""
        if self._mount is None:
            raise ReproError("no pending changes to commit")
        archive = LayerArchive.from_tree(self._mount.upper)
        layer = Layer(archive)
        self._layers.append(layer)
        self._mount = None
        return layer

    def has_pending_changes(self) -> bool:
        if self._mount is None:
            return False
        # Whiteouts count as changes: a diff that only deletes files still
        # produces a layer.
        return any(True for _ in self._mount.upper.walk("/", include_whiteouts=True))

    def build(self) -> Image:
        """Finish: commit any pending diff and return the image."""
        if self._mount is not None and self.has_pending_changes():
            self.commit_layer()
        if not self._layers:
            raise ReproError(f"image {self.name}:{self.tag} has no layers")
        return Image(self.name, self.tag, self._layers, self._config)


def image_from_tree(
    name: str,
    tag: str,
    tree: FileSystemTree,
    *,
    config: Optional[ImageConfig] = None,
    gear_index: bool = False,
) -> Image:
    """Package a whole tree as a single-layer image.

    This is exactly how Gear indexes are made distributable: "Gear index
    is organized as a single-layer Docker image so that it is accessible
    by Docker commands" (§III-C).
    """
    archive = LayerArchive.from_tree(tree)
    return Image(name, tag, [Layer(archive)], config, gear_index=gear_index)


def layer_from_files(
    files: Sequence[tuple],
) -> Layer:
    """Build a standalone layer from ``(path, content)`` pairs (tests)."""
    tree = FileSystemTree()
    for path, content in files:
        tree.write_file(path, content, parents=True)
    return Layer(LayerArchive.from_tree(tree))
