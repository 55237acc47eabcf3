"""Building layered images.

:class:`ImageBuilder` plays the role of ``docker build``: it starts from
scratch or from a base image, records filesystem mutations into a pending
diff, and commits each diff as a new read-only layer.  The synthetic
corpus generator uses it to produce realistic version chains (shared base
layers, small top layers).
"""

from __future__ import annotations

from typing import List, Optional

from repro.blob import Blob
from repro.common.errors import ReproError
from repro.docker.image import Image, ImageConfig, Layer
from repro.vfs.inode import Metadata
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import LayerArchive


class ImageBuilder:
    """Accumulates layers, exposing Dockerfile-like mutation steps."""

    def __init__(
        self,
        name: str,
        tag: str,
        *,
        base: Optional[Image] = None,
    ) -> None:
        self.name = name
        self.tag = tag
        self._layers: List[Layer] = list(base.layers) if base is not None else []
        self._config = base.config if base is not None else ImageConfig.make()
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
    ) -> "ImageBuilder":
        """COPY-like step: place a file into the working diff."""
        self.mount.write_file(path, content, meta=Metadata(mode=mode), parents=True)
        return self

    def add_symlink(self, path: str, target: str) -> "ImageBuilder":
        from repro.vfs import paths

        parent, _ = paths.parent_and_name(path)
        self.mount.mkdir(parent, parents=True, exist_ok=True)
        self.mount.symlink(path, target)
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
