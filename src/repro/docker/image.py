"""Images, layers, and manifests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.common.hashing import Digest, sha256_tokens
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree


class Layer:
    """One read-only image layer: a tar archive plus its identity.

    Matches §II-A: "Each layer is identified by its digest, the SHA256
    hash value of the layer's content."
    """

    __slots__ = ("archive",)

    def __init__(self, archive: LayerArchive) -> None:
        self.archive = archive

    @property
    def digest(self) -> Digest:
        return self.archive.digest

    @property
    def uncompressed_size(self) -> int:
        return self.archive.uncompressed_size

    @property
    def compressed_size(self) -> int:
        return self.archive.compressed_size

    @property
    def file_count(self) -> int:
        return self.archive.file_count

    def diff_tree(self) -> FileSystemTree:
        """The layer's content as an overlay lower (whiteouts preserved)."""
        return self.archive.extract_diff()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layer):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return f"Layer({self.digest.short()}, {self.uncompressed_size}B)"


@dataclass(frozen=True)
class ImageConfig:
    """Runtime configuration carried by an image.

    The Gear Converter must copy "the environmental variables and the
    configuration from the original Docker image to the new image"
    (§III-C); keeping config first-class lets tests verify that.
    """

    env: Tuple[Tuple[str, str], ...] = ()
    entrypoint: Tuple[str, ...] = ()
    cmd: Tuple[str, ...] = ()
    workdir: str = "/"
    labels: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def make(
        cls,
        *,
        env: Optional[Dict[str, str]] = None,
        entrypoint: Optional[Sequence[str]] = None,
        cmd: Optional[Sequence[str]] = None,
        workdir: str = "/",
        labels: Optional[Dict[str, str]] = None,
    ) -> "ImageConfig":
        return cls(
            env=tuple(sorted((env or {}).items())),
            entrypoint=tuple(entrypoint or ()),
            cmd=tuple(cmd or ()),
            workdir=workdir,
            labels=tuple(sorted((labels or {}).items())),
        )

    def env_dict(self) -> Dict[str, str]:
        return dict(self.env)

    def identity_tokens(self) -> List[str]:
        tokens = [f"env:{k}={v}" for k, v in self.env]
        tokens.extend(f"entrypoint:{part}" for part in self.entrypoint)
        tokens.extend(f"cmd:{part}" for part in self.cmd)
        tokens.append(f"workdir:{self.workdir}")
        tokens.extend(f"label:{k}={v}" for k, v in self.labels)
        return tokens


@dataclass(frozen=True)
class Manifest:
    """The JSON document the registry serves for an image reference.

    "the most important [configuration] is the digests of the image's
    layers" (§II-B).  ``layer_sizes`` carries compressed sizes so the
    client can account download volume, as real manifests do.
    """

    name: str
    tag: str
    layer_digests: Tuple[Digest, ...]
    layer_sizes: Tuple[int, ...]
    config: ImageConfig
    #: Marks manifests whose single layer is a Gear index (§III-C stores
    #: Gear indexes "as a single-layer Docker image").  An unmodified
    #: client ignores it; the Gear driver dispatches on it.
    gear_index: bool = False

    def __post_init__(self) -> None:
        if len(self.layer_digests) != len(self.layer_sizes):
            raise ReproError("layer digest/size lists must align")

    @property
    def reference(self) -> str:
        return f"{self.name}:{self.tag}"

    @property
    def digest(self) -> Digest:
        tokens = [self.name, self.tag, *self.layer_digests]
        tokens.extend(str(size) for size in self.layer_sizes)
        tokens.extend(self.config.identity_tokens())
        tokens.append(f"gear_index:{self.gear_index}")
        return sha256_tokens(tokens)

    @property
    def size_bytes(self) -> int:
        """Approximate serialized manifest size (it is a small JSON doc)."""
        return 512 + 128 * len(self.layer_digests)


class Image:
    """A complete local image: manifest-level info plus layer objects."""

    def __init__(
        self,
        name: str,
        tag: str,
        layers: Sequence[Layer],
        config: Optional[ImageConfig] = None,
        *,
        gear_index: bool = False,
    ) -> None:
        if not layers:
            raise ReproError("an image needs at least one layer")
        self.name = name
        self.tag = tag
        self.layers: Tuple[Layer, ...] = tuple(layers)
        self.config = config if config is not None else ImageConfig.make()
        self.gear_index = gear_index

    @property
    def reference(self) -> str:
        return f"{self.name}:{self.tag}"

    def manifest(self) -> Manifest:
        return Manifest(
            name=self.name,
            tag=self.tag,
            layer_digests=tuple(layer.digest for layer in self.layers),
            layer_sizes=tuple(layer.compressed_size for layer in self.layers),
            config=self.config,
            gear_index=self.gear_index,
        )

    @property
    def uncompressed_size(self) -> int:
        return sum(layer.uncompressed_size for layer in self.layers)

    @property
    def compressed_size(self) -> int:
        return sum(layer.compressed_size for layer in self.layers)

    @property
    def file_count(self) -> int:
        return sum(layer.file_count for layer in self.layers)

    def flatten(self) -> FileSystemTree:
        """Apply all layers bottom-up into one root filesystem tree.

        This is what the Gear Converter does before walking the result
        ("the converter decompresses and then saves the layers starting
        from the bottom layer to the top layer", §III-B).  The bottom
        layer is the archive's extraction template (a distro base is
        unpacked once however many images stand on it), cloned; only the
        layers above it are applied, each writing into its own copies.
        """
        bottom, *above = self.layers
        tree = bottom.archive.extract()
        for layer in above:
            layer.archive.apply_to(tree)
        return tree

    def __repr__(self) -> str:
        return (
            f"Image({self.reference!r}, layers={len(self.layers)}, "
            f"size={self.uncompressed_size})"
        )
