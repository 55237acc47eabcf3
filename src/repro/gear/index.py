"""The Gear index.

"The Gear index is made up of metadata that contains the structure of the
entire directory tree and metadata of regular files which replace the
actual files in directories" (§III-B).  Concretely, the index is a
filesystem tree in which every regular file is replaced by a tiny *stub
file* whose content encodes the original file's fingerprint and size —
"In place of the index where an entry for a regular file should be
stored, we record the file's MD5 hash value."

Because the stub encoding lives in ordinary file content, the index
round-trips losslessly through the stock Docker machinery as a
single-layer image (§III-C), which is the compatibility claim of the
paper.

The stub tree is an immutable artifact: a node reads it and never
rewrites it, so every node that pulls one index shares one frozen tree.
What a node does write — the fetched files "hard-linked into the index"
(§III-D2) — goes into the index's link table (:attr:`GearIndex.links`),
which the Gear File Viewer consults wherever a stub becomes visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.blob import Blob
from repro.common.errors import GearError
from repro.common.hashing import Digest, sha256_tokens
from repro.docker.image import Image, ImageConfig
from repro.vfs.inode import Inode
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree

#: Stub files start with this magic so a viewer (and the parser) can tell
#: fingerprint entries from genuine small files.
STUB_MAGIC = "gearfp:"

#: Extended attribute marking a stub inode in a live index tree.
STUB_XATTR = "gear.stub"

#: One-time parse templates for :meth:`GearIndex.from_image` (a frozen
#: stub tree and its read-only entry table), keyed by the (immutable,
#: digest-hashed) index layer archive.  Weak keys: the template dies
#: with the last registry/daemon reference to the archive.
_INDEX_TEMPLATES: "WeakKeyDictionary[LayerArchive, Tuple[FileSystemTree, Mapping[str, GearFileEntry]]]" = (
    WeakKeyDictionary()
)


@dataclass(frozen=True)
class GearFileEntry:
    """Metadata the index keeps for one regular file."""

    path: str
    identity: str
    size: int
    mode: int

    def stub_content(self) -> str:
        return f"{STUB_MAGIC}{self.identity}:{self.size}\n"

    @classmethod
    def parse_stub(cls, path: str, content: str, mode: int) -> "GearFileEntry":
        if not content.startswith(STUB_MAGIC):
            raise GearError(f"not a Gear stub at {path!r}")
        body = content[len(STUB_MAGIC) :].strip()
        identity, _, size_text = body.rpartition(":")
        if not identity or not size_text.isdigit():
            raise GearError(f"malformed Gear stub at {path!r}: {content!r}")
        return cls(path=path, identity=identity, size=int(size_text), mode=mode)


class GearIndex:
    """A Gear image's index component."""

    def __init__(
        self,
        name: str,
        tag: str,
        tree: FileSystemTree,
        entries: Mapping[str, GearFileEntry],
        config: Optional[ImageConfig] = None,
    ) -> None:
        self.name = name
        self.tag = tag
        #: ``name:tag``, formatted once: every link record a deployment
        #: journals carries this very object.
        self.reference = f"{name}:{tag}"
        #: The stub tree: directories and symlinks verbatim, regular files
        #: replaced by stub files.  Frozen: indexes parsed from one
        #: archive share it, and a deployment links into :attr:`links`.
        self.tree = tree.freeze()
        #: path → entry.  No reader writes it, and indexes parsed from
        #: one archive share one read-only table.
        self.entries = entries
        self.config = config if config is not None else ImageConfig.make()
        #: entry path → the pool inode hard-linked over that stub: what
        #: this node's containers read at the path instead of the stub.
        self.links: Dict[str, Inode] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_tree(
        cls,
        name: str,
        tag: str,
        root: FileSystemTree,
        *,
        config: Optional[ImageConfig] = None,
        identity_for: Optional[Dict[int, str]] = None,
    ) -> "GearIndex":
        """Build an index from a flattened image root filesystem.

        ``identity_for`` optionally maps inode number → identity for files
        whose fingerprints were replaced by unique IDs (collision
        handling); everything else uses the blob fingerprint.
        """
        tree = FileSystemTree()
        entries: Dict[str, GearFileEntry] = {}
        identity_for = identity_for or {}
        for parent, leaf, path, node in tree.mirror(root.walk("/")):
            if node.is_dir:
                assert parent.children is not None
                parent.children[leaf].opaque = node.opaque
            elif node.is_symlink:
                assert node.symlink_target is not None
                tree.symlink_at(parent, leaf, node.symlink_target, meta=node.meta)
            elif node.is_file:
                assert node.blob is not None
                entry = entries[path] = GearFileEntry(
                    path=path,
                    identity=identity_for.get(node.ino, node.blob.fingerprint),
                    size=node.blob.size,
                    mode=node.meta.mode,
                )
                tree.write_at(
                    parent, leaf, Blob.from_text(entry.stub_content()),
                    meta=node.meta.with_xattr(STUB_XATTR, "1"),
                )
        return cls(name, tag, tree, entries, config)

    @classmethod
    def from_image(cls, image: Image) -> "GearIndex":
        """Parse an index back out of its single-layer Docker image.

        The parse is pure in the layer archive's content, so the stub
        tree and entry table are built once per archive digest and every
        subsequent call (every other node in a fleet pulling the same
        index) receives that frozen tree and the one read-only entry
        table themselves, with a link table of its own — the same result
        a re-parse would produce, minus the re-parse and minus a copy of
        every stub, entry and directory.
        """
        if not image.gear_index:
            raise GearError(f"{image.reference!r} is not a Gear index image")
        if len(image.layers) != 1:
            raise GearError(
                f"Gear index image {image.reference!r} must have exactly one "
                f"layer, found {len(image.layers)}"
            )
        archive = image.layers[0].archive
        template = _INDEX_TEMPLATES.get(archive)
        if template is None:
            template = cls._parse_archive(archive)
            _INDEX_TEMPLATES[archive] = template
        tree, entries = template
        return cls(image.name, image.tag, tree, entries, image.config)

    @staticmethod
    def _parse_archive(
        archive: "LayerArchive",
    ) -> Tuple[FileSystemTree, Mapping[str, GearFileEntry]]:
        """One-time stub-tree parse of an index layer archive: unpack it
        once and mark the files of that very tree as stubs."""
        tree = archive.apply_to(FileSystemTree())
        entries: Dict[str, GearFileEntry] = {}
        for path, node in tree.walk("/"):
            if node.is_file:
                assert node.blob is not None
                text = node.blob.materialize().decode("utf-8", errors="replace")
                entries[path] = GearFileEntry.parse_stub(path, text, node.meta.mode)
                node.meta = node.meta.with_xattr(STUB_XATTR, "1")
        return tree.freeze(), MappingProxyType(entries)

    # -- hard links over stubs -----------------------------------------------

    def link(self, path: str, inode: Inode) -> None:
        """Hard-link the pool ``inode`` over the stub at ``path``.

        The inode's ``nlink`` counts the link (and a link it replaces
        lets go of its own), so the pool never evicts a file an index
        still serves.
        """
        replaced = self.links.get(path)
        if replaced is not None:
            replaced.nlink -= 1
        inode.nlink += 1
        self.links[path] = inode

    def unlink(self, path: str) -> None:
        """Drop the link at ``path``: the pristine stub shows again."""
        self.links.pop(path).nlink -= 1

    # -- packaging ------------------------------------------------------------

    def to_image(self) -> Image:
        """Package as a single-layer Docker image (§III-C).

        Links live beside the tree, never in it, so the tree is already
        the stubs-only index a registry must carry.
        """
        from repro.docker.builder import image_from_tree

        return image_from_tree(
            self.name, self.tag, self.tree, config=self.config,
            gear_index=True,
        )

    def stub_tree(self) -> FileSystemTree:
        """A writable copy of the index tree, every entry a pristine stub."""
        return self.tree.clone()

    # -- queries ----------------------------------------------------------------

    @property
    def file_count(self) -> int:
        return len(self.entries)

    @property
    def represented_bytes(self) -> int:
        """Total size of the regular files the index points to."""
        return sum(entry.size for entry in self.entries.values())

    @property
    def index_bytes(self) -> int:
        """Serialized size of the index itself (it should be tiny —
        "usually less than 1 MB", §I)."""
        return self.to_image().layers[0].uncompressed_size

    def identities(self) -> Iterator[str]:
        """Distinct Gear file identities this index references."""
        seen = set()
        for entry in self.entries.values():
            if entry.identity not in seen:
                seen.add(entry.identity)
                yield entry.identity

    def digest(self) -> Digest:
        """Identity of the index content (used in tests for round-trips)."""
        tokens: List[str] = []
        for path in sorted(self.entries):
            entry = self.entries[path]
            tokens.append(f"{path}|{entry.identity}|{entry.size}|{entry.mode:o}")
        return sha256_tokens(tokens)

    def __repr__(self) -> str:
        return (
            f"GearIndex({self.reference!r}, files={self.file_count}, "
            f"bytes={self.represented_bytes})"
        )
