"""Deterministic tar-like layer archives.

Docker stores each image layer as a tarball (compressed in the registry,
§II-B).  :class:`LayerArchive` is the reproduction's tarball: an ordered,
canonical sequence of :class:`TarEntry` records that

* serializes any :class:`~repro.vfs.tree.FileSystemTree` (including diff
  trees containing whiteouts, encoded with the overlayfs/AUFS ``.wh.``
  naming convention Docker actually uses on the wire);
* has a deterministic SHA-256 digest, so identical layers produced on
  different "machines" deduplicate at the registry exactly as real layer
  digests do;
* knows its uncompressed and compressed sizes (per-entry 512-byte header
  blocks plus content, mirroring the tar format's accounting);
* can be applied onto a tree to reconstruct a root filesystem bottom-up,
  the way the Gear Converter unpacks layers (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.blob import Blob
from repro.blob.compressibility import blob_compressed_size
from repro.common.errors import (
    NotADirectoryVfsError,
    NotFoundError,
    SymlinkLoopError,
    VfsError,
)
from repro.common.hashing import Digest, sha256_tokens
from repro.vfs import paths
from repro.vfs.inode import FileKind, Inode, Metadata
from repro.vfs.tree import FileSystemTree

#: tar writes a 512-byte header block per entry and pads content to 512.
_TAR_BLOCK = 512

#: AUFS-style whiteout prefix Docker uses inside layer tarballs.
WHITEOUT_PREFIX = ".wh."

#: Marker file making a directory opaque.
OPAQUE_MARKER = ".wh..wh..opq"


@dataclass(frozen=True)
class TarEntry:
    """One archive member.

    ``kind`` is the node kind; whiteouts are represented as FILE entries
    whose basename carries the ``.wh.`` prefix, as in real Docker layers,
    so ``kind`` here is never ``WHITEOUT``.
    """

    path: str
    kind: FileKind
    mode: int
    uid: int
    gid: int
    blob: Optional[Blob] = None
    symlink_target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is FileKind.FILE and self.blob is None:
            raise VfsError(f"file entry {self.path!r} requires a blob")
        if self.kind is FileKind.SYMLINK and not self.symlink_target:
            raise VfsError(f"symlink entry {self.path!r} requires a target")
        if self.kind is FileKind.WHITEOUT:
            raise VfsError("whiteouts are encoded via the .wh. prefix")

    @property
    def content_size(self) -> int:
        return self.blob.size if self.blob is not None else 0

    @property
    def archived_size(self) -> int:
        """Bytes this entry occupies in the archive (header + padded data)."""
        data = self.content_size
        padded = (data + _TAR_BLOCK - 1) // _TAR_BLOCK * _TAR_BLOCK
        return _TAR_BLOCK + padded

    def identity_tokens(self) -> Iterable[str]:
        """Canonical tokens feeding the archive digest."""
        yield self.path
        yield self.kind.value
        yield f"{self.mode:o}:{self.uid}:{self.gid}"
        if self.blob is not None:
            yield self.blob.fingerprint
        if self.symlink_target is not None:
            yield self.symlink_target

    @property
    def is_whiteout(self) -> bool:
        name = self.path.rpartition("/")[2]
        return name.startswith(WHITEOUT_PREFIX) and name != OPAQUE_MARKER

    @property
    def is_opaque_marker(self) -> bool:
        return self.path.rpartition("/")[2] == OPAQUE_MARKER


class LayerArchive:
    """An immutable, canonical archive of one layer's contents."""

    def __init__(self, entries: Iterable[TarEntry]) -> None:
        self._entries: Tuple[TarEntry, ...] = tuple(
            sorted(entries, key=lambda e: e.path)
        )
        self._digest: Optional[Digest] = None
        # Extraction templates: the archive is immutable, so the trees
        # its entries unpack to are fixed — build and freeze each once,
        # then hand every caller a copy-on-write clone of it.  A fleet
        # of nodes pulling the same layer pays the entry-by-entry unpack
        # once, and each node pays only for the directories it writes.
        self._extract_template: Optional[FileSystemTree] = None
        self._diff_template: Optional[FileSystemTree] = None
        # Size model results are pure in the entry list; cache them.
        self._uncompressed_size: Optional[int] = None
        self._compressed_size: Optional[int] = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_tree(cls, tree: FileSystemTree, top: str = "/") -> "LayerArchive":
        """Archive every node under ``top``.

        Whiteout inodes become ``.wh.<name>`` file entries; opaque
        directories additionally emit an opaque marker inside themselves.
        Hard-linked files are archived as independent file entries sharing
        a blob (tar hardlink entries are an optimization we do not need
        for identity or sizing fidelity).
        """
        entries: List[TarEntry] = []
        base = paths.normalize(top)
        skip = len(base) if base != "/" else 0
        for path, node in tree.walk(top, include_whiteouts=True):
            rel = path[skip:]
            if node.is_whiteout:
                head, _, name = rel.rpartition("/")
                entries.append(_marker(f"{head}/{WHITEOUT_PREFIX}{name}"))
                continue
            meta = node.meta
            entries.append(
                TarEntry(
                    rel, node.kind, meta.mode, meta.uid, meta.gid,
                    blob=node.blob, symlink_target=node.symlink_target,
                )
            )
            if node.is_dir and node.opaque:
                entries.append(_marker(f"{rel}/{OPAQUE_MARKER}"))
        return cls(entries)

    # -- identity & sizes --------------------------------------------------

    @property
    def entries(self) -> Tuple[TarEntry, ...]:
        return self._entries

    @property
    def digest(self) -> Digest:
        """SHA-256 digest identifying this layer (Docker's layer digest)."""
        if self._digest is None:
            tokens: List[str] = []
            for entry in self._entries:
                tokens.extend(entry.identity_tokens())
            self._digest = sha256_tokens(tokens)
        return self._digest

    @property
    def uncompressed_size(self) -> int:
        """Total archive bytes before compression."""
        if self._uncompressed_size is None:
            self._uncompressed_size = (
                sum(entry.archived_size for entry in self._entries)
                + 2 * _TAR_BLOCK
            )
        return self._uncompressed_size

    @property
    def compressed_size(self) -> int:
        """Archive bytes after (modelled) gzip compression.

        Headers compress extremely well (~95%); content compresses per
        the blob compressibility model.
        """
        if self._compressed_size is None:
            header_bytes = (
                self.uncompressed_size
                - sum(entry.content_size for entry in self._entries)
            )
            compressed = round(header_bytes * 0.05)
            for entry in self._entries:
                if entry.blob is not None:
                    compressed += blob_compressed_size(entry.blob)
            self._compressed_size = max(_TAR_BLOCK // 8, compressed)
        return self._compressed_size

    @property
    def file_count(self) -> int:
        return sum(1 for e in self._entries if e.kind is FileKind.FILE)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerArchive):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return (
            f"LayerArchive(entries={len(self._entries)}, "
            f"digest={self.digest.short()})"
        )

    # -- application -------------------------------------------------------

    def _placed(
        self, tree: FileSystemTree, create_for_markers: bool
    ) -> Iterator[Tuple[TarEntry, Inode, str]]:
        """Yield each entry with the directory of ``tree`` it lands in
        and its name there; the caller edits ``tree`` there and nowhere else.

        Entries are path-sorted, so the directory is looked up (missing
        ancestors created) only when it differs from the last entry's,
        or when that entry removed or replaced a directory.  A ``.wh.``
        entry for an absent directory is skipped unless
        ``create_for_markers``.
        """
        last_head: Optional[str] = None
        for entry in self._entries:
            head, _, name = entry.path.rpartition("/")
            if name in ("", ".", "..") or not entry.path.startswith("/"):
                head, name = paths.parent_and_name(entry.path)
            marker = name.startswith(WHITEOUT_PREFIX)
            if head != last_head:
                try:
                    parent = tree._directory(
                        paths.split(head or "/"),
                        create=create_for_markers or not marker,
                    )
                except (NotFoundError, NotADirectoryVfsError, SymlinkLoopError):
                    if create_for_markers or not marker:
                        raise
                    continue
                last_head = head
            assert parent.children is not None
            held = parent.children.get(name)
            yield entry, parent, name
            if marker or (
                held is not None and held.is_dir
                and entry.kind is not FileKind.DIRECTORY
            ):
                last_head = None

    def apply_to(self, tree: FileSystemTree) -> FileSystemTree:
        """Apply this layer onto ``tree`` (Docker layer extraction rules).

        Whiteout entries delete the named path; opaque markers clear the
        directory's prior contents; other entries overwrite.  Returns the
        same tree for chaining.
        """
        for entry, parent, name in self._placed(tree, False):
            children = parent.children
            assert children is not None
            if name.startswith(WHITEOUT_PREFIX):
                if name == OPAQUE_MARKER:
                    doomed = list(children)
                else:
                    doomed = [name[len(WHITEOUT_PREFIX) :]]
                for victim in doomed:
                    held = children.get(victim)
                    if held is not None and not held.is_whiteout:
                        tree.remove_at(parent, victim, recursive=True)
                continue
            held = children.get(name)
            is_dir = entry.kind is FileKind.DIRECTORY
            if held is not None and not held.is_whiteout:
                # A directory stays as it is and a file is overwritten in
                # place; a node of another kind goes first.
                if held.is_dir != is_dir or entry.kind is FileKind.SYMLINK:
                    tree.remove_at(parent, name, recursive=True)
                elif is_dir:
                    continue
            meta = Metadata(mode=entry.mode, uid=entry.uid, gid=entry.gid)
            if is_dir:
                tree.mkdir_at(parent, name, meta=meta)
            elif entry.kind is FileKind.SYMLINK:
                assert entry.symlink_target is not None
                tree.symlink_at(parent, name, entry.symlink_target, meta=meta)
            else:
                assert entry.blob is not None
                tree.write_at(parent, name, entry.blob, meta=meta)
        return tree

    def extract(self) -> FileSystemTree:
        """Unpack this archive into a fresh tree.

        Each call returns an independent writable tree: a clone of a
        one-time frozen template, sharing its inodes until written to.
        """
        if self._extract_template is None:
            self._extract_template = self.apply_to(FileSystemTree()).freeze()
        return self._extract_template.clone()

    def extract_diff(self) -> FileSystemTree:
        """Unpack into a *diff tree*, preserving whiteouts as inodes.

        Layer application (:meth:`apply_to`) executes deletions; a graph
        driver instead needs the layer as an overlay *lower* directory in
        which whiteouts and opaque flags survive as filesystem objects.
        This is what Overlay2 keeps in each layer's ``diff/`` directory.

        Template-cached like :meth:`extract`: callers get independent
        clones of a one-time unpack.
        """
        if self._diff_template is None:
            self._diff_template = self._extract_diff_uncached().freeze()
        return self._diff_template.clone()

    def _extract_diff_uncached(self) -> FileSystemTree:
        tree = FileSystemTree()
        for entry, parent, name in self._placed(tree, True):
            if name == OPAQUE_MARKER:
                parent.opaque = True
            elif name.startswith(WHITEOUT_PREFIX):
                tree.whiteout_at(parent, name[len(WHITEOUT_PREFIX) :])
            elif entry.kind is FileKind.DIRECTORY:
                tree.mkdir_at(parent, name, exist_ok=True).meta = Metadata(
                    mode=entry.mode, uid=entry.uid, gid=entry.gid
                )
            else:
                meta = Metadata(mode=entry.mode, uid=entry.uid, gid=entry.gid)
                if entry.kind is FileKind.SYMLINK:
                    assert entry.symlink_target is not None
                    tree.symlink_at(parent, name, entry.symlink_target, meta=meta)
                else:
                    assert entry.blob is not None
                    tree.write_at(parent, name, entry.blob, meta=meta)
        return tree


def _marker(path: str) -> TarEntry:
    """The empty mode-0 file entry that encodes a whiteout or opaque marker."""
    return TarEntry(path, FileKind.FILE, 0o0, 0, 0, blob=Blob.from_bytes(b""))
