"""Deterministic tar-like layer archives.

Docker stores each image layer as a tarball (compressed in the registry,
§II-B).  :class:`LayerArchive` is the reproduction's tarball: a canonical,
path-sorted member table kept as columns and read as :class:`TarEntry`
records, that

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

from array import array
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.blob import Blob
from repro.blob.compressibility import blob_compressed_size
from repro.common.columns import RecordView
from repro.common.errors import (
    NotADirectoryVfsError,
    NotFoundError,
    SymlinkLoopError,
    VfsError,
)
from repro.common.hashing import Digest, sha256_tokens
from repro.vfs import paths
from repro.vfs.inode import DIRECTORY, FILE, SYMLINK, WHITEOUT, FileKind, Inode, Metadata
from repro.vfs.tree import FileSystemTree

#: tar writes a 512-byte header block per entry and pads content to 512.
_TAR_BLOCK = 512

#: AUFS-style whiteout prefix Docker uses inside layer tarballs.
WHITEOUT_PREFIX = ".wh."

#: Marker file making a directory opaque.
OPAQUE_MARKER = ".wh..wh..opq"

#: One member as a row: the fields of :class:`TarEntry`, in order.
Row = Tuple[str, FileKind, int, int, int, Optional[Blob], Optional[str]]

#: A whiteout's or an opaque marker's row after its path: an empty file.
_MARKER = (FILE, 0, 0, 0, Blob.from_bytes(b""), None)


def _check_member(path: str, kind: FileKind, blob: Optional[Blob],
                  target: Optional[str]) -> None:
    """The rules every member obeys, built as a record or as a row."""
    if kind is FILE and blob is None:
        raise VfsError(f"file entry {path!r} requires a blob")
    if kind is SYMLINK and not target:
        raise VfsError(f"symlink entry {path!r} requires a target")
    if kind is WHITEOUT:
        raise VfsError("whiteouts are encoded via the .wh. prefix")


#: Each kind's digest token, looked up without the enum's property.
_KIND_TOKENS = {kind: kind.value for kind in FileKind}


def _digest_tokens(paths: List[str], kinds: List[FileKind], modes: Iterable[int],
                   uids: Iterable[int], gids: Iterable[int], blobs: List[Optional[Blob]],
                   targets: List[Optional[str]]) -> List[str]:
    """Canonical tokens of every member, in row order, feeding the
    archive digest: path, kind, ``mode:uid:gid`` in octal and decimal,
    then the blob's fingerprint and the symlink target where present."""
    members = zip(
        paths,
        map(_KIND_TOKENS.__getitem__, kinds),
        map("{:o}:{}:{}".format, modes, uids, gids),
        [None if blob is None else blob.fingerprint for blob in blobs],
        targets,
    )
    return [token for member in members for token in member if token is not None]


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
        _check_member(self.path, self.kind, self.blob, self.symlink_target)

    def identity_tokens(self) -> List[str]:
        """Canonical tokens feeding the archive digest."""
        return _digest_tokens(*([field] for field in _row_of(self)))

    @property
    def is_whiteout(self) -> bool:
        name = self.path.rpartition("/")[2]
        return name.startswith(WHITEOUT_PREFIX) and name != OPAQUE_MARKER


#: A record's fields, and an archive's columns, in row order.
_row_of = attrgetter("path", "kind", "mode", "uid", "gid", "blob", "symlink_target")
_columns = attrgetter(
    "_paths", "_kinds", "_modes", "_uids", "_gids", "_blobs", "_targets"
)


class LayerArchive:
    """An immutable, canonical archive of one layer's contents.

    Members are sorted by path once and kept as a column per
    :class:`TarEntry` field (``array('q')`` modes, uids and gids, lists
    of the rest), so an archive is a few collector-tracked objects however
    many members it has (DESIGN.md §17); :attr:`entries` mints records.
    """

    def __init__(self, entries: Iterable[TarEntry]) -> None:
        self._load(map(_row_of, entries))

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "LayerArchive":
        """An archive of rows: a member's fields in :class:`TarEntry` order.
        A row may carry fields after those seven (a reader's own columns,
        which it takes from the rows it sorted): the archive ignores them."""
        archive = cls.__new__(cls)
        archive._load(rows)
        return archive

    def _load(self, rows: Iterable[Row]) -> None:
        ordered = sorted(rows, key=itemgetter(0))
        # One pass per column: a transposing ``zip(*ordered)`` would hold
        # an iterator per member, and every one is a collector allocation.
        self._paths, self._kinds, modes, uids, gids, self._blobs, self._targets = (
            list(map(itemgetter(field), ordered)) for field in range(7)
        )
        for member in zip(self._paths, self._kinds, self._blobs, self._targets):
            _check_member(*member)
        self._modes, self._uids, self._gids = (
            array("q", column) for column in (modes, uids, gids)
        )
        self._digest: Optional[Digest] = None
        # Extraction templates: the archive is immutable, so the trees
        # its entries unpack to are fixed — build and freeze each once,
        # then hand every caller a copy-on-write clone of it.  A fleet
        # of nodes pulling the same layer pays the entry-by-entry unpack
        # once, and each node pays only for the directories it writes.
        self._extract_template: Optional[FileSystemTree] = None
        self._diff_template: Optional[FileSystemTree] = None
        #: What :mod:`repro.gear.index` reads this archive as when it is a
        #: Gear index (its lower tree and entry view over these columns
        #: and an identity/size column): set once, by the index that
        #: wrote the rows or by the one parse of an archive built
        #: elsewhere, and dropped with the archive.
        self.index_template: Optional[object] = None
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
        rows: List[Row] = []
        base = paths.normalize(top)
        skip = len(base) if base != "/" else 0
        for path, node in tree.walk(top, include_whiteouts=True):
            rel = path[skip:]
            if node.is_whiteout:
                head, _, name = rel.rpartition("/")
                rows.append((f"{head}/{WHITEOUT_PREFIX}{name}", *_MARKER))
                continue
            meta = node.meta
            rows.append((rel, node.kind, meta.mode, meta.uid, meta.gid,
                         node.blob, node.symlink_target))
            if node.is_dir and node.opaque:
                rows.append((f"{rel}/{OPAQUE_MARKER}", *_MARKER))
        return cls.from_rows(rows)

    # -- identity & sizes --------------------------------------------------

    @property
    def columns(self) -> Tuple[List[str], List[FileKind], "array[int]", "array[int]",
                               "array[int]", List[Optional[Blob]], List[Optional[str]]]:
        """The member columns in row order, one per :class:`TarEntry`
        field: read them, never write them."""
        return _columns(self)

    @property
    def entries(self) -> "TarEntries":
        """The members in path order, as a read-only view of records."""
        return TarEntries(self)

    @property
    def digest(self) -> Digest:
        """SHA-256 digest identifying this layer (Docker's layer digest)."""
        if self._digest is None:
            self._digest = sha256_tokens(_digest_tokens(*_columns(self)))
        return self._digest

    @property
    def uncompressed_size(self) -> int:
        """Total archive bytes before compression."""
        if self._uncompressed_size is None:
            # Two zero blocks end an archive.
            blocks = sum(-(-blob.size // _TAR_BLOCK)
                         for blob in self._blobs if blob is not None)
            self._uncompressed_size = (len(self._paths) + blocks + 2) * _TAR_BLOCK
        return self._uncompressed_size

    @property
    def compressed_size(self) -> int:
        """Archive bytes after (modelled) gzip compression.

        Headers compress extremely well (~95%); content compresses per
        the blob compressibility model.
        """
        if self._compressed_size is None:
            blobs = [blob for blob in self._blobs if blob is not None]
            header = self.uncompressed_size - sum(blob.size for blob in blobs)
            compressed = round(header * 0.05) + sum(map(blob_compressed_size, blobs))
            self._compressed_size = max(_TAR_BLOCK // 8, compressed)
        return self._compressed_size

    @property
    def file_count(self) -> int:
        return self._kinds.count(FILE)

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[TarEntry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerArchive):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return f"LayerArchive(entries={len(self)}, digest={self.digest.short()})"

    # -- application -------------------------------------------------------

    def _placed(
        self, tree: FileSystemTree, create_for_markers: bool
    ) -> Iterator[Tuple[int, Inode, str]]:
        """Yield each member's row with the directory of ``tree`` it lands
        in and its name there; the caller edits ``tree`` there and nowhere else.

        Members are path-sorted, so the directory is looked up (missing
        ancestors created) only when it differs from the last member's,
        or when that member removed or replaced a directory.  A ``.wh.``
        member for an absent directory is skipped unless
        ``create_for_markers``.
        """
        last_head: Optional[str] = None
        for row, path in enumerate(self._paths):
            head, _, name = path.rpartition("/")
            if name in ("", ".", "..") or not path.startswith("/"):
                head, name = paths.parent_and_name(path)
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
            yield row, parent, name
            if marker or (
                held is not None and held.is_dir
                and self._kinds[row] is not DIRECTORY
            ):
                last_head = None

    def apply_to(self, tree: FileSystemTree) -> FileSystemTree:
        """Apply this layer onto ``tree`` (Docker layer extraction rules).

        Whiteout entries delete the named path; opaque markers clear the
        directory's prior contents; other entries overwrite.  Returns the
        same tree for chaining.
        """
        for row, parent, name in self._placed(tree, False):
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
            kind = self._kinds[row]
            is_dir = kind is DIRECTORY
            if held is not None and not held.is_whiteout:
                # A directory stays as it is and a file is overwritten in
                # place; a node of another kind goes first.
                if held.is_dir != is_dir or kind is SYMLINK:
                    tree.remove_at(parent, name, recursive=True)
                elif is_dir:
                    continue
            self._unpack(tree, parent, name, row)
        return tree

    def _unpack(self, tree: FileSystemTree, parent: Inode, name: str, row: int) -> None:
        """Create the directory, symlink or file of ``row`` in ``parent``."""
        kind = self._kinds[row]
        meta = Metadata(mode=self._modes[row], uid=self._uids[row], gid=self._gids[row])
        if kind is DIRECTORY:
            tree.mkdir_at(parent, name, exist_ok=True).meta = meta
        elif kind is SYMLINK:
            tree.symlink_at(parent, name, self._targets[row], meta=meta)
        else:
            tree.write_at(parent, name, self._blobs[row], meta=meta)

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
        for row, parent, name in self._placed(tree, True):
            if name == OPAQUE_MARKER:
                parent.opaque = True
            elif name.startswith(WHITEOUT_PREFIX):
                tree.whiteout_at(parent, name[len(WHITEOUT_PREFIX) :])
            else:
                self._unpack(tree, parent, name, row)
        return tree


class TarEntries(RecordView):
    """:attr:`LayerArchive.entries`: a :class:`TarEntry` per member."""

    __slots__ = ("_archive",)

    def __init__(self, archive: LayerArchive) -> None:
        self._archive = archive

    def __len__(self) -> int:
        return len(self._archive)

    def _rows(self, rows: slice) -> Iterator[TarEntry]:
        columns = (column[rows] for column in _columns(self._archive))
        return (TarEntry(*row) for row in zip(*columns))
