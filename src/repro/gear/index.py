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

The index *is* that layer's archive: its path-sorted member columns plus
one identity/size column naming what each stub stands for, the way a
seekable image's table of contents is answered by lookup and never
unpacked.  A node reads it through a read-only lower tree
(:attr:`GearIndex.tree`) that bisects the path column and mints a stub
inode — and the entry behind it (:attr:`GearIndex.entries`) — only when
a name is first touched.  Minted nodes stay with the archive, so every
node and mount that pulls one index shares them.  What a node does
write — the fetched files "hard-linked into the index" (§III-D2) — goes
into the index's link table (:attr:`GearIndex.links`), which the Gear
File Viewer consults wherever a stub becomes visible.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.blob import Blob
from repro.common.errors import GearError
from repro.docker.image import Image, ImageConfig, Layer
from repro.vfs.inode import DIRECTORY, FILE, FileKind, Inode, Metadata
from repro.vfs.tar import WHITEOUT_PREFIX, LayerArchive
from repro.vfs.tree import FileSystemTree

#: Stub files start with this magic so a viewer (and the parser) can tell
#: fingerprint entries from genuine small files.
STUB_MAGIC = "gearfp:"

#: Extended attribute marking a stub inode in a live index tree.
STUB_XATTR = "gear.stub"

#: One index row: an archive member's seven fields (:data:`repro.vfs.tar.Row`),
#: then the identity and size its stub names (``None`` and 0 off a file).
IndexRow = Tuple[str, FileKind, int, int, int, Optional[Blob], Optional[str],
                 Optional[str], int]

#: The character after ``/``: every path below ``d/`` sorts before ``d0``.
_PAST_SLASH = chr(ord("/") + 1)

#: ``(mode, uid, gid)`` → the metadata of a lower node with them and of a
#: stub with them: a few dozen values however many nodes are minted.
_METAS: Dict[Tuple[int, int, int], Tuple[Metadata, Metadata]] = {}


class GearFileEntry(NamedTuple):
    """Metadata the index keeps for one regular file: an immutable row
    view, cheap enough to mint on the fault path."""

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


@lru_cache(maxsize=65536)
def _stub(identity: str, size: int) -> Blob:
    """Mint the stub blob of a content once: pure in its arguments, so
    memoized the way ``chunk_compressibility`` is, and one object shared
    by every index and commit that names that content."""
    return Blob.from_text(GearFileEntry("", identity, size, 0).stub_content())


def row_of(path: str, node: Inode, identity: Optional[str]) -> IndexRow:
    """The index row of ``node`` at ``path``: a directory or symlink as it
    is, a regular file as the stub naming ``identity``."""
    meta, blob = node.meta, node.blob
    if blob is None:
        return (path, node.kind, meta.mode, meta.uid, meta.gid, None,
                node.symlink_target, None, 0)
    return (path, FILE, meta.mode, meta.uid, meta.gid,
            _stub(identity, blob.size), None, identity, blob.size)


def _fingerprint_of(node: Inode) -> str:
    return node.blob.fingerprint


_dict_get = dict.get


class _Listing(dict):
    """A directory of the lower tree.  An entry is minted from its row
    the first time its name is looked up; a read of the whole directory
    (iterating, counting, listing) mints the rest first.  Once minted, a
    lookup is a dict hit."""

    __slots__ = ("_rows", "_prefix", "_whole")

    def __init__(self, rows: "IndexEntries", prefix: str) -> None:
        super().__init__()
        self._rows = rows
        self._prefix = prefix  # the directory's path and a slash
        self._whole = False

    def get(self, name: str, default: Optional[Inode] = None) -> Optional[Inode]:
        node = _dict_get(self, name)
        if node is not None:
            return node
        if not self._whole:
            row = self._rows.row(self._prefix + name)
            if row is not None:
                node = self[name] = self._rows.mint(row)
                return node
        return default

    def __missing__(self, name: str) -> Inode:
        node = self.get(name)
        if node is None:
            raise KeyError(name)
        return node

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.get(name) is not None

    def _whole_listing(self) -> "_Listing":
        if not self._whole:
            self._whole = True
            rows, prefix = self._rows, self._prefix
            paths = rows.paths
            row = bisect_left(paths, prefix)
            end = bisect_left(paths, prefix[:-1] + _PAST_SLASH, row)
            while row < end:
                name, below, _ = paths[row][len(prefix):].partition("/")
                if below:  # inside a child directory: skip to its end
                    row = bisect_left(paths, prefix + name + _PAST_SLASH, row, end)
                    continue
                if not dict.__contains__(self, name):
                    self[name] = rows.mint(row)
                row += 1
        return self

    def __iter__(self) -> Iterator[str]:
        return dict.__iter__(self._whole_listing())

    def __len__(self) -> int:
        return dict.__len__(self._whole_listing())

    def keys(self):
        return dict.keys(self._whole_listing())

    def values(self):
        return dict.values(self._whole_listing())

    def items(self):
        return dict.items(self._whole_listing())


class IndexEntries(Mapping):
    """An index's rows — its archive's member columns, and the identity
    and size of each stub — read as :attr:`GearIndex.entries`: path →
    :class:`GearFileEntry` of every stub, read-only.  The lower tree's
    nodes are minted here (:meth:`mint`), a stub's entry with its node
    for the fault that follows, so a touched stub's lookup is a dict hit
    and another's a bisection of the path column; iterating mints fresh
    entries and keeps none.  No node is held, so the nodes minted from
    the rows hold them without a cycle."""

    __slots__ = ("paths", "kinds", "modes", "uids", "gids", "blobs", "targets",
                 "identities", "sizes", "owner", "minted")

    def __init__(self, archive: LayerArchive, identities: List[Optional[str]],
                 sizes: "array[int]", owner: object) -> None:
        (self.paths, self.kinds, self.modes, self.uids, self.gids, self.blobs,
         self.targets) = archive.columns
        self.identities = identities
        self.sizes = sizes
        #: The lower tree's ownership token, stamped on every minted node.
        self.owner = owner
        #: path → the entry of every stub minted so far.
        self.minted: Dict[str, GearFileEntry] = {}

    def row(self, path: str) -> Optional[int]:
        """The row of ``path``, by bisection of the path column."""
        paths = self.paths
        at = bisect_left(paths, path)
        return at if at < len(paths) and paths[at] == path else None

    def mint(self, row: int) -> Inode:
        """The lower node of ``row``: a stub-marked file, a symlink, or a
        directory whose own entries are minted as they are touched."""
        kind = self.kinds[row]
        key = (self.modes[row], self.uids[row], self.gids[row])
        metas = _METAS.get(key)
        if metas is None:
            meta = Metadata(*key)
            metas = _METAS[key] = (meta, meta.with_xattr(STUB_XATTR, "1"))
        if kind is FILE:
            self.entry(row)
            return Inode(kind, meta=metas[1], blob=self.blobs[row], owner=self.owner)
        node = Inode(kind, meta=metas[0], symlink_target=self.targets[row],
                     owner=self.owner)
        if kind is DIRECTORY:
            node.children = _Listing(self, self.paths[row] + "/")
        return node

    def entry(self, row: int) -> GearFileEntry:
        """The entry of the stub at ``row``, minted once."""
        path = self.paths[row]
        entry = self.minted.get(path)
        if entry is None:
            entry = self.minted[path] = self._fresh(row)
        return entry

    def _fresh(self, row: int) -> GearFileEntry:
        return GearFileEntry(self.paths[row], self.identities[row],
                             self.sizes[row], self.modes[row])

    def rows(self) -> Iterator[IndexRow]:
        """Every row, in path order."""
        return zip(self.paths, self.kinds, self.modes, self.uids, self.gids,
                   self.blobs, self.targets, self.identities, self.sizes)

    def get(self, path: str, default: Optional[GearFileEntry] = None):
        entry = self.minted.get(path)
        if entry is None:
            row = self.row(path)
            if row is None or self.kinds[row] is not FILE:
                return default
            entry = self.entry(row)
        return entry

    def __getitem__(self, path: str) -> GearFileEntry:
        entry = self.get(path)
        if entry is None:
            raise KeyError(path)
        return entry

    def _file_rows(self) -> Iterator[int]:
        return (row for row, kind in enumerate(self.kinds) if kind is FILE)

    def __iter__(self) -> Iterator[str]:
        return map(self.paths.__getitem__, self._file_rows())

    def __len__(self) -> int:
        return self.kinds.count(FILE)

    def items(self) -> Iterator[Tuple[str, GearFileEntry]]:
        return ((entry.path, entry) for entry in self.values())

    def values(self) -> Iterator[GearFileEntry]:
        return map(self._fresh, self._file_rows())


def _template(archive: LayerArchive, identities: List[Optional[str]],
              sizes: "array[int]") -> Tuple[FileSystemTree, IndexEntries]:
    """An index archive's lower tree and entry view, over its columns."""
    tree = FileSystemTree()
    entries = IndexEntries(archive, identities, sizes, tree.root.owner)
    tree.root.children = _Listing(entries, "/")
    return tree.freeze(), entries


class GearIndex:
    """A Gear image's index component."""

    def __init__(
        self,
        name: str,
        tag: str,
        archive: LayerArchive,
        config: Optional[ImageConfig] = None,
    ) -> None:
        self.name = name
        self.tag = tag
        #: ``name:tag``, formatted once: every link record a deployment
        #: journals carries this very object.
        self.reference = f"{name}:{tag}"
        #: The index's single layer, whose columns are the index.
        self.archive = archive
        #: The stub tree, as a read-only lower over the columns
        #: (directories and symlinks verbatim, regular files as stubs),
        #: and path → entry of every stub.  Both are the archive's and
        #: shared by every index of it; a deployment links into :attr:`links`.
        self.tree, self.entries = archive.index_template
        self.config = config if config is not None else ImageConfig.make()
        #: entry path → the pool inode hard-linked over that stub: what
        #: this node's containers read at the path instead of the stub.
        self.links: Dict[str, Inode] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        name: str,
        tag: str,
        rows: List[IndexRow],
        *,
        config: Optional[ImageConfig] = None,
    ) -> "GearIndex":
        """The index of ``rows``, in any order: sorts them, archives them
        and registers the identity/size column as the archive's template,
        so no pull of this archive parses it."""
        rows.sort(key=itemgetter(0))
        archive = LayerArchive.from_rows(rows)
        archive.index_template = _template(
            archive, list(map(itemgetter(7), rows)), array("q", map(itemgetter(8), rows))
        )
        return cls(name, tag, archive, config)

    @classmethod
    def from_tree(
        cls,
        name: str,
        tag: str,
        root: FileSystemTree,
        *,
        config: Optional[ImageConfig] = None,
        identity_of: Callable[[Inode], str] = _fingerprint_of,
    ) -> "GearIndex":
        """Build an index from a flattened image root filesystem, in one
        walk that only reads ``root``.

        Every regular file becomes a stub row naming ``identity_of(node)``:
        the blob fingerprint unless the caller says otherwise (the
        converter's collision handling names a colliding content by a
        unique ID, and fingerprints every file in this very walk).
        Whiteouts are deletion markers, not content: they yield no row.
        """
        rows = [
            row_of(path, node, None if node.blob is None else identity_of(node))
            for path, node in root.walk("/")
        ]
        return cls.from_rows(name, tag, rows, config=config)

    @classmethod
    def from_image(cls, image: Image) -> "GearIndex":
        """Read an index back out of its single-layer Docker image.

        An archive an index wrote in this process carries its template
        already; one built elsewhere is parsed once, here, and every
        later pull of it (every other node in a fleet) reads that one
        template with a link table of its own.
        """
        if not image.gear_index:
            raise GearError(f"{image.reference!r} is not a Gear index image")
        if len(image.layers) != 1:
            raise GearError(
                f"Gear index image {image.reference!r} must have exactly one "
                f"layer, found {len(image.layers)}"
            )
        archive = image.layers[0].archive
        if archive.index_template is None:
            archive.index_template = cls._parse_archive(archive)
        return cls(image.name, image.tag, archive, image.config)

    @staticmethod
    def _parse_archive(
        archive: LayerArchive,
    ) -> Tuple[FileSystemTree, IndexEntries]:
        """One-time read of an index archive built elsewhere: each stub's
        content gives its identity and size.  Nothing is unpacked, so the
        archive must already be an index's shape — every member below a
        directory member, once, and no ``.wh.`` marker — or the parse
        fails, as a malformed stub does."""
        paths, kinds, modes, _, _, blobs, _ = archive.columns
        identities: List[Optional[str]] = []
        sizes = array("q")
        directories = {""}
        for path, kind, mode, blob in zip(paths, kinds, modes, blobs):
            head, _, name = path.rpartition("/")
            if head not in directories or not path.startswith("/") or (
                name in ("", ".", "..") or name.startswith(WHITEOUT_PREFIX)
            ):
                raise GearError(f"not a Gear index member: {path!r}")
            if kind is DIRECTORY:
                directories.add(path)
            if blob is None:
                identities.append(None)
                sizes.append(0)
                continue
            text = blob.materialize().decode("utf-8", errors="replace")
            entry = GearFileEntry.parse_stub(path, text, mode)
            identities.append(entry.identity)
            sizes.append(entry.size)
        if any(map(str.__eq__, paths, paths[1:])):
            raise GearError("a Gear index names a path twice")
        return _template(archive, identities, sizes)

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
        """Package as a single-layer Docker image (§III-C): the archive
        the index already is.  Links live beside it, never in it."""
        return Image(
            self.name, self.tag, [Layer(self.archive)], self.config, gear_index=True
        )

    def __repr__(self) -> str:
        return f"GearIndex({self.reference!r}, files={len(self.entries)})"
