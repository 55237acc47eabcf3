"""Inodes for the virtual filesystem."""

from __future__ import annotations

import enum
import itertools
from types import MappingProxyType
from typing import Dict, Mapping, Optional

from repro.blob import Blob
from repro.common.errors import VfsError

_inode_numbers = itertools.count(1)


class FileKind(enum.Enum):
    """The node kinds found in container image filesystems."""

    FILE = "file"
    DIRECTORY = "dir"
    SYMLINK = "symlink"
    #: A whiteout marks a path as deleted by an upper layer.  Whiteouts
    #: only appear inside layer-diff trees and writable overlay layers,
    #: never in a merged view.
    WHITEOUT = "whiteout"


#: The kinds as module names: an enum member read off its class costs
#: about ten times a global's lookup, and the VFS tests a node's kind at
#: every step of every lookup and walk.
FILE, DIRECTORY, SYMLINK, WHITEOUT = (
    FileKind.FILE, FileKind.DIRECTORY, FileKind.SYMLINK, FileKind.WHITEOUT
)


#: The one "no extended attributes" mapping every attribute-less
#: :class:`Metadata` holds.
NO_XATTRS: Mapping[str, str] = MappingProxyType({})

#: Every live :class:`Metadata`, by value.  ``mtime`` is never set and
#: images use a handful of modes and owners, so this stays a few dozen
#: entries however many inodes there are.
_METADATA: Dict[tuple, "Metadata"] = {}


class Metadata:
    """POSIX-ish metadata carried by every inode: an immutable value.

    Docker preserves ownership and permissions in layer tarballs, and the
    Gear index must retain them (the index holds "metadata [containing]
    the structure of the entire directory tree", §III-B).

    Equal values are one object (``Metadata(mode=0o755) is
    Metadata(mode=0o755)``), so inodes share it freely: a clone, a
    copy-up or a pool entry takes the reference, and a change of
    permissions or attributes *replaces* the inode's value
    (``inode.meta = inode.meta.with_mode(0o600)``) and so can never
    reach another inode that holds the old one.
    """

    __slots__ = ("mode", "uid", "gid", "mtime", "xattrs")

    mode: int
    uid: int
    gid: int
    mtime: float
    #: Read-only; extended attributes are added with :meth:`with_xattr`.
    xattrs: Mapping[str, str]

    def __new__(
        cls,
        mode: int = 0o644,
        uid: int = 0,
        gid: int = 0,
        mtime: float = 0.0,
        xattrs: Mapping[str, str] = NO_XATTRS,
    ) -> "Metadata":
        if xattrs:
            key = (mode, uid, gid, mtime, *sorted(xattrs.items()))
        else:
            key = (mode, uid, gid, mtime)
        self = _METADATA.get(key)
        if self is None:
            self = object.__new__(cls)
            fill = object.__setattr__
            fill(self, "mode", mode)
            fill(self, "uid", uid)
            fill(self, "gid", gid)
            fill(self, "mtime", mtime)
            fill(
                self, "xattrs",
                MappingProxyType(dict(xattrs)) if xattrs else NO_XATTRS,
            )
            # setdefault: two threads that both missed keep one winner.
            self = _METADATA.setdefault(key, self)
        return self

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(
            f"Metadata is immutable: give the inode a new value "
            f"(with_mode / with_xattr) instead of changing {name!r}"
        )

    __delattr__ = __setattr__

    def with_mode(self, mode: int) -> "Metadata":
        """This metadata with its permission bits replaced."""
        if mode == self.mode:  # the viewer's usual case, on every link
            return self
        return Metadata(mode, self.uid, self.gid, self.mtime, self.xattrs)

    def with_xattr(self, name: str, value: str) -> "Metadata":
        """This metadata with one extended attribute set."""
        return Metadata(
            self.mode, self.uid, self.gid, self.mtime, {**self.xattrs, name: value}
        )

    def __repr__(self) -> str:
        return (
            f"Metadata(mode=0o{self.mode:o}, uid={self.uid}, gid={self.gid}, "
            f"mtime={self.mtime}, xattrs={dict(self.xattrs)})"
        )


class Inode:
    """One filesystem object; directory entries reference inodes.

    Hard links are modelled exactly as on a real filesystem: multiple
    directory entries pointing at the *same* :class:`Inode`, whose
    ``nlink`` counts the references.  The Gear File Viewer's shared-cache
    design (§III-D2) depends on this — fetched Gear files are hard-linked
    from the level-1 cache into container indexes (their link tables).
    """

    __slots__ = (
        "ino", "kind", "meta", "blob", "symlink_target", "children", "nlink",
        "opaque", "owner",
    )

    def __init__(
        self,
        kind: FileKind,
        *,
        meta: Optional[Metadata] = None,
        blob: Optional[Blob] = None,
        symlink_target: Optional[str] = None,
        owner: Optional[object] = None,
    ) -> None:
        self.ino: int = next(_inode_numbers)
        #: Token of the :class:`~repro.vfs.tree.FileSystemTree` that
        #: created this inode and may mutate it in place; any other tree
        #: reaching it (a clone of a frozen tree) must copy it first.
        #: ``None`` for inodes made outside a tree (the Gear pool's),
        #: whose ``nlink`` counts the pool's reference and every index
        #: link to it.
        self.owner = owner
        self.kind = kind
        if meta is None:
            meta = Metadata(0o755 if kind is DIRECTORY else 0o644)
        self.meta = meta
        self.blob: Optional[Blob] = None
        self.symlink_target: Optional[str] = None
        self.children: Optional[Dict[str, "Inode"]] = None
        self.nlink = 1
        #: Opaque directories hide all lower-layer content (overlayfs's
        #: ``trusted.overlay.opaque`` xattr).
        self.opaque = False

        if kind is FILE:
            self.blob = blob if blob is not None else Blob.from_bytes(b"")
        elif blob is not None:
            raise VfsError(f"{kind.value} inode cannot carry a blob")
        if kind is DIRECTORY:
            self.children = {}
        if kind is SYMLINK:
            if not symlink_target:
                raise VfsError("symlink inode requires a target")
            self.symlink_target = symlink_target
        elif symlink_target is not None:
            raise VfsError(f"{kind.value} inode cannot carry a symlink target")

    # -- classification helpers ----------------------------------------

    @property
    def is_file(self) -> bool:
        return self.kind is FILE

    @property
    def is_dir(self) -> bool:
        return self.kind is DIRECTORY

    @property
    def is_symlink(self) -> bool:
        return self.kind is SYMLINK

    @property
    def is_whiteout(self) -> bool:
        return self.kind is WHITEOUT

    @property
    def size(self) -> int:
        """Content size: blob length for files, 0 for everything else."""
        if self.kind is FILE:
            return self.blob.size  # type: ignore[union-attr]
        return 0

    # -- structural copy -------------------------------------------------

    def clone(
        self,
        *,
        deep: bool = True,
        owner: Optional[object] = None,
        links: Optional[Dict["Inode", "Inode"]] = None,
    ) -> "Inode":
        """Copy this inode for the tree ``owner`` (new inode number).

        Files share the (immutable) blob.  A directory copies its whole
        subtree when ``deep`` — how a *writable* tree is cloned — and
        otherwise keeps referencing the same children, which is the
        copy-on-write step of a tree that shares structure with a frozen
        one.  ``links`` maps a multiply-linked source inode to the copy
        already made of it, so hard links stay linked in the copy and its
        ``nlink`` counts the entries copied, not the source's.

        The copy assigns slots directly instead of re-running
        ``__init__``'s validation (the source inode already passed it).
        """
        linked = links is not None and self.nlink > 1 and self.children is None
        if linked:
            twin = links.get(self)
            if twin is not None:
                twin.nlink += 1
                return twin
        copy = Inode.__new__(Inode)
        if linked:
            links[self] = copy
        copy.ino = next(_inode_numbers)
        copy.owner = owner
        copy.kind = self.kind
        copy.meta = self.meta
        copy.blob = self.blob
        copy.symlink_target = self.symlink_target
        copy.nlink = 1
        copy.opaque = self.opaque
        children = self.children
        if children is None:
            copy.children = None
        elif deep:
            copy.children = {
                name: child.clone(owner=owner, links=links)
                for name, child in children.items()
            }
        else:
            copy.children = dict(children)
        return copy

    def __repr__(self) -> str:
        detail = ""
        if self.is_file:
            detail = f", size={self.size}"
        elif self.is_symlink:
            detail = f", target={self.symlink_target!r}"
        elif self.is_dir:
            assert self.children is not None
            detail = f", entries={len(self.children)}"
        return f"Inode(#{self.ino}, {self.kind.value}{detail})"
