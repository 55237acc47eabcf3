"""A mutable filesystem tree with POSIX-style path operations."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blob import Blob
from repro.common.errors import (
    FileExistsVfsError,
    IsADirectoryVfsError,
    NotADirectoryVfsError,
    ReadOnlyVfsError,
    SymlinkLoopError,
    VfsError,
)
from repro.common.errors import NotFoundError
from repro.vfs import paths
from repro.vfs.inode import DIRECTORY, FILE, SYMLINK, WHITEOUT, Inode, Metadata

#: Maximum symlink traversals during path resolution (Linux uses 40).
_MAX_SYMLINK_DEPTH = 40


class FileSystemTree:
    """An in-memory filesystem rooted at ``/``.

    The tree is the unit everything else manipulates: Docker layers are
    diff trees, images unpack into trees, the Gear converter walks a tree,
    and overlay mounts merge trees.  Mutations go through path-based
    methods mirroring the POSIX calls the paper's components issue.

    A clone of a *frozen* tree shares the source's inodes and copies a
    directory only when one of its own mutations first walks through it
    (see :meth:`clone`).  Callers must therefore mutate inodes only
    through these methods, or on the node such a method just returned.
    """

    def __init__(self) -> None:
        #: Stamped on every inode this tree creates: the tree may mutate
        #: exactly the inodes carrying it (see :attr:`Inode.owner`).
        self._token = object()
        #: True for a clone of a frozen tree, which can reach inodes it
        #: does not own; every other tree skips the own-on-write walk.
        self._shares = False
        self.root = Inode(DIRECTORY, owner=self._token)
        self._read_only = False

    # -- mutability ------------------------------------------------------

    @property
    def read_only(self) -> bool:
        return self._read_only

    def freeze(self) -> "FileSystemTree":
        """Mark the tree read-only (image layers are immutable once built)."""
        self._read_only = True
        return self

    def _check_writable(self) -> None:
        if self._read_only:
            raise ReadOnlyVfsError("filesystem tree is read-only")

    # -- resolution ------------------------------------------------------

    def _descend(
        self,
        parts: Sequence[str],
        *,
        follow_last: bool = True,
        own: bool = False,
        create: bool = False,
    ) -> Inode:
        """The one walk from the root behind every path operation.

        ``parts`` are the split components.  A symlink on the way (and,
        with ``follow_last``, at the end) restarts the walk on the path
        it points to.  With ``own`` (the mutators' walk through a sharing
        tree) every directory passed, and a directory arrived at, is
        first made this tree's own; with ``create`` a missing component
        becomes a new directory (never one a symlink names: it dangles).
        """
        hops = pointed_to = 0
        while True:
            node = self._own_root() if own else self.root
            last = len(parts) - 1
            for index, name in enumerate(parts):
                children = node.children
                if children is None:
                    raise NotADirectoryVfsError(
                        f"{paths.unsplit(parts[:index])!r} is not a directory"
                    )
                child = children.get(name)
                if child is None or child.kind is WHITEOUT:
                    if not create or index < pointed_to:
                        raise NotFoundError(
                            f"no such file or directory: {paths.unsplit(parts)!r}"
                        )
                    child = children[name] = Inode(
                        DIRECTORY, owner=self._token
                    )
                elif child.symlink_target is not None and (
                    follow_last or index < last
                ):
                    hops += 1
                    if hops > _MAX_SYMLINK_DEPTH:
                        raise SymlinkLoopError(
                            f"too many symbolic links: {paths.unsplit(parts)!r}"
                        )
                    parts, pointed_to = paths.splice_symlink(
                        parts, index, child.symlink_target, pointed_to
                    )
                    break
                elif own and child.children is not None:
                    child = self._own(node, name, child)
                node = child
            else:
                return node

    def _lookup(self, path: str, *, follow_symlinks: bool = True) -> Inode:
        return self._descend(paths.split(path), follow_last=follow_symlinks)

    def _directory(self, parts: Sequence[str], *, create: bool = False) -> Inode:
        """The mutators' walk: the directory at ``parts``, made this
        tree's own, missing components created with ``create``."""
        self._check_writable()
        node = self._descend(parts, own=self._shares, create=create)
        if node.children is None:
            raise NotADirectoryVfsError(f"{paths.unsplit(parts)!r} is not a directory")
        return node

    def _lookup_parent(self, path: str, *, create: bool = False) -> Tuple[Inode, str]:
        """The directory that holds ``path`` and the final name."""
        parts = paths.split(path)
        if not parts:
            raise VfsError("root has no parent")
        name = parts.pop()
        return self._directory(parts, create=create), name

    # -- queries ---------------------------------------------------------

    def exists(self, path: str, *, follow_symlinks: bool = True) -> bool:
        """True when the path resolves to a live node."""
        try:
            self._lookup(path, follow_symlinks=follow_symlinks)
            return True
        except (NotFoundError, NotADirectoryVfsError, SymlinkLoopError):
            return False

    def stat(self, path: str, *, follow_symlinks: bool = True) -> Inode:
        """Return the inode at ``path`` (raises :class:`NotFoundError`)."""
        return self._lookup(path, follow_symlinks=follow_symlinks)

    def is_dir(self, path: str) -> bool:
        try:
            return self._lookup(path).is_dir
        except (NotFoundError, NotADirectoryVfsError, SymlinkLoopError):
            return False

    def is_file(self, path: str) -> bool:
        try:
            return self._lookup(path).is_file
        except (NotFoundError, NotADirectoryVfsError, SymlinkLoopError):
            return False

    def read_blob(self, path: str) -> Blob:
        """Return the blob of the regular file at ``path``."""
        node = self._lookup(path)
        if node.is_dir:
            raise IsADirectoryVfsError(f"{path!r} is a directory")
        if not node.is_file:
            raise VfsError(f"{path!r} is not a regular file")
        assert node.blob is not None
        return node.blob

    def read_bytes(self, path: str) -> bytes:
        """Materialize and return the file's content bytes."""
        return self.read_blob(path).materialize()

    def readlink(self, path: str) -> str:
        """Return the target of the symlink at ``path``."""
        node = self._lookup(path, follow_symlinks=False)
        if not node.is_symlink:
            raise VfsError(f"{path!r} is not a symbolic link")
        assert node.symlink_target is not None
        return node.symlink_target

    def listdir(self, path: str = "/") -> List[str]:
        """Names in the directory at ``path``, sorted, whiteouts excluded."""
        node = self._lookup(path)
        if not node.is_dir:
            raise NotADirectoryVfsError(f"{path!r} is not a directory")
        assert node.children is not None
        return sorted(
            name for name, child in node.children.items() if not child.is_whiteout
        )

    def walk(
        self, top: str = "/", *, include_whiteouts: bool = False
    ) -> Iterator[Tuple[str, Inode]]:
        """Yield ``(path, inode)`` for every node under ``top``, depth-first.

        The top directory itself is not yielded.  Children are visited in
        sorted name order so walks are deterministic.
        """
        parts = paths.split(top)
        node = self._descend(parts, follow_last=False)
        if not node.is_dir:
            raise NotADirectoryVfsError(f"{top!r} is not a directory")
        return self._walk_dir("/".join(["", *parts]), node, include_whiteouts)

    @staticmethod
    def _walk_dir(
        dir_path: str, dir_node: Inode, include_whiteouts: bool
    ) -> Iterator[Tuple[str, Inode]]:
        """Walk below ``dir_path`` (no trailing slash: ``""`` is the root)."""
        assert dir_node.children is not None
        # One frame per open directory: its path, entries, names to go.
        stack = [(dir_path, dir_node.children, iter(sorted(dir_node.children)))]
        while stack:
            dir_path, children, names = stack[-1]
            for name in names:
                child = children[name]
                if child.kind is WHITEOUT and not include_whiteouts:
                    continue
                child_path = f"{dir_path}/{name}"
                yield child_path, child
                if child.children is not None:
                    stack.append(
                        (child_path, child.children, iter(sorted(child.children)))
                    )
                    break
            else:
                stack.pop()

    def iter_files(self) -> Iterator[Tuple[str, Inode]]:
        """Yield ``(path, inode)`` for every regular file of the tree."""
        for path, node in self.walk():
            if node.is_file:
                yield path, node

    def total_file_bytes(self) -> int:
        """Sum of regular-file sizes (hard links counted once per inode)."""
        seen: Dict[int, int] = {}
        for _, node in self.iter_files():
            seen[node.ino] = node.size
        return sum(seen.values())

    # -- mutations ---------------------------------------------------------
    #
    # Each path method is one ``_lookup_parent`` plus the ``*_at`` method
    # that edits a single entry of the directory found.  Bulk loaders
    # call the ``*_at`` methods themselves to stay in the directory they
    # are filling: ``directory`` must be this writable tree's own node,
    # as returned by :meth:`mkdir`, :meth:`mkdir_at` or :meth:`mirror`.

    def mkdir(
        self,
        path: str,
        *,
        parents: bool = False,
        exist_ok: bool = False,
        meta: Optional[Metadata] = None,
    ) -> Inode:
        """Create a directory; with ``parents`` create missing ancestors."""
        parts = paths.split(path)
        if not parts:
            if exist_ok:
                return self._directory(parts)
            raise FileExistsVfsError("root directory always exists")
        name = parts.pop()
        return self.mkdir_at(
            self._directory(parts, create=parents), name, exist_ok=exist_ok, meta=meta
        )

    def mkdir_at(
        self,
        directory: Inode,
        name: str,
        *,
        exist_ok: bool = False,
        meta: Optional[Metadata] = None,
    ) -> Inode:
        """Create (or, with ``exist_ok``, return) the child directory ``name``."""
        assert directory.children is not None
        child = directory.children.get(name)
        if child is None or child.is_whiteout:
            child = directory.children[name] = Inode(
                DIRECTORY,
                meta=meta,
                owner=self._token,
            )
        elif not child.is_dir:
            raise FileExistsVfsError(f"{name!r} exists and is not a directory")
        elif not exist_ok:
            raise FileExistsVfsError(f"directory exists: {name!r}")
        else:
            child = self._own(directory, name, child)
        return child

    def write_file(
        self,
        path: str,
        content: "Blob | bytes | str",
        *,
        meta: Optional[Metadata] = None,
        parents: bool = False,
    ) -> Inode:
        """Create or replace the regular file at ``path``."""
        parent, name = self._lookup_parent(path, create=parents)
        return self.write_at(parent, name, content, meta=meta)

    def write_at(
        self,
        directory: Inode,
        name: str,
        content: "Blob | bytes | str",
        *,
        meta: Optional[Metadata] = None,
    ) -> Inode:
        """Create or replace the regular file ``name`` in ``directory``."""
        assert directory.children is not None
        existing = directory.children.get(name)
        if existing is not None:
            if existing.is_dir:
                raise IsADirectoryVfsError(f"{name!r} is a directory")
            self._drop_link(existing)
        inode = directory.children[name] = Inode(
            FILE, meta=meta, blob=_coerce_blob(content), owner=self._token
        )
        return inode

    def symlink(
        self, path: str, target: str, *, meta: Optional[Metadata] = None
    ) -> Inode:
        """Create a symbolic link at ``path`` pointing to ``target``."""
        parent, name = self._lookup_parent(path)
        return self.symlink_at(parent, name, target, meta=meta)

    def symlink_at(
        self,
        directory: Inode,
        name: str,
        target: str,
        *,
        meta: Optional[Metadata] = None,
    ) -> Inode:
        """Create the symbolic link ``name`` in ``directory``."""
        assert directory.children is not None
        self._check_vacant(directory, name)
        inode = directory.children[name] = Inode(
            SYMLINK, meta=meta, symlink_target=target, owner=self._token
        )
        return inode

    @staticmethod
    def _check_vacant(directory: Inode, name: str) -> None:
        assert directory.children is not None
        existing = directory.children.get(name)
        if existing is not None and not existing.is_whiteout:
            raise FileExistsVfsError(f"path exists: {name!r}")

    def hardlink(self, new_path: str, existing_path: str) -> Inode:
        """Create a hard link: a new directory entry for an existing file."""
        self._check_writable()
        target = self._lookup(existing_path)
        if target.is_dir:
            raise IsADirectoryVfsError("cannot hard-link a directory")
        parent, name = self._lookup_parent(new_path)
        assert parent.children is not None
        self._check_vacant(parent, name)
        if self._is_shared(target):
            target = self._own_leaf(target)
        target.nlink += 1
        parent.children[name] = target
        return target

    def remove(self, path: str, *, recursive: bool = False) -> None:
        """Remove the node at ``path`` (``recursive`` required for dirs)."""
        parent, name = self._lookup_parent(path)
        self.remove_at(parent, name, recursive=recursive)

    def remove_at(
        self, directory: Inode, name: str, *, recursive: bool = False
    ) -> None:
        """Remove the entry ``name`` of ``directory``."""
        assert directory.children is not None
        node = directory.children.get(name)
        if node is None or node.is_whiteout:
            raise NotFoundError(f"no such file or directory: {name!r}")
        if node.children is not None and not recursive:
            if any(not c.is_whiteout for c in node.children.values()):
                raise VfsError(f"directory not empty: {name!r}")
        self._drop_link(node)
        del directory.children[name]

    def whiteout(self, path: str) -> Inode:
        """Place a whiteout entry at ``path`` (replacing any node there)."""
        parent, name = self._lookup_parent(path)
        return self.whiteout_at(parent, name)

    def whiteout_at(self, directory: Inode, name: str) -> Inode:
        """Place a whiteout entry ``name`` in ``directory``."""
        assert directory.children is not None
        existing = directory.children.get(name)
        if existing is not None:
            self._drop_link(existing)
        inode = directory.children[name] = Inode(WHITEOUT, owner=self._token)
        return inode

    def set_opaque(self, path: str) -> None:
        """Mark the directory at ``path`` opaque (hides lower layers)."""
        self._directory(paths.split(path)).opaque = True

    # -- whole-tree operations --------------------------------------------

    def clone(self) -> "FileSystemTree":
        """An independent writable copy of the tree (blobs shared).

        A frozen tree can never change, so its clone is O(1): it starts
        out sharing every inode and copies a directory the first time
        one of its own mutations walks through it; what it never touches
        it never copies.  A writable tree is deep-copied, hard links
        staying linked within the copy.
        """
        copy = FileSystemTree.__new__(FileSystemTree)
        copy._token = object()
        copy._read_only = False
        copy._shares = self._read_only
        if self._read_only:
            copy.root = self.root
        else:
            copy.root = self.root.clone(owner=copy._token, links={})
        return copy

    # -- copy-on-write -----------------------------------------------------

    def _is_shared(self, node: Inode) -> bool:
        """True when ``node`` was created by another tree."""
        owner = node.owner
        return owner is not None and owner is not self._token

    def _own_root(self) -> Inode:
        """Return the root, first replacing another tree's by a copy."""
        if self.root.owner is not self._token:
            self.root = self.root.clone(deep=False, owner=self._token)
        return self.root

    def _own(self, parent: Inode, name: str, node: Inode) -> Inode:
        """Return this tree's own version of the directory ``node``.

        A directory created by another tree is replaced in ``parent``,
        which the caller already owns, by a copy that still references
        the same children.
        """
        if node.owner is not self._token:
            assert parent.children is not None
            node = parent.children[name] = node.clone(deep=False, owner=self._token)
        return node

    def _own_leaf(self, node: Inode) -> Inode:
        """Swap every entry of the shared leaf ``node`` for one own copy.

        Returns the copy; its ``nlink`` counts the entries swapped.  Only
        hard-linking template content, or dropping one of several links
        a template made, gets here, so a whole-tree scan is affordable.
        """
        copy = node.clone(deep=False, owner=self._token)
        copy.nlink = 0
        for trail in list(_entries_of(self.root, node, ())):
            directory = self._own_root()
            for name in trail[:-1]:
                assert directory.children is not None
                directory = self._own(directory, name, directory.children[name])
            assert directory.children is not None
            directory.children[trail[-1]] = copy
            copy.nlink += 1
        return copy

    def _drop_link(self, node: Inode, entries: int = 1) -> None:
        """Account for ``entries`` directory entries of ``node`` going away.

        Taking a directory away takes every entry beneath it away.
        Another tree's inode is simply let go of — its ``nlink`` counts
        that tree's entries — unless more entries of this tree link it,
        which then need a count of their own.
        """
        if node.children is not None:
            # Tally first: owning one leaf rewrites entries under ``node``.
            tally: Dict[Inode, int] = {}
            _tally_leaves(node, tally)
            for leaf, count in tally.items():
                self._drop_link(leaf, count)
        if not self._is_shared(node):
            node.nlink -= entries
        elif node.nlink > 1:
            self._own_leaf(node).nlink -= entries

    def __repr__(self) -> str:
        return (
            f"FileSystemTree(nodes={sum(1 for _ in self.walk())}, "
            f"bytes={self.total_file_bytes()}, read_only={self._read_only})"
        )


def _coerce_blob(content: "Blob | bytes | str") -> Blob:
    if isinstance(content, Blob):
        return content
    if isinstance(content, bytes):
        return Blob.from_bytes(content)
    if isinstance(content, str):
        return Blob.from_text(content)
    raise TypeError(f"unsupported content type: {type(content).__name__}")


def _tally_leaves(directory: Inode, tally: Dict[Inode, int]) -> None:
    """Count, per leaf inode, the entries beneath ``directory``."""
    assert directory.children is not None
    for child in directory.children.values():
        if child.children is not None:
            _tally_leaves(child, tally)
        else:
            tally[child] = tally.get(child, 0) + 1


def _entries_of(
    directory: Inode, target: Inode, trail: Tuple[str, ...]
) -> Iterator[Tuple[str, ...]]:
    """Name trails, from ``directory`` down, of every entry for ``target``."""
    assert directory.children is not None
    for name, child in directory.children.items():
        if child is target:
            yield trail + (name,)
        elif child.children is not None:
            yield from _entries_of(child, target, trail + (name,))
