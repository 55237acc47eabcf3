"""Union mounts with Overlay2 semantics.

An :class:`OverlayMount` merges a stack of read-only *lower* trees with one
writable *upper* tree, implementing the behaviour of Linux overlayfs that
Docker's Overlay2 graph driver relies on (§II-C) and that the Gear File
Viewer extends (§III-D2):

* lookup resolves top-down: the upper layer shadows lowers, whiteouts hide
  lower entries, opaque directories mask all lower directory contents;
* directories merge across layers; non-directories shadow;
* writes go to the upper layer (files are copied up first when modified);
* deletes of lower-layer entries place whiteouts in the upper layer;
* symlinks resolve against the *merged* namespace, as on a real mount.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blob import Blob
from repro.common.clock import SimClock, run_inline
from repro.common.errors import (
    FileExistsVfsError,
    IsADirectoryVfsError,
    NotADirectoryVfsError,
    NotFoundError,
    SymlinkLoopError,
    VfsError,
)
from repro.common.hashing import fingerprint_tokens
from repro.vfs import paths
from repro.vfs.inode import WHITEOUT, Inode, Metadata
from repro.vfs.tree import FileSystemTree

_MAX_SYMLINK_DEPTH = 40


@dataclass
class MountStats:
    """Counters the deployment experiments read off a mount."""

    lookups: int = 0
    reads: int = 0
    bytes_read: int = 0
    copy_ups: int = 0
    whiteouts_created: int = 0
    #: Inodes touched since mount — drives the unmount-cost model for the
    #: short-running experiment (Fig. 11b): Gear "only needs to destroy
    #: the inode caches of required files".
    inodes_touched: int = 0


class OverlayMount:
    """A merged read-write view over ``upper`` + ``lowers``.

    ``lowers`` are ordered **top-most first** (the overlayfs ``lowerdir``
    convention): ``lowers[0]`` shadows ``lowers[1]`` and so on.  The upper
    tree shadows them all and receives every mutation.
    """

    #: What a lazy-content subclass blocks on; a plain overlay never waits.
    clock: Optional[SimClock] = None
    #: The visibility hook: ``(leaf, path) -> inode shown there``, run
    #: where a leaf of the merged view becomes visible — before it is
    #: touched, so everything that resolves or walks sees the same node.
    #: A plain overlay shows every leaf as stored (the Gear File Viewer
    #: shows a linked stub as the pool file linked over it).
    _reveal: Optional[Callable[[Inode, str], Inode]] = None

    def __init__(
        self,
        lowers: Sequence[FileSystemTree],
        upper: Optional[FileSystemTree] = None,
    ) -> None:
        self.lowers: Tuple[FileSystemTree, ...] = tuple(lowers)
        self.upper: FileSystemTree = upper if upper is not None else FileSystemTree()
        if self.upper.read_only:
            raise VfsError("upper layer must be writable")
        self.stats = MountStats()
        #: Numbers of the inodes touched, as a sorted unboxed column: a
        #: full-tree walk (a digest) costs 8 B an inode and nothing the
        #: collector tracks.
        self._touched = array("q")

    # ------------------------------------------------------------------
    # resolution machinery
    # ------------------------------------------------------------------

    def _layer_roots(self) -> List[Inode]:
        return [self.upper.root] + [tree.root for tree in self.lowers]

    def _descend(
        self, parts: List[str], *, follow_last: bool = True, create: bool = False
    ) -> Tuple[Inode, List[str], List[Inode], List[Inode]]:
        """Resolve ``parts`` in the merged namespace, one component at a
        time against the merged directory stack carried down the path.

        Returns the visible inode, the fully-resolved components, and
        two stacks of directory inodes, top-most first: those merged
        into the directory that holds the inode, and those merged into
        the inode itself (empty unless it is a directory).  A symlink
        restarts the walk on the path it points to; with ``create`` so
        does a missing component (unless a symlink names it: that link
        dangles), once made a directory of the upper layer.
        """
        self.stats.lookups += 1
        hops = pointed_to = 0
        while True:
            stack: List[Inode] = []
            below = self._layer_roots()
            node = below[0]
            last = len(parts) - 1
            for index, name in enumerate(parts):
                stack = below
                node, below = _step(stack, name)
                if node is None:
                    if not create or index < pointed_to:
                        raise NotFoundError(
                            f"no such file or directory: {paths.unsplit(parts)!r}"
                        )
                    self._upper_mkdir(self._ensure_upper_dirs(parts[:index]), name)
                    break
                if node.symlink_target is not None and (follow_last or index < last):
                    hops += 1
                    if hops > _MAX_SYMLINK_DEPTH:
                        raise SymlinkLoopError(
                            f"too many symlinks: {paths.unsplit(parts)!r}"
                        )
                    parts, pointed_to = paths.splice_symlink(
                        parts, index, node.symlink_target, pointed_to
                    )
                    break
                if index < last and node.children is None:
                    raise NotADirectoryVfsError(
                        f"{paths.unsplit(parts[: index + 1])!r} is not a directory"
                    )
            else:
                if parts:
                    if node.children is None and self._reveal is not None:
                        node = self._reveal(node, paths.unsplit(parts))
                    self._touch(node)
                return node, parts, stack, below

    def _touch(self, node: Inode) -> None:
        touched, ino = self._touched, node.ino
        at = bisect_left(touched, ino)
        if at == len(touched) or touched[at] != ino:
            touched.insert(at, ino)
            self.stats.inodes_touched = len(touched)

    def _resolve(
        self, path: str, *, follow_symlinks: bool = True
    ) -> Tuple[Inode, List[str]]:
        """The visible inode at ``path`` and its resolved components."""
        return self._descend(paths.split(path), follow_last=follow_symlinks)[:2]

    def _resolve_parent(
        self, parts: List[str], *, create: bool = False
    ) -> Tuple[List[str], List[Inode], str]:
        """Resolved components and merged stack of the directory that
        holds the path ``parts``, and the final name."""
        if not parts:
            raise VfsError("root has no parent")
        name = parts.pop()
        node, resolved, _, stack = self._descend(parts, create=create)
        if not node.is_dir:
            raise NotADirectoryVfsError(f"{paths.unsplit(parts)!r} is not a directory")
        return resolved, stack, name

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------

    def exists(self, path: str, *, follow_symlinks: bool = True) -> bool:
        try:
            self._resolve(path, follow_symlinks=follow_symlinks)
            return True
        except (NotFoundError, NotADirectoryVfsError, SymlinkLoopError):
            return False

    def stat(self, path: str, *, follow_symlinks: bool = True) -> Inode:
        node, _ = self._resolve(path, follow_symlinks=follow_symlinks)
        return node

    def is_dir(self, path: str) -> bool:
        try:
            return self.stat(path).is_dir
        except (NotFoundError, NotADirectoryVfsError, SymlinkLoopError):
            return False

    def readlink(self, path: str) -> str:
        node, _ = self._resolve(path, follow_symlinks=False)
        if not node.is_symlink:
            raise VfsError(f"{path!r} is not a symbolic link")
        assert node.symlink_target is not None
        return node.symlink_target

    def read_blob(self, path: str) -> Blob:
        """Return the blob of the regular file at ``path``.

        Subclasses (the Gear File Viewer) hook this to fault in content.
        """
        return self._drive(self.read_blob_gen(path))

    def read_blob_gen(self, path: str):
        """:meth:`read_blob` as a generator: ``yield from`` it in a process."""
        node, resolved = self._resolve(path)
        if node.is_dir:
            raise IsADirectoryVfsError(f"{path!r} is a directory")
        if not node.is_file:
            raise VfsError(f"{path!r} is not a regular file")
        node = yield from self._materialize(node, resolved)
        assert node.blob is not None
        self.stats.reads += 1
        self.stats.bytes_read += node.blob.size
        return node.blob

    def _materialize(self, node: Inode, resolved: Sequence[str]):
        """Generator hook for lazy-content mounts; identity in the base class.

        The Gear File Viewer overrides this to fault fingerprint stubs in
        from the shared cache or the Gear Registry.
        """
        return node
        yield  # a generator, like its overrides

    def _drive(self, gen):
        """Run a fault-path generator for a synchronous caller."""
        clock = self.clock
        return run_inline(gen) if clock is None else clock.drive(gen)

    def read_bytes(self, path: str) -> bytes:
        return self.read_blob(path).materialize()

    def listdir(self, path: str = "/") -> List[str]:
        """Merged directory listing with whiteout/opaque rules applied."""
        node, _, _, stack = self._descend(paths.split(path))
        if not node.is_dir:
            raise NotADirectoryVfsError(f"{path!r} is not a directory")
        return sorted(_merged_names(stack))

    def walk(self, top: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Depth-first walk of the merged view, sorted for determinism."""
        parts = paths.split(top)
        node, _, _, stack = self._descend(parts)
        if not node.is_dir:
            raise NotADirectoryVfsError(f"{top!r} is not a directory")
        yield from self._walk_merged("/".join(["", *parts]), stack)

    def _walk_merged(
        self, dir_path: str, stack: List[Inode]
    ) -> Iterator[Tuple[str, Inode]]:
        """Walk below the merged directory ``stack`` (``dir_path`` has no
        trailing slash); every node counts as looked up and touched."""
        self.stats.lookups += 1
        reveal = self._reveal
        for name in sorted(_merged_names(stack)):
            child, below = _step(stack, name)
            assert child is not None
            self.stats.lookups += 1
            child_path = f"{dir_path}/{name}"
            if child.children is None and reveal is not None:
                child = reveal(child, child_path)
            self._touch(child)
            yield child_path, child
            if child.is_dir:
                yield from self._walk_merged(child_path, below)

    def fs_digest(self) -> str:
        """Logical-content digest of the merged filesystem: every path
        with its kind and, for a file, its mode and content token."""
        tokens = []
        for path, node in self.walk():
            if not node.is_file:
                tokens.append(f"{path}|{node.kind.value}")
                continue
            content = self._content_token(path, node)
            tokens.append(f"{path}|file|{node.meta.mode:o}|{content}")
        return str(fingerprint_tokens(tokens))

    def _content_token(self, path: str, node: Inode) -> str:
        return node.blob.fingerprint if node.blob is not None else ""

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------

    def _ensure_upper_dirs(self, dir_parts: Sequence[str]) -> Inode:
        """Directory copy-up: the upper layer's directory at ``dir_parts``.

        ``dir_parts`` are resolved components of a merged directory; an
        ancestor the upper layer lacks is created with the merged
        inode's metadata, as overlayfs copy-up does.
        """
        upper_dir = self.upper.mkdir("/", exist_ok=True)
        stack = self._layer_roots()
        for name in dir_parts:
            merged, stack = _step(stack, name)
            assert merged is not None and merged.is_dir
            upper_dir = self.upper.mkdir_at(
                upper_dir, name, exist_ok=True, meta=merged.meta
            )
        return upper_dir

    def write_file(
        self,
        path: str,
        content: "Blob | bytes | str",
        *,
        meta: Optional[Metadata] = None,
        parents: bool = False,
    ) -> Inode:
        """Create or overwrite a regular file; the write lands in upper."""
        resolved, stack, name = self._resolve_parent(
            paths.split(path), create=parents
        )
        existing, _ = _step(stack, name)
        if existing is not None and existing.is_dir:
            raise IsADirectoryVfsError(f"{path!r} is a directory")
        return self.upper.write_at(
            self._ensure_upper_dirs(resolved), name, content, meta=meta
        )

    def copy_up(self, path: str) -> Inode:
        """Explicitly copy a lower file into the upper layer unchanged."""
        node, resolved = self._resolve(path, follow_symlinks=False)
        if node.is_dir:
            raise IsADirectoryVfsError("copy-up of directories is implicit")
        held = self._upper_entry(resolved)
        if held is not None:
            return held
        upper_dir = self._ensure_upper_dirs(resolved[:-1])
        self.stats.copy_ups += 1
        if node.is_symlink:
            assert node.symlink_target is not None
            return self.upper.symlink_at(
                upper_dir, resolved[-1], node.symlink_target, meta=node.meta
            )
        # Lazy-content mounts must fault the real bytes in before the
        # copy (a Gear stub's placeholder must never be copied up).
        node = self._drive(self._materialize(node, resolved))
        assert node.blob is not None
        return self.upper.write_at(
            upper_dir, resolved[-1], node.blob, meta=node.meta
        )

    def mkdir(
        self, path: str, *, parents: bool = False, exist_ok: bool = False
    ) -> Inode:
        """Create a directory in the merged view (lands in upper)."""
        parts = paths.split(path)
        if not parts:
            if exist_ok:
                return self.upper.root
            raise FileExistsVfsError("root directory always exists")
        resolved, stack, name = self._resolve_parent(parts, create=parents)
        existing, _ = _step(stack, name)
        if existing is not None and not (existing.is_dir and exist_ok):
            raise FileExistsVfsError(f"path exists: {path!r}")
        return self._upper_mkdir(
            self._ensure_upper_dirs(resolved), name,
            existing.meta if existing is not None else None,
        )

    def symlink(self, path: str, target: str) -> Inode:
        """Create a symlink in the merged view (lands in upper)."""
        resolved, stack, name = self._resolve_parent(paths.split(path))
        if _step(stack, name)[0] is not None:
            raise FileExistsVfsError(f"path exists: {path!r}")
        return self.upper.symlink_at(self._ensure_upper_dirs(resolved), name, target)

    def remove(self, path: str, *, recursive: bool = False) -> None:
        """Delete from the merged view, placing whiteouts when needed."""
        node, resolved, stack, below = self._descend(
            paths.split(path), follow_last=False
        )
        if not resolved:
            raise VfsError("root has no parent")
        if node.is_dir:
            children = sorted(_merged_names(below))
            if children and not recursive:
                raise VfsError(f"directory not empty: {path!r}")
            for child in children:
                self.remove(paths.unsplit([*resolved, child]), recursive=True)
        *dir_parts, name = resolved
        in_upper = self._upper_entry(resolved) is not None
        # A lower layer shows the entry when, below the upper's own
        # directory, the first layer that names it holds no whiteout
        # (the parent's stack already honours opaque dirs and shadowing).
        held = self._upper_entry(dir_parts)
        in_lower = False
        for dir_inode in stack:
            assert dir_inode.children is not None
            child = dir_inode.children.get(name)
            if dir_inode is not held and child is not None:
                in_lower = not child.is_whiteout
                break
        upper_dir = self._ensure_upper_dirs(dir_parts)
        if in_upper:
            self.upper.remove_at(upper_dir, name, recursive=True)
        if in_lower:
            self.upper.whiteout_at(upper_dir, name)
            self.stats.whiteouts_created += 1

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _upper_mkdir(
        self, upper_dir: Inode, name: str, meta: Optional[Metadata] = None
    ) -> Inode:
        """The upper layer's directory ``name`` in ``upper_dir``.  Made
        over a whiteout it is opaque, as overlayfs makes it: what the
        whiteout hid stays hidden."""
        assert upper_dir.children is not None
        held = upper_dir.children.get(name)
        made = self.upper.mkdir_at(upper_dir, name, exist_ok=True, meta=meta)
        if held is not None and held.is_whiteout:
            made.opaque = True
        return made

    def _upper_entry(self, resolved: Sequence[str]) -> Optional[Inode]:
        """The upper layer's own live entry at a resolved path, if any."""
        node: Optional[Inode] = self.upper.root
        for name in resolved:
            node = node.children.get(name) if node.children is not None else None
            if node is None or node.is_whiteout:
                return None
        return node

    def __repr__(self) -> str:
        return f"OverlayMount(lowers={len(self.lowers)})"


def _step(
    stack: Sequence[Inode], name: str
) -> Tuple[Optional[Inode], List[Inode]]:
    """One component of a merged lookup (what ``ovl_lookup_single`` does
    per layer): the top-most visible node ``name`` in the merged
    directory ``stack``, and the directory inodes merged into it."""
    visible: Optional[Inode] = None
    merged: List[Inode] = []
    for dir_inode in stack:
        assert dir_inode.children is not None
        child = dir_inode.children.get(name)
        if child is None:
            continue
        if visible is None:
            if child.kind is WHITEOUT:
                break
            visible = child
        if child.children is None:
            # A whiteout or non-directory shadows everything below.
            break
        merged.append(child)
        if child.opaque:
            break
    return visible, merged


def _merged_names(stack: Sequence[Inode]) -> List[str]:
    """Visible names of the merged directory ``stack`` (unsorted)."""
    seen: Dict[str, bool] = {}
    for dir_inode in stack:
        assert dir_inode.children is not None
        for name, child in dir_inode.children.items():
            if name not in seen:
                seen[name] = child.kind is not WHITEOUT
    return [name for name, live in seen.items() if live]
