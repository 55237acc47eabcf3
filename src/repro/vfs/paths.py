"""POSIX path normalization helpers for the virtual filesystem.

All VFS APIs accept absolute POSIX-style paths (``"/usr/bin/python"``).
These helpers canonicalize them *lexically* (no symlink resolution — that
is the tree's job, since it needs inode access).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.errors import VfsError


def unsplit(parts: Sequence[str]) -> str:
    """The canonical path of normalized components (inverse of :func:`split`)."""
    return "/" + "/".join(parts)


def split(path: str) -> List[str]:
    """Split an absolute path into normalized components.

    A path that is already canonical (no empty, ``.`` or ``..``
    component) costs one ``str.split``; the loop runs only for the rest.
    """
    if not path.startswith("/"):
        raise VfsError(f"path must be absolute: {path!r}")
    parts = path.split("/")[1:]
    if "" not in parts and "." not in parts and ".." not in parts:
        return parts
    raw, parts = parts, []
    for component in raw:
        if component in ("", "."):
            continue
        if component == "..":
            if not parts:
                raise VfsError(f"path escapes root: {path!r}")
            parts.pop()
        else:
            parts.append(component)
    return parts


def parent_and_name(path: str) -> Tuple[str, str]:
    """Split a path into its parent directory path and final component."""
    parts = split(path)
    if not parts:
        raise VfsError("root has no parent")
    return unsplit(parts[:-1]), parts[-1]


def symlink_parts(parent_parts: Sequence[str], target: str) -> List[str]:
    """Components a symlink in the directory ``parent_parts`` points to."""
    if target.startswith("/"):
        return split(target)
    return split("/" + "/".join([*parent_parts, target]))


def splice_symlink(
    parts: Sequence[str], index: int, target: str, pointed_to: int
) -> Tuple[List[str], int]:
    """Rewrite ``parts``, whose component ``index`` is a symlink to
    ``target``, for a walk to start over on.  Also returns how many
    leading components of the result some symlink named (``pointed_to``
    is that count for ``parts``): a creating walk must find those, not
    make them — a link to nothing dangles."""
    head = symlink_parts(parts[:index], target)
    return head + list(parts[index + 1 :]), len(head) + max(0, pointed_to - index - 1)
