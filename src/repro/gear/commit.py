"""Committing Gear containers to new Gear images.

§III-D2: "If we want to commit the container as an image, Gear File
Viewer first extracts the files' contents in 'diff' directory to
construct Gear files.  Then, Gear File Viewer combines the metadata of
newly added files with the Gear index of current image to build a new
Gear index.  Finally, Gear pushes the new Gear index and newly added Gear
files belonging to the new image to Docker Registry and Gear Registry,
respectively."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.blob import Blob
from repro.docker.daemon import DockerDaemon
from repro.gear.driver import GearContainer
from repro.gear.gearfile import GearFile
from repro.gear.index import GearFileEntry, GearIndex, STUB_MAGIC, STUB_XATTR
from repro.gear.registry import GearRegistry
from repro.net.transport import RpcTransport
from repro.vfs.inode import FileKind


@dataclass
class CommitReport:
    """What a commit produced and pushed."""

    reference: str
    new_gear_files: int = 0
    uploaded_gear_files: int = 0
    uploaded_bytes: int = 0
    index_pushed: bool = False


def commit_container(
    container: GearContainer,
    name: str,
    tag: str,
    *,
    daemon: DockerDaemon,
    transport: RpcTransport,
) -> Tuple[GearIndex, CommitReport]:
    """Build and publish a new Gear image from a container's diff."""
    report = CommitReport(reference=f"{name}:{tag}")

    # 1. Extract Gear files from the writable diff.
    new_files: Dict[str, GearFile] = {}
    diff_entries: Dict[str, GearFileEntry] = {}
    for path, node in container.mount.upper.walk("/", include_whiteouts=True):
        if node.is_file and not node.is_whiteout:
            assert node.blob is not None
            gear_file = GearFile.from_blob(node.blob)
            new_files[gear_file.identity] = gear_file
            diff_entries[path] = GearFileEntry(
                path=path,
                identity=gear_file.identity,
                size=node.blob.size,
                mode=node.meta.mode,
            )
    report.new_gear_files = len(new_files)

    # 2. Merge the diff over the current index: build the committed tree
    #    (stubs for old content, stubs for new content) by cloning the
    #    index tree and applying the diff's structure.
    merged_tree = container.index.stub_tree()
    merged_entries = dict(container.index.entries)
    _apply_diff(merged_tree, merged_entries, container, diff_entries)

    new_index = GearIndex(
        name, tag, merged_tree, merged_entries, container.index.config
    )

    # 3. Push: only Gear files the registry lacks travel, then the index
    #    image goes through the ordinary Docker push path.
    for identity, gear_file in sorted(new_files.items()):
        present = transport.call(
            GearRegistry.ENDPOINT_NAME, "query", identity,
            label=f"commit-query:{identity[:12]}",
        )
        if present:
            continue
        transport.call(
            GearRegistry.ENDPOINT_NAME, "upload", gear_file,
            request_payload_bytes=gear_file.compressed_size,
            label=f"commit-upload:{identity[:12]}",
        )
        report.uploaded_gear_files += 1
        report.uploaded_bytes += gear_file.compressed_size

    index_image = new_index.to_image()
    daemon.add_local_image(index_image)
    daemon.push(index_image.reference)
    report.index_pushed = True
    return new_index, report


def _apply_diff(
    merged_tree,
    merged_entries: Dict[str, GearFileEntry],
    container: GearContainer,
    diff_entries: Dict[str, GearFileEntry],
) -> None:
    """Overlay the container diff onto the cloned index tree/entries."""
    upper = container.mount.upper
    for path, node in upper.walk("/", include_whiteouts=True):
        if node.is_whiteout:
            if merged_tree.exists(path, follow_symlinks=False):
                merged_tree.remove(path, recursive=True)
            _drop_subtree_entries(merged_entries, path)
            continue
        if node.is_dir:
            created = merged_tree.mkdir(path, parents=True, exist_ok=True)
            created.meta = node.meta
            if node.opaque:
                for child in list(merged_tree.listdir(path)):
                    from repro.vfs import paths as _paths

                    child_path = _paths.join(path, child)
                    merged_tree.remove(child_path, recursive=True)
                    _drop_subtree_entries(merged_entries, child_path)
        elif node.is_symlink:
            if merged_tree.exists(path, follow_symlinks=False):
                merged_tree.remove(path, recursive=True)
            assert node.symlink_target is not None
            merged_tree.symlink(path, node.symlink_target, meta=node.meta)
            merged_entries.pop(path, None)
        elif node.is_file:
            entry = diff_entries[path]
            if merged_tree.exists(path, follow_symlinks=False):
                merged_tree.remove(path, recursive=True)
            merged_tree.write_file(
                path,
                Blob.from_text(entry.stub_content()),
                meta=node.meta.with_xattr(STUB_XATTR, "1"),
                parents=True,
            )
            merged_entries[path] = entry


def _drop_subtree_entries(
    entries: Dict[str, GearFileEntry], prefix: str
) -> None:
    doomed = [p for p in entries if p == prefix or p.startswith(prefix + "/")]
    for path in doomed:
        del entries[path]
