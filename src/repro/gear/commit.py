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
from typing import Dict, Tuple

from repro.docker.daemon import DockerDaemon
from repro.gear.driver import GearContainer
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex, IndexRow, row_of
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

    # 1. Extract Gear files from the writable diff, and 2. merge the
    #    diff's rows over the current index's: a whiteout, a symlink or a
    #    file replaces what the index held at its path (a directory with
    #    everything below it), a directory replaces a non-directory, and
    #    an opaque one hides what the index held below it.
    new_files: Dict[str, GearFile] = {}
    merged = {row[0]: row for row in container.index.entries.rows()}
    for path, node in container.mount.upper.walk("/", include_whiteouts=True):
        if node.is_dir:
            held = merged.get(path)
            if held is not None and held[1] is not FileKind.DIRECTORY:
                del merged[path]
            if node.opaque:
                _drop_below(merged, path)
            merged[path] = row_of(path, node, None)
            continue
        held = merged.pop(path, None)
        if held is not None and held[1] is FileKind.DIRECTORY:
            _drop_below(merged, path)
        if node.is_symlink:
            merged[path] = row_of(path, node, None)
        elif node.is_file:
            assert node.blob is not None
            gear_file = GearFile.from_blob(node.blob)
            new_files[gear_file.identity] = gear_file
            merged[path] = row_of(path, node, gear_file.identity)
    report.new_gear_files = len(new_files)
    new_index = GearIndex.from_rows(
        name, tag, list(merged.values()), config=container.index.config
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


def _drop_below(merged: Dict[str, IndexRow], directory: str) -> None:
    """Drop every row below ``directory``."""
    below = directory + "/"
    for path in [path for path in merged if path.startswith(below)]:
        del merged[path]
