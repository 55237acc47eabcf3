"""A Slacker-style block-level lazy-pull baseline.

Slacker stores each container's root filesystem as a snapshot of a
shared-storage block device (LVM over NFS) and fetches blocks lazily as
the container touches them.  The properties the paper leans on (§II-D,
§V-E2):

* **fast provisioning** — starting a container only clones a snapshot, so
  the pull phase is nearly free;
* **block granularity** — a file read pulls every filesystem block backing
  it, plus metadata blocks (inode, directory, indirect blocks), and blocks
  travel *uncompressed*; "the number of blocks to be pulled by Slacker is
  much more than the number of files to be pulled by Gear";
* **no sharing** — each container gets its own virtual device, so
  identical blocks are re-fetched for every container and version
  ("Slacker's time shows little change due to the absence of [a] sharing
  mechanism", Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Set

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.docker.daemon import CONTAINER_START_COST_S
from repro.net.link import Link
from repro.vfs.inode import Inode
from repro.vfs.overlay import OverlayMount
from repro.vfs.tree import FileSystemTree
from repro.workloads.corpus import GeneratedImage

#: ext4 block size on the virtual device.
FS_BLOCK_SIZE = 4096

#: NFS read transfer unit (rsize); contiguous blocks coalesce into
#: requests of this size.
NFS_RSIZE = 64 * 1024

#: Filesystem metadata read amplification: inode tables, directory
#: blocks, extent trees fetched alongside data.
META_BLOCKS_PER_FILE = 3

#: Cloning a device snapshot and registering the container (the part of
#: Slacker that is genuinely fast).
SNAPSHOT_CLONE_COST_S = 0.18


@dataclass
class SlackerStats:
    """Per-container lazy-pull accounting."""

    files_fetched: int = 0
    blocks_fetched: int = 0
    requests: int = 0
    bytes_fetched: int = 0


class SlackerMount(OverlayMount):
    """A container filesystem backed by a lazily-populated block device."""

    def __init__(self, image_tree: FileSystemTree, link: Link) -> None:
        super().__init__([image_tree])
        self.link = link
        self.clock = link.clock
        self.slacker_stats = SlackerStats()
        self._resident: Set[int] = set()

    def _materialize(self, node: Inode, resolved: Sequence[str]):
        if node.ino in self._resident:
            return node
        # First touch: pull the file's data blocks plus metadata blocks
        # over NFS, uncompressed, coalesced into rsize-unit requests.
        assert node.blob is not None
        data_blocks = -(-max(node.blob.size, 1) // FS_BLOCK_SIZE)
        total_blocks = data_blocks + META_BLOCKS_PER_FILE
        payload = total_blocks * FS_BLOCK_SIZE
        requests = -(-payload // NFS_RSIZE)
        for index in range(requests):
            piece = min(NFS_RSIZE, payload - index * NFS_RSIZE)
            yield from self.link.transfer_gen(piece, "slacker-block-read")
        self._resident.add(node.ino)
        self.slacker_stats.files_fetched += 1
        self.slacker_stats.blocks_fetched += total_blocks
        self.slacker_stats.requests += requests
        self.slacker_stats.bytes_fetched += payload
        return node


class SlackerDriver:
    """Deploys containers from per-container lazy block devices."""

    def __init__(self, clock: SimClock, link: Link) -> None:
        self.clock = clock
        self.link = link
        #: Flattened image trees standing in for the shared-storage device
        #: images (provisioned out-of-band, like Slacker's NFS server).
        self._device_images: Dict[str, FileSystemTree] = {}

    def provision_image(self, generated: GeneratedImage) -> None:
        """Place an image on the shared storage server (out-of-band)."""
        self._device_images[generated.reference] = (
            generated.image.flatten().freeze()
        )

    def has_image(self, reference: str) -> bool:
        return reference in self._device_images

    def deploy(self, reference: str) -> SlackerMount:
        """Clone a snapshot and start a container (the pull phase)."""
        tree = self._device_images.get(reference)
        if tree is None:
            raise NotFoundError(f"image not provisioned: {reference!r}")
        # Snapshot clone + container start; no image data moves yet, and
        # nothing is shared with previously-deployed containers.
        self.clock.advance(SNAPSHOT_CLONE_COST_S, "slacker-clone")
        self.clock.advance(CONTAINER_START_COST_S, "slacker-start")
        return SlackerMount(tree, self.link)
