"""The Gear Converter.

"Gear Converter is responsible for automatically building a Gear image
from a Docker image.  It is in Docker Registry.  When a regular image
arrives, Gear Converter first retrieves the manifest of the image to
obtain information about the image's layers.  Since a Docker image is
stored as compressed tarballs, the converter decompresses and then saves
the layers starting from the bottom layer to the top layer.  Finally, the
converter traverses the re-constructed file system, and builds the Gear
index and Gear files." (§III-B)

Cost model (drives Fig. 6): registry-disk reads of the compressed layers,
writes of the unpacked tree, a per-node traversal cost, re-reads of file
contents for MD5 fingerprinting, and writes of the new (deduplicated)
Gear files.  Per-file operations dominate for container images because
"files are usually small (less than 1 MB)", which is exactly why the
paper finds conversion time proportional to image size/file count, and
why SSDs cut it sharply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.clock import SimClock
from repro.docker.image import Image
from repro.docker.registry import DockerRegistry
from repro.gear.fingerprint import CollisionTracker
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.registry import GearRegistry
from repro.storage.disk import Disk
from repro.vfs.inode import Inode


@dataclass
class ConversionReport:
    """Outcome and cost breakdown of one image conversion."""

    reference: str
    duration_s: float
    image_bytes: int
    file_count: int
    node_count: int
    gear_files_new: int
    gear_files_deduped: int
    index_bytes: int
    collisions: int


class GearConverter:
    """Converts Docker images to Gear images, registry-side."""

    def __init__(
        self,
        clock: SimClock,
        docker_registry: DockerRegistry,
        gear_registry: GearRegistry,
        *,
        disk: Optional[Disk] = None,
    ) -> None:
        self.clock = clock
        self.docker_registry = docker_registry
        self.gear_registry = gear_registry
        self.disk = disk if disk is not None else Disk(clock)
        self.collision_tracker = CollisionTracker()

    def convert(self, reference: str) -> Tuple[GearIndex, ConversionReport]:
        """Convert the referenced image; store index + files registry-side.

        The conversion "is performed only once … in advance", so its cost
        never lands on a client's deployment path.  The regular image
        stays beside its index, ``{name}.gear:{tag}`` (§IV's optional
        removal of it is left out).
        """
        timer = self.clock.timer()
        manifest = self.docker_registry.get_manifest(reference)
        image = Image(
            manifest.name,
            manifest.tag,
            [self.docker_registry.get_layer(d) for d in manifest.layer_digests],
            manifest.config,
        )

        # 1. Read the compressed layer tarballs off the registry disk and
        #    unpack them bottom-up.
        self.disk.read(
            image.compressed_size,
            file_ops=len(image.layers),
            label="read-layers",
        )
        tree = image.flatten()

        # 2. Traverse the reconstructed filesystem once: every node is an
        #    index row, and every regular file is read, fingerprinted and
        #    collected as a Gear file in the same walk.
        gear_files: Dict[str, GearFile] = {}
        file_bytes = 0

        def identity_of(node: Inode) -> str:
            nonlocal file_bytes
            blob = node.blob
            assert blob is not None
            file_bytes += blob.size
            identity, _ = self.collision_tracker.register(blob)
            if identity not in gear_files:
                gear_files[identity] = GearFile(identity=identity, blob=blob)
            return identity

        index = GearIndex.from_tree(
            f"{image.name}.gear",
            image.tag,
            tree,
            config=image.config,
            identity_of=identity_of,
        )
        node_count = len(index.archive)
        file_count = len(index.entries)
        self.disk.write(
            image.uncompressed_size, file_ops=node_count, label="unpack-layers"
        )
        self.disk.read(file_bytes, file_ops=file_count, label="fingerprint-scan")

        # 3. Store new Gear files (deduplicated against the registry pool).
        new_files = 0
        deduped = 0
        new_bytes = 0
        for gear_file in gear_files.values():
            if self.gear_registry.upload(gear_file):
                new_files += 1
                new_bytes += gear_file.size
            else:
                deduped += 1
        self.disk.write(new_bytes, file_ops=new_files, label="store-gear-files")

        # 4. Publish the index as a single-layer image: its archive.
        index_image = index.to_image()
        index_bytes = index_image.uncompressed_size
        self.disk.write(index_bytes, file_ops=1, label="store-index")
        self.docker_registry.push_image(index_image)

        report = ConversionReport(
            reference=reference,
            duration_s=timer.elapsed(),
            image_bytes=image.uncompressed_size,
            file_count=file_count,
            node_count=node_count,
            gear_files_new=new_files,
            gear_files_deduped=deduped,
            index_bytes=index_bytes,
            collisions=self.collision_tracker.collisions_detected,
        )
        return index, report
