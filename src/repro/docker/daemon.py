"""The Docker daemon (client-side engine).

Implements the two deployment steps of §II-C: (1) retrieve the manifest
and download layers "that are not yet present at the local storage", and
(2) configure and launch the container instance through the graph driver.
Also implements ``commit`` (writable layer → new read-only layer, §II-A)
and ``push``.

Cost model
----------
* network: every manifest/layer transfer goes through the RPC transport
  and pays link costs;
* extraction: downloaded layers are decompressed and written to local
  storage at the client disk's sequential rate, plus a per-file metadata
  cost — this is why Docker's deployment time does not collapse to pure
  transfer time even on a fast network (§V-E2 observes 6.08 s average for
  Tomcat at 1000 Mbps, far above the raw transfer time);
* container start: a fixed runtime setup cost (namespace/cgroup/mount
  configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.docker.container import Container, ContainerState
from repro.docker.graphdriver import Overlay2Driver
from repro.docker.image import Image, Layer
from repro.docker.registry import DockerRegistry
from repro.net.transport import RpcTransport
from repro.storage.disk import Disk
from repro.vfs.tar import LayerArchive

#: Seconds to configure and start a container process (namespaces,
#: cgroups, mount syscalls).  Measured sub-second on the paper's testbed.
CONTAINER_START_COST_S = 0.35

#: Single-threaded gunzip throughput (uncompressed bytes/s).  Registry
#: payloads travel compressed (§II-B, §III-C), so every pull pays this
#: CPU cost on top of transfer and disk time.
DECOMPRESS_BPS = 150e6

#: Seconds to tear a container down (kill, unmount, cgroup removal),
#: excluding the inode-cache-dependent part modelled per-mount.
CONTAINER_DESTROY_BASE_S = 0.12

#: Per-inode cache teardown cost at unmount.  Figure 11(b)'s explanation:
#: "Gear spends less time unmounting the file system, because it only
#: needs to destroy the inode caches of required files."
INODE_TEARDOWN_COST_S = 0.00002


@dataclass
class PullReport:
    """What one ``pull`` did."""

    reference: str
    manifest_bytes: int = 0
    layers_downloaded: int = 0
    layers_reused: int = 0
    bytes_downloaded: int = 0
    duration_s: float = 0.0
    already_local: bool = False


class DockerDaemon:
    """The client-side engine: local images, pull/run/commit/push."""

    def __init__(
        self,
        clock: SimClock,
        transport: RpcTransport,
        *,
        disk: Optional[Disk] = None,
    ) -> None:
        self.clock = clock
        self.transport = transport
        self.driver = Overlay2Driver()
        self.disk = disk if disk is not None else Disk(clock)
        self._images: Dict[str, Image] = {}
        self._containers: Dict[str, Container] = {}

    # -- local image store ---------------------------------------------------

    def has_image(self, reference: str) -> bool:
        return reference in self._images

    def get_image(self, reference: str) -> Image:
        try:
            return self._images[reference]
        except KeyError:
            raise NotFoundError(f"image not pulled: {reference!r}") from None

    def remove_image(self, reference: str) -> None:
        """Forget an image (its layers stay in the driver for reuse)."""
        if reference not in self._images:
            raise NotFoundError(f"image not pulled: {reference!r}")
        del self._images[reference]

    def add_local_image(self, image: Image) -> None:
        """Install a locally-built image (``docker build``'s final step)."""
        for layer in image.layers:
            self.driver.register_layer(layer)
        self._images[image.reference] = image

    # -- pull ------------------------------------------------------------------

    def pull(self, reference: str) -> PullReport:
        """Download an image: manifest, then locally-missing layers."""
        timer = self.clock.timer()
        report = PullReport(reference=reference)
        if reference in self._images:
            report.already_local = True
            report.duration_s = timer.elapsed()
            return report
        manifest = self.transport.call(
            DockerRegistry.ENDPOINT_NAME, "get_manifest", reference,
            label=f"pull-manifest:{reference}",
        )
        report.manifest_bytes = manifest.size_bytes
        layers: List[Layer] = []
        for digest in manifest.layer_digests:
            if self.driver.has_layer(digest):
                layers.append(self.driver.get_layer(digest))
                report.layers_reused += 1
                continue
            layer = self.transport.call(
                DockerRegistry.ENDPOINT_NAME, "get_layer", digest,
                label=f"pull-layer:{digest.short()}",
            )
            # Decompress, then extract to local storage.
            self.clock.advance(
                layer.uncompressed_size / DECOMPRESS_BPS,
                f"gunzip:{digest.short()}",
            )
            self.disk.write(
                layer.uncompressed_size,
                file_ops=len(layer.archive),
                label=f"extract:{digest.short()}",
            )
            self.driver.register_layer(layer)
            layers.append(layer)
            report.layers_downloaded += 1
            report.bytes_downloaded += layer.compressed_size
        image = Image(
            manifest.name,
            manifest.tag,
            layers,
            manifest.config,
            gear_index=manifest.gear_index,
        )
        self._images[reference] = image
        report.duration_s = timer.elapsed()
        return report

    # -- run ---------------------------------------------------------------------

    def create_container(self, reference: str) -> Container:
        image = self.get_image(reference)
        mount = self.driver.mount(image)
        container = Container(image, mount)
        self._containers[container.id] = container
        return container

    def start_container(self, container: Container) -> None:
        self.clock.advance(CONTAINER_START_COST_S, f"start:{container.id}")
        container.start()

    def run(self, reference: str) -> Container:
        """``docker run``: create + start."""
        container = self.create_container(reference)
        self.start_container(container)
        return container

    def destroy_container(self, container: Container) -> float:
        """Stop and delete a container, paying unmount teardown costs.

        Teardown scales with the inode/dentry caches the mount built up.
        A full Overlay2 mount exposes (and the runtime's setup scans) the
        entire image tree, so the cost is charged per image file; the
        Gear driver charges only per *touched* file — the asymmetry §V-F
        measures in Fig. 11(b).
        """
        if container.state is ContainerState.RUNNING:
            container.stop()
        teardown = (
            CONTAINER_DESTROY_BASE_S
            + container.image.file_count * INODE_TEARDOWN_COST_S
        )
        self.clock.advance(teardown, f"destroy:{container.id}")
        container.delete()
        self._containers.pop(container.id, None)
        return teardown

    def containers(self) -> List[Container]:
        return list(self._containers.values())

    # -- commit / push --------------------------------------------------------------

    def commit(self, container: Container, name: str, tag: str) -> Image:
        """Turn the writable layer into a new read-only layer (§II-A)."""
        archive = LayerArchive.from_tree(container.mount.upper)
        new_layer = Layer(archive)
        self.disk.write(
            new_layer.uncompressed_size,
            file_ops=len(archive),
            label=f"commit:{name}:{tag}",
        )
        self.driver.register_layer(new_layer)
        image = Image(
            name, tag, list(container.image.layers) + [new_layer],
            container.image.config,
        )
        self._images[image.reference] = image
        return image

    def push(self, reference: str) -> int:
        """Upload an image; only layers the registry lacks travel."""
        image = self.get_image(reference)
        uploaded = 0
        for layer in image.layers:
            present = self.transport.call(
                DockerRegistry.ENDPOINT_NAME, "has_layer", layer.digest,
                label=f"push-query:{layer.digest.short()}",
            )
            if present:
                continue
            self.transport.call(
                DockerRegistry.ENDPOINT_NAME, "push_layer", layer,
                request_payload_bytes=layer.compressed_size,
                label=f"push-layer:{layer.digest.short()}",
            )
            uploaded += 1
        self.transport.call(
            DockerRegistry.ENDPOINT_NAME, "push_manifest", image.manifest(),
            request_payload_bytes=image.manifest().size_bytes,
            label=f"push-manifest:{reference}",
        )
        return uploaded

    def __repr__(self) -> str:
        return (
            f"DockerDaemon(images={len(self._images)}, "
            f"containers={len(self._containers)})"
        )
