"""The Gear Driver: client-side deployment of Gear containers.

Implements the three-level storage structure of §III-D1:

* level 1 — a :class:`~repro.gear.pool.SharedFilePool` of Gear files
  shared by every image on the node;
* level 2 — live Gear index trees, one per deployed image;
* level 3 — per-container writable "diff" trees.

Deploying a container pulls only the (tiny) index image through the stock
Docker daemon, instantiates the index at level 2, and mounts a
:class:`~repro.gear.viewer.GearFileViewer` over it; Gear files arrive on
demand during the run phase.  "It decouples life cycles of container
instances, images, and Gear files": deleting a container drops only its
level-3 diff; deleting an image drops its level-2 index while its files
stay cached at level 1 for other images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import Process, SimClock
from repro.common.errors import GearError, NotFoundError, ReproError
from repro.gear.bigfile import ChunkFetchStats
from repro.docker.container import ContainerState
from repro.docker.daemon import (
    CONTAINER_DESTROY_BASE_S,
    CONTAINER_START_COST_S,
    INODE_TEARDOWN_COST_S,
    DockerDaemon,
)
from repro.gear.gearfile import GearFile
from repro.gear.index import GearFileEntry, GearIndex
from repro.gear.journal import IntentJournal
from repro.gear.pool import SharedFilePool
from repro.gear.prefetch import StartupProfile, replay_profile
from repro.gear.recovery import RecoveryReport, fsck
from repro.gear.viewer import GearFileViewer
from repro.net.faults import CrashInjector, CrashPlan
from repro.net.transport import RpcTransport
from repro.vfs.tree import FileSystemTree

_gear_container_ids = itertools.count(1)

#: Suffix the converter appends to index image names; the degraded path
#: strips it to find the original image in the Docker registry.
_GEAR_SUFFIX = ".gear"


@dataclass
class GearDeployReport:
    """Cost breakdown of one Gear container deployment.

    The degradation fields are filled in *after* deploy returns: lazy
    faults happen during the run phase, and the driver keeps the report
    per reference so the degraded path can record itself on it.
    """

    reference: str
    pull_s: float = 0.0
    index_bytes: int = 0
    index_reused: bool = False
    #: Virtual seconds from deploy start until the startup read set was
    #: fully satisfied (time-to-ready).  Filled in after the run phase —
    #: like the degradation fields, readiness happens while the task is
    #: already executing, so the bench helpers record it on the report
    #: the driver keeps per reference.
    ready_s: float = 0.0
    #: True once any file was served through the degraded path.
    degraded: bool = False
    #: Files served by falling back to a regular Docker layer pull.
    degraded_fetches: int = 0
    #: Virtual seconds spent pulling the original image for fallback.
    fallback_pull_s: float = 0.0
    #: True when an injected crash killed a deployment of this reference.
    crashed: bool = False
    #: Which crash point fired ("" when not crashed).
    crash_point: str = ""
    #: Virtual time of death.
    crash_at_s: float = 0.0
    #: True when this deployment ran against a recovered (post-fsck) store.
    resumed: bool = False
    #: Virtual seconds the recovery pass took before this deployment.
    recovery_s: float = 0.0
    #: Staged files recovery promoted without re-fetching (rolled forward
    #: plus salvaged).
    recovered_files: int = 0


class GearContainer:
    """A container whose root filesystem is a Gear File Viewer mount."""

    def __init__(self, index: GearIndex, viewer: GearFileViewer) -> None:
        self.id = f"gctr-{next(_gear_container_ids):06d}"
        self.index = index
        self.mount = viewer
        self.state = ContainerState.CREATED

    def start(self) -> None:
        if self.state not in (ContainerState.CREATED, ContainerState.STOPPED):
            raise GearError(f"cannot start container in state {self.state.value}")
        self.state = ContainerState.RUNNING

    def stop(self) -> None:
        if self.state is not ContainerState.RUNNING:
            raise GearError(f"cannot stop container in state {self.state.value}")
        self.state = ContainerState.STOPPED

    def __repr__(self) -> str:
        return f"GearContainer({self.id}, {self.index.reference!r}, {self.state.value})"


class GearDriver:
    """Deploys and manages Gear containers on one client node."""

    def __init__(
        self,
        clock: SimClock,
        daemon: DockerDaemon,
        transport: RpcTransport,
        *,
        pool: Optional[SharedFilePool] = None,
    ) -> None:
        self.clock = clock
        self.daemon = daemon
        self.transport = transport
        self.pool = pool if pool is not None else SharedFilePool()
        #: The node's write-ahead intent journal; every viewer mounted by
        #: this driver records admissions through it (DESIGN.md §9).
        self.journal = IntentJournal(clock)
        #: Armed crash injector (crash-consistency experiments only).
        self.crash: Optional[CrashInjector] = None
        #: Node-wide chunk-path accounting, the testbed's ``chunk``
        #: metrics group.  The driver mounts whole-file viewers, so only a
        #: chunked viewer handed these stats ever counts into them.
        self.chunk_stats = ChunkFetchStats()
        #: The report of the most recent :meth:`recover` pass.
        self.last_recovery: Optional[RecoveryReport] = None
        #: Level 2: one live index per deployed image reference.
        self._indexes: Dict[str, GearIndex] = {}
        self._containers: Dict[str, GearContainer] = {}
        #: Latest deploy report per reference (degradations land here).
        self._reports: Dict[str, GearDeployReport] = {}
        #: Flattened original-image trees pulled by the degraded path.
        self._fallback_trees: Dict[str, FileSystemTree] = {}

    # -- image-level operations ------------------------------------------

    def pull_index(self, reference: str) -> GearDeployReport:
        """Pull the index image and set up level 2 for it."""
        report = GearDeployReport(reference=reference)
        if reference in self._indexes:
            report.index_reused = True
            self._reports[reference] = report
            return report
        timer = self.clock.timer()
        with self.clock.span("pull_index", ref=reference) as span:
            pull = self.daemon.pull(reference)
            image = self.daemon.get_image(reference)
            if not image.gear_index:
                raise GearError(
                    f"{reference!r} is a regular image; use the Docker daemon "
                    f"to deploy it, or convert it to a Gear image first"
                )
            index = GearIndex.from_image(image)
            self._indexes[reference] = index
            span.annotate(bytes=pull.bytes_downloaded)
        report.pull_s = timer.elapsed()
        report.index_bytes = pull.bytes_downloaded
        self._reports[reference] = report
        return report

    def deploy_report(self, reference: str) -> Optional[GearDeployReport]:
        """The most recent deploy report for ``reference`` (if any)."""
        return self._reports.get(reference)

    def get_index(self, reference: str) -> GearIndex:
        try:
            return self._indexes[reference]
        except KeyError:
            raise NotFoundError(f"gear image not deployed: {reference!r}") from None

    def remove_image(self, reference: str) -> None:
        """Drop the level-2 index; cached files stay shareable at level 1.

        Unlinks the index's materialized files so the pool sees their
        ``nlink`` drop back — files "not linked to Gear indexes are
        candidates for replacement".
        """
        index = self._indexes.pop(reference, None)
        if index is None:
            raise NotFoundError(f"gear image not deployed: {reference!r}")
        # The table itself stays: a container still mounted over the
        # index keeps reading what it linked.
        for inode in index.links.values():
            inode.nlink -= 1
        if self.daemon.has_image(reference):
            self.daemon.remove_image(reference)

    # -- container-level operations -----------------------------------------

    def create_container(self, reference: str) -> GearContainer:
        """Mount a whole-file viewer over the image's index and a fresh diff."""
        index = self.get_index(reference)
        viewer = GearFileViewer(
            index,
            self.pool,
            transport=self.transport,
            disk=self.daemon.disk,
            fallback=self._make_fallback(reference),
            journal=self.journal,
            crash=self.crash,
        )
        container = GearContainer(index, viewer)
        self._containers[container.id] = container
        return container

    # -- crash consistency -------------------------------------------------

    def arm_crash(self, plan: CrashPlan) -> CrashInjector:
        """Arm a crash plan: the next matching admission kills the client.

        Containers created while armed carry the injector; the crash
        surfaces as :class:`~repro.common.errors.ClientCrash` out of
        whatever read triggered the fatal fault, leaving pool, journal,
        and index state exactly as they were at that instant.
        """
        self.crash = CrashInjector(self.clock, plan)
        return self.crash

    def disarm_crash(self) -> Optional[CrashInjector]:
        """Detach the injector (fired or not); returns it for inspection."""
        injector, self.crash = self.crash, None
        return injector

    def recover(self) -> RecoveryReport:
        """The client restarted after a crash: fsck the local store.

        Running containers died with the process — they come back
        ``STOPPED``, keeping their level-3 diffs (which survive on disk
        and are audited by the pass).  The pool, the live indexes, their
        hard-link counts, and the journal are repaired in place; the
        returned report is also kept as :attr:`last_recovery` so deploy
        reports can cite it.
        """
        for container in self._containers.values():
            if container.state is ContainerState.RUNNING:
                container.stop()
        diffs = [
            container.mount.upper for container in self._containers.values()
        ]
        report = fsck(
            self.pool,
            list(self._indexes.values()),
            diffs,
            self.journal,
            clock=self.clock,
            disk=self.daemon.disk,
        )
        self.last_recovery = report
        return report

    # -- degraded mode -----------------------------------------------------

    def _make_fallback(self, reference: str):
        """Degraded-mode fetcher for viewers mounted from ``reference``.

        When the Gear registry is unreachable past the retry budget, the
        remaining files are pulled as a *regular layer pull* through the
        Docker registry (which the fault plan may leave healthy — the
        two registries are distinct services even when co-located).  The
        whole original image is pulled once, flattened, and then serves
        every later degraded fault locally; files already cached in the
        shared pool keep being served stale without any network at all.
        """
        base_reference = self._base_reference(reference)
        if base_reference is None:
            return None

        def fetch(entry: GearFileEntry) -> Optional[GearFile]:
            tree = self._fallback_trees.get(reference)
            if tree is None:
                timer = self.clock.timer()
                try:
                    self.daemon.pull(base_reference)
                    tree = self.daemon.get_image(base_reference).flatten()
                except ReproError:
                    # Docker registry is down too (or the original image
                    # was deleted after conversion): nothing we can do.
                    return None
                self._fallback_trees[reference] = tree
                report = self._reports.get(reference)
                if report is not None:
                    report.fallback_pull_s += timer.elapsed()
            try:
                blob = tree.read_blob(entry.path)
            except ReproError:
                return None
            report = self._reports.get(reference)
            if report is not None:
                report.degraded = True
                report.degraded_fetches += 1
            return GearFile(identity=entry.identity, blob=blob)

        return fetch

    @staticmethod
    def _base_reference(reference: str) -> Optional[str]:
        """Map an index reference back to its original image reference."""
        name, _, tag = reference.partition(":")
        if not name.endswith(_GEAR_SUFFIX) or not tag:
            return None
        return f"{name[: -len(_GEAR_SUFFIX)]}:{tag}"

    def start_container(self, container: GearContainer) -> None:
        # The label carries no container id: ids come from a global
        # counter, and id-bearing labels would break byte-identical
        # double runs (the trace-determinism gate).
        with self.clock.span("start", ref=container.index.reference):
            self.clock.advance(CONTAINER_START_COST_S, "container-start")
        container.start()

    def deploy(self, reference: str) -> "tuple[GearContainer, GearDeployReport]":
        """The full §III-D flow: pull index, mount, start.

        Gear files are *not* fetched here — that is the whole point; they
        fault in lazily as the workload touches them (or stream in beside
        it, from :meth:`spawn_prefetch`).
        """
        report = self.pull_index(reference)
        container = self.create_container(reference)
        self.start_container(container)
        return container, report

    def spawn_prefetch(
        self,
        container: GearContainer,
        profile: StartupProfile,
    ) -> Process:
        """Replay ``profile`` through the container's mount concurrently.

        Requires a :class:`~repro.common.clock.SimScheduler` attached to
        the clock; returns the background process so callers can join it
        (its ``result`` is the :class:`~repro.gear.prefetch.PrefetchReport`).
        Downloads overlap the startup trace — concurrent faults on the
        same file coalesce through the pool's single-flight registry.
        """
        scheduler = self.clock.scheduler
        if scheduler is None:
            raise GearError(
                "spawn_prefetch needs an active SimScheduler on the clock; "
                "use Prefetcher.prefetch for the sequential (blocking) path"
            )
        return scheduler.spawn(
            replay_profile,
            container.mount,
            profile,
            name=f"prefetch:{container.index.reference}",
        )

    def destroy_container(self, container: GearContainer) -> float:
        """Stop and remove a container: only its level-3 diff dies.

        Teardown cost scales with *touched* inodes only — Gear "only
        needs to destroy the inode caches of required files" (§V-F).
        """
        if container.state is ContainerState.RUNNING:
            container.stop()
        teardown = (
            CONTAINER_DESTROY_BASE_S
            + container.mount.stats.inodes_touched * INODE_TEARDOWN_COST_S
        )
        self.clock.advance(teardown, "container-destroy")
        container.state = ContainerState.DELETED
        self._containers.pop(container.id, None)
        return teardown

    def containers(self) -> List[GearContainer]:
        return list(self._containers.values())

    def __repr__(self) -> str:
        return (
            f"GearDriver(images={len(self._indexes)}, "
            f"containers={len(self._containers)}, pool={self.pool!r})"
        )
