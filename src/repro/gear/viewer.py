"""The Gear File Viewer.

"We develop Gear File Viewer based on Overlay2 to provide the root file
system views for containers" (§III-D2).  The viewer union-mounts the
read-only index (level 2) under a writable diff (level 3).  Irregular
files — directories, symlinks — are served straight from the index.  A
read of a regular file whose index entry is still a fingerprint stub
triggers a *fault*:

1. look the fingerprint up in the shared cache (level 1); on a hit, the
   cached file is hard-linked into the index — an entry of the index's
   link table, which the mount shows in place of the stub — so
   subsequent reads "can serve the following requests for the same file
   from the index without searching the first layer again";
2. on a miss, download the Gear file from the Gear Registry (paying
   simulated network costs), insert it into the cache, and link it.

This mirrors the prototype's modified ``ovl_lookup_single()`` that pauses
on a fingerprint file and asks a user-mode helper to make the target
readable (§IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.blob import Blob
from repro.common.clock import NULL_SPAN, SimClock
from repro.common.errors import (
    GearError,
    IntegrityError,
    NotFoundError,
    TimeoutError,
    UnavailableError,
)
from repro.docker.daemon import DECOMPRESS_BPS
from repro.gear.gearfile import GearFile
from repro.gear.index import GearFileEntry, GearIndex, STUB_XATTR
from repro.gear.journal import IntentJournal
from repro.gear.pool import SharedFilePool
from repro.gear.registry import GearRegistry
from repro.net.faults import CrashInjector, CrashPoint
from repro.net.transport import RpcTransport
from repro.obs.metrics import MetricSet
from repro.storage.disk import Disk
from repro.vfs.inode import Inode
from repro.vfs.overlay import OverlayMount
from repro.vfs.tree import FileSystemTree

#: A degraded-mode supplier of Gear files when the registry is out of
#: reach: given the index entry, return a verified file or ``None``.
FallbackFetcher = Callable[[GearFileEntry], Optional[GearFile]]


@dataclass
class FaultStats(MetricSet):
    """What lazy retrieval did for one mount."""

    faults: int = 0
    cache_hits: int = 0
    remote_fetches: int = 0
    remote_bytes: int = 0
    linked_bytes: int = 0
    #: Downloads whose content failed fingerprint verification.
    integrity_failures: int = 0
    #: Re-downloads issued after quarantining a corrupt payload.
    refetches: int = 0
    #: Files served through the degraded path (registry unreachable).
    degraded_fetches: int = 0


class GearFileViewer(OverlayMount):
    """An overlay mount whose lower layer is a Gear index."""

    #: How many times a corrupt download is quarantined and re-fetched
    #: before the fault is surfaced as an :class:`IntegrityError`.
    INTEGRITY_REFETCH_LIMIT = 2

    def __init__(
        self,
        index: GearIndex,
        pool: SharedFilePool,
        *,
        transport: Optional[RpcTransport] = None,
        upper: Optional[FileSystemTree] = None,
        disk: Optional[Disk] = None,
        fallback: Optional[FallbackFetcher] = None,
        integrity_refetch_limit: Optional[int] = None,
        journal: Optional[IntentJournal] = None,
        crash: Optional[CrashInjector] = None,
    ) -> None:
        super().__init__([index.tree], upper)
        self.index = index
        self.pool = pool
        self.transport = transport
        self.disk = disk
        self.fallback = fallback
        self.journal = journal
        self.crash = crash
        self.integrity_refetch_limit = (
            integrity_refetch_limit
            if integrity_refetch_limit is not None
            else self.INTEGRITY_REFETCH_LIMIT
        )
        self.fault_stats = FaultStats()
        #: The clock fault spans are recorded on (offline mounts — no
        #: transport, no disk — have none and trace nothing).
        self.clock: Optional[SimClock] = (
            transport.link.clock
            if transport is not None
            else (disk.clock if disk is not None else None)
        )

    def _traced(self) -> bool:
        """Is a tracer attached to the clock faults are recorded on?"""
        return self.clock is not None and self.clock.tracer is not None

    def _span(self, name: str, **labels):
        return self.clock.span(name, **labels) if self._traced() else NULL_SPAN

    # -- the fault path ----------------------------------------------------

    def _reveal(self, node: Inode, path: str) -> Inode:
        """A stub the index has linked a pool file over shows as that
        file: to every lookup, walk, digest and touched-inode count."""
        if STUB_XATTR in node.meta.xattrs:
            return self.index.links.get(path, node)
        return node

    def _materialize(self, node: Inode, resolved: Sequence[str]):
        if STUB_XATTR not in node.meta.xattrs:
            return node
        path = "/" + "/".join(resolved)
        entry = self.index.entries.get(path)
        if entry is None:
            raise GearError(f"stub at {path!r} has no index entry")
        # Telemetry is decided once per fault: detached, no phase below
        # builds a span, an instant or its labels.
        traced = self._traced()
        self.fault_stats.faults += 1
        inode = self.pool.get(entry.identity)
        if inode is None:
            # Another process (a concurrent prefetcher or a sibling
            # container) may already be downloading this identity; wait
            # for its fetch to land rather than duplicating the bytes.
            inflight = self.pool.inflight.pending(entry.identity)
            if inflight is not None:
                with self._span("fetch_wait", fp=entry.identity[:12]):
                    yield from inflight.wait_gen()
                inode = self.pool.get(entry.identity)
        if inode is not None:
            self.fault_stats.cache_hits += 1
            if traced:
                self.clock.instant("cache_hit", fp=entry.identity[:12])
        elif traced:
            with self.clock.span("fetch_file", fp=entry.identity[:12]) as span:
                inode = yield from self._fault_in(entry)
                span.annotate(bytes=inode.size)
        else:
            inode = yield from self._fault_in(entry)
        if traced:
            with self.clock.span("link", fp=entry.identity[:12]):
                self._link(entry, inode)
        else:
            self._link(entry, inode)
        return inode

    def _link(self, entry: GearFileEntry, inode: Inode) -> None:
        """Hard-link the real file over the stub so the index serves it
        directly from now on.  Two-phase: the link intent is journaled
        before the link, the commit record after — a crash between the
        halves leaves a classifiable open-link record."""
        path = entry.path  # the index's own string, not the lookup's copy
        journal = self.journal
        if journal is not None:
            journal.link_begin(entry.identity, path, self.index.reference)
        inode.meta = inode.meta.with_mode(entry.mode)
        self.index.link(path, inode)
        crash = self.crash  # checkpoints cost nothing unless a plan is armed
        if crash is not None and crash.take(CrashPoint.MID_LINK):
            crash.fire(CrashPoint.MID_LINK)
        if self.disk is not None:
            self.disk.metadata_op(1, label="index-link", deferred=True)
        self.fault_stats.linked_bytes += inode.size
        if journal is not None:
            journal.link_commit(entry.identity, path, self.index.reference)

    def _fault_in(self, entry: GearFileEntry):
        """Download, verify, and cache one Gear file (single-flight).

        Under a scheduler the fetch is claimed in the pool's inflight
        table so concurrent faults on the same identity wait for this
        download instead of re-paying the wire; sequentially the table
        is never consulted mid-call and behaviour is byte-identical.
        """
        clock = self.transport.link.clock if self.transport is not None else None
        announce = self.pool.inflight.claim(entry.identity, clock)
        try:
            if self.journal is not None:
                self.journal.fetch_begin(entry.identity)
            crash = self.crash
            if crash is not None and crash.take(CrashPoint.MID_FETCH):
                yield from self._crash_mid_fetch(entry)
            gear_file = yield from self._fetch_remote(entry)
            inode = self.pool.prepare(gear_file)
            if crash is not None and crash.take(CrashPoint.POST_FETCH):
                crash.fire(CrashPoint.POST_FETCH)
            if self.journal is not None:
                self.journal.fetch_commit(entry.identity)
            if crash is not None and crash.take(CrashPoint.MID_COMMIT):
                crash.fire(CrashPoint.MID_COMMIT)
            inode = self.pool.commit(entry.identity)
            self.fault_stats.remote_fetches += 1
            self.fault_stats.remote_bytes += gear_file.compressed_size
            # Gear files travel compressed (§III-C): decompress, then
            # store into the level-1 cache — one combined clock advance
            # (same total virtual cost, half the scheduler suspensions).
            if self.disk is not None:
                self.disk.write(
                    gear_file.size,
                    file_ops=1,
                    extra_s=gear_file.size / DECOMPRESS_BPS,
                    label="gear-gunzip+pool-store",
                    deferred=True,
                )
            return inode
        finally:
            yield from self.pool.inflight.release(entry.identity, announce)

    def _crash_mid_fetch(self, entry: GearFileEntry):
        """The armed ``MID_FETCH`` crash: die partway through the wire
        transfer.

        It charges ``partial_fraction`` of the nominal transfer time and
        stages the torn partial temp file (junk bytes that cannot hash to
        the identity) exactly as an interrupted download leaves one on a
        real client — that is what recovery's re-verification must drop.
        """
        crash = self.crash
        partial = int(entry.size * crash.plan.partial_fraction)
        if self.transport is not None and partial > 0:
            link = self.transport.link
            yield from link.clock.advance_gen(
                link.transfer_time(partial),
                f"crash-partial-fetch:{entry.identity[:12]}",
            )
        torn = _torn_payload(entry.identity, partial)
        self.pool.prepare(
            GearFile(identity=entry.identity, blob=torn), verified=False
        )
        crash.fire(CrashPoint.MID_FETCH)

    def _fetch_remote(self, entry: GearFileEntry):
        identity = entry.identity
        if self.transport is None:
            raise NotFoundError(
                f"gear file {identity!r} not cached and no registry transport"
            )
        refetches_left = self.integrity_refetch_limit
        while True:
            try:
                gear_file = yield from self.transport.call_gen(
                    GearRegistry.ENDPOINT_NAME,
                    "download",
                    identity,
                    label=f"gear-fetch:{identity[:12]}",
                )
            except (TimeoutError, UnavailableError):
                # The registry is past the retry budget; try the
                # degraded path before surfacing the outage.
                degraded = yield from self._fetch_degraded(entry)
                if degraded is None:
                    raise
                return degraded
            # Content addressing doubles as an integrity check: a fetched
            # file must hash to the name it was requested by.  Unique IDs
            # (collision-handled files, "uid-…") opted out of fingerprint
            # naming and are exempt (§III-B).
            if identity.startswith("uid-") or (
                gear_file.blob.fingerprint == identity
            ):
                return gear_file
            # Corrupt payload: quarantine it (never cache poison) and
            # re-fetch rather than failing the read outright.  An
            # HA-aware transport also wants to know — wrong bytes that
            # passed the wire checksum mean the *replica* is lying, so
            # it demotes the server that sent them before the re-fetch
            # picks a target.
            self.fault_stats.integrity_failures += 1
            notify = getattr(self.transport, "report_corrupt_payload", None)
            if notify is not None:
                notify(identity)
            self.pool.quarantine(identity)
            if refetches_left <= 0:
                raise IntegrityError(
                    f"gear file {identity!r} failed verification "
                    f"{self.fault_stats.integrity_failures} time(s): content "
                    f"hashes to {gear_file.blob.fingerprint!r}"
                )
            refetches_left -= 1
            self.fault_stats.refetches += 1

    def _fetch_degraded(self, entry: GearFileEntry):
        """Last resort when the Gear registry is unreachable.  The
        fallback is a regular Docker pull that still blocks the old way,
        so it runs on the caller's worker thread."""
        if self.fallback is None:
            return None
        gear_file = yield from self.clock.on_worker(self.fallback, entry)
        if gear_file is None:
            return None
        if not entry.identity.startswith("uid-") and (
            gear_file.blob.fingerprint != entry.identity
        ):
            raise IntegrityError(
                f"degraded fetch for {entry.identity!r} failed verification"
            )
        self.fault_stats.degraded_fetches += 1
        return gear_file

    # -- helpers --------------------------------------------------------------

    def file_size(self, path: str) -> int:
        """Size of the regular file at ``path`` without faulting it in.

        Stat-like operations must not trigger downloads; the index holds
        the true size in its entry metadata.
        """
        node, resolved = self._resolve(path)
        if STUB_XATTR in node.meta.xattrs:
            entry = self.index.entries.get("/" + "/".join(resolved))
            if entry is not None:
                return entry.size
        return node.size

    def prefetch(self, path: str) -> None:
        """Fault a file in without reading it (warm-up helper)."""
        node, resolved = self._resolve(path)
        if node.is_file:
            self._drive(self._materialize(node, resolved))

    def resident_bytes(self) -> int:
        """Bytes of index files already materialized (linked over their
        stubs)."""
        return sum(inode.size for inode in self.index.links.values())

    def _content_token(self, path: str, node: Inode) -> str:
        """A stub digests as the fingerprint its index entry promises, a
        materialized file as the fingerprint of its actual bytes: content
        addressing makes the two interchangeable, so :meth:`fs_digest`
        captures *what the container reads*, not how lazily it arrived."""
        if STUB_XATTR in node.meta.xattrs:
            entry = self.index.entries.get(path)
            return entry.identity if entry is not None else ""
        return super()._content_token(path, node)

    def __repr__(self) -> str:
        return f"GearFileViewer({self.index.reference!r})"


def _torn_payload(identity: str, size: int) -> Blob:
    """Deterministic junk standing in for a half-downloaded file."""
    if size <= 0:
        return Blob.from_bytes(b"")
    stamp = f"torn:{identity}:".encode()
    return Blob.from_bytes((stamp * (size // len(stamp) + 1))[:size])
