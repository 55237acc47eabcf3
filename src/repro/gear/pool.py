"""The level-1 shared file cache.

§III-D1: "The first level is a shared cache of Gear files that belong to
different Gear images at a deployment client.  Files are deduplicated
based on their fingerprints of their contents. … users can decide how
much storage it can occupy and can apply replacement algorithms on it,
such as FIFO or LRU.  Files that are not linked to Gear indexes are
candidates for replacement."

The pool stores real file *inodes*; the Gear File Viewer hard-links them
into index trees, so an inode's ``nlink`` tells the pool whether any
index still references it (nlink 1 = pool only = evictable).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.blob import Blob
from repro.common.errors import IntegrityError, StorageError
from repro.gear.gearfile import GearFile
from repro.net.resilience import SingleFlight
from repro.obs.metrics import MetricSet
from repro.vfs.inode import FileKind, Inode


class EvictionPolicy(enum.Enum):
    """Replacement policies §III-D1 suggests for the shared cache."""

    FIFO = "fifo"
    LRU = "lru"


@dataclass
class PoolStats(MetricSet):
    """Cache accounting, registrable with the metrics registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    eviction_failures: int = 0
    quarantines: int = 0


class PartialFile:
    """A big file being fetched chunk by chunk (the chunk-granular path).

    Owned by the pool so the node lifecycle applies: :meth:`SharedFilePool.
    clear` drops every partial along with the cache (the leak fix), and
    :func:`repro.gear.recovery.fsck` can salvage verified-present chunks
    after a crash without reaching into any viewer.

    ``present`` holds chunk indexes whose bytes are on disk *and* verified
    against the manifest; ``inflight`` is the single-flight table of chunk
    indexes whose fetch is in the air; ``torn`` maps chunk index → bytes a
    mid-chunk crash left on disk (recovery drops these).
    """

    __slots__ = ("blob", "fingerprints", "present", "inflight", "torn")

    def __init__(
        self, blob: Blob, fingerprints: Tuple[str, ...] = ()
    ) -> None:
        self.blob = blob
        self.fingerprints = fingerprints
        self.present: Set[int] = set()
        self.inflight = SingleFlight()
        self.torn: Dict[int, int] = {}

    def is_complete(self) -> bool:
        return len(self.present) == len(self.blob.chunks)

    def resident_bytes(self) -> int:
        return sum(self.blob.chunks[index].size for index in self.present)


class SharedFilePool:
    """A capacity-bounded, content-addressed cache of Gear file inodes."""

    def __init__(
        self,
        *,
        capacity_bytes: Optional[int] = None,
        policy: EvictionPolicy = EvictionPolicy.LRU,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise StorageError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        #: identity → inode, in insertion/recency order: a hit under LRU
        #: re-inserts its entry at the end, eviction scans from the front.
        self._inodes: Dict[str, Inode] = {}
        self._bytes = 0
        #: identity → inode staged by :meth:`prepare` but not yet
        #: committed — the "temp file" half of the two-phase admission.
        #: Staged entries never serve :meth:`get`, never count against
        #: capacity, and are exactly what a crash leaves torn.
        self._staged: Dict[str, Inode] = {}
        self.stats = PoolStats()
        #: Identities whose last download failed verification; cleared
        #: when a verified copy finally lands.
        self._quarantined: Set[str] = set()
        #: Single-flight table, keyed by identity (and ``chunk-map:…`` for
        #: manifests): concurrent faults on one identity (a prefetcher
        #: racing the startup task) wait for the first fetch instead of
        #: duplicating the download.
        self.inflight = SingleFlight()
        #: Chunk-granular fetches in progress: identity → PartialFile.
        #: Pool-owned so :meth:`clear` cannot leak them and recovery can
        #: salvage their verified chunks (DESIGN.md §15).
        self.partials: Dict[str, PartialFile] = {}
        #: Chunk token → reference count over committed entries: the
        #: chunk-level dedup index.  A new partial pre-marks any chunk
        #: whose token is already committed, so a version-chain neighbour
        #: pays the wire only for its changed chunks.  Only the chunked
        #: read path asks, so the table is built from the committed
        #: entries by the first :meth:`has_chunk` and kept up from then
        #: on; ``None`` until that query.
        self._chunk_tokens: Optional[Dict[str, int]] = None

    def empty_copy(self) -> "SharedFilePool":
        """A new, empty pool with this pool's capacity and policy: what
        the next client node minted beside this one gets."""
        return SharedFilePool(
            capacity_bytes=self.capacity_bytes, policy=self.policy
        )

    # -- lookup ------------------------------------------------------------

    def get(self, identity: str) -> Optional[Inode]:
        """Return the cached inode, updating recency; None on miss."""
        inode = self._inodes.get(identity)
        if inode is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self.policy is EvictionPolicy.LRU:
            self._inodes[identity] = self._inodes.pop(identity)
        return inode

    def contains(self, identity: str) -> bool:
        """Existence check without hit/miss or recency side effects."""
        return identity in self._inodes

    def peek(self, identity: str) -> Optional[Inode]:
        """The committed inode without hit/miss or recency side effects.

        Maintenance view for recovery and audits; the serving path uses
        :meth:`get` so cache statistics stay honest.
        """
        return self._inodes.get(identity)

    # -- insertion -----------------------------------------------------------

    def insert(self, gear_file: GearFile) -> Inode:
        """Add a fetched Gear file to the pool, evicting if needed.

        Returns the pool's inode (existing one when the identity is
        already cached — content-addressing never stores two copies).
        One-shot composition of the two-phase :meth:`prepare` +
        :meth:`commit` admission; callers that can crash between the
        halves (the Gear File Viewer) drive the phases themselves around
        journal records.
        """
        self.prepare(gear_file)
        return self.commit(gear_file.identity)

    def prepare(self, gear_file: GearFile, *, verified: bool = True) -> Inode:
        """Phase one: stage a fetched file without publishing it.

        The pool is the *shared* level-1 cache: a corrupt entry would
        poison every image on the node, so content is verified against
        its fingerprint name before it is admitted (collision-handled
        ``uid-…`` files are not fingerprint-named and are exempt).
        ``verified=False`` skips that check — it exists solely for crash
        injection, which stages the torn partial file a mid-download
        crash leaves on disk for ``fsck`` to find.

        Staged entries are invisible to :meth:`get` and free of capacity
        accounting until :meth:`commit`; :meth:`abort` (or recovery)
        discards them.
        """
        identity = gear_file.identity
        if verified and not identity.startswith("uid-") and (
            gear_file.blob.fingerprint != identity
        ):
            raise IntegrityError(
                f"refusing to cache {identity!r}: content hashes "
                f"to {gear_file.blob.fingerprint!r}"
            )
        existing = self._inodes.get(identity)
        if existing is not None:
            return existing
        staged = self._staged.get(identity)
        if staged is not None:
            return staged
        inode = Inode(FileKind.FILE, blob=gear_file.blob)
        self._staged[identity] = inode
        return inode

    def commit(self, identity: str) -> Inode:
        """Phase two: publish a staged entry into the cache proper."""
        self._quarantined.discard(identity)
        existing = self._inodes.get(identity)
        if existing is not None:
            self._staged.pop(identity, None)
            if self.policy is EvictionPolicy.LRU:
                self._inodes[identity] = self._inodes.pop(identity)
            return existing
        inode = self._staged.pop(identity, None)
        if inode is None:
            raise StorageError(f"commit without prepare: {identity!r}")
        self._make_room(inode.size)
        self._inodes[identity] = inode
        self._bytes += inode.size
        self._index_chunks(inode)
        return inode

    def _index_chunks(self, inode: Inode) -> None:
        tokens = self._chunk_tokens
        if tokens is None or inode.blob is None:
            return
        for chunk in inode.blob.chunks:
            # Interned: every pool on the host that indexes this content
            # keys it by one string, not by a copy of its own.
            token = sys.intern(chunk.token)
            tokens[token] = tokens.get(token, 0) + 1

    def _unindex_chunks(self, inode: Inode) -> None:
        tokens = self._chunk_tokens
        if tokens is None or inode.blob is None:
            return
        for chunk in inode.blob.chunks:
            token = chunk.token
            count = tokens.get(token, 0) - 1
            if count <= 0:
                tokens.pop(token, None)
            else:
                tokens[token] = count

    def has_chunk(self, token: str) -> bool:
        """Is a chunk with this content token held by any committed file?"""
        if self._chunk_tokens is None:
            self._chunk_tokens = {}
            for inode in self._inodes.values():
                self._index_chunks(inode)
        return token in self._chunk_tokens

    def abort(self, identity: str) -> None:
        """Discard a staged entry (failed or torn admission)."""
        self._staged.pop(identity, None)

    def is_staged(self, identity: str) -> bool:
        """Is ``identity`` staged but not yet committed?"""
        return identity in self._staged

    def staged_items(self) -> Iterator[tuple]:
        """Snapshot of staged ``(identity, inode)`` pairs, oldest first."""
        return iter(list(self._staged.items()))

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    def _make_room(self, incoming: int) -> None:
        if self.capacity_bytes is None:
            return
        while self._bytes + incoming > self.capacity_bytes:
            victim = self._pick_victim()
            if victim is None:
                # Everything is pinned by index links; exceed capacity
                # rather than corrupt live images.
                self.stats.eviction_failures += 1
                return
            self._evict(victim)

    def _pick_victim(self) -> Optional[str]:
        """Oldest unpinned entry (nlink 1 means only the pool holds it)."""
        for identity, inode in self._inodes.items():
            if inode.nlink <= 1:
                return identity
        return None

    def _evict(self, identity: str) -> None:
        inode = self._inodes.pop(identity)
        self._bytes -= inode.size
        self._unindex_chunks(inode)
        self.stats.evictions += 1

    # -- management ------------------------------------------------------------

    def drop(self, identity: str) -> None:
        """Forcibly remove an entry (tests and cache-clearing scenarios)."""
        if identity in self._inodes:
            self._evict(identity)
            self.stats.evictions -= 1  # administrative removal, not pressure

    def quarantine(self, identity: str) -> None:
        """Record a failed verification and purge any cached copy.

        Called by the viewer when a download for ``identity`` arrived
        corrupt; a later verified :meth:`insert` lifts the quarantine.
        """
        self.stats.quarantines += 1
        self._quarantined.add(identity)
        self.drop(identity)

    def is_quarantined(self, identity: str) -> bool:
        return identity in self._quarantined

    def clear(self) -> None:
        """Empty the cache (the paper's no-local-cache scenario, §V-D).

        A cleared node starts from *nothing*: staged (uncommitted)
        entries, quarantine records, and in-flight fetch markers are all
        discarded along with the cached files.  Pending single-flight
        events are fired first so any process waiting on one re-checks
        the (now empty) cache instead of blocking forever.
        """
        self._inodes.clear()
        self._bytes = 0
        self._staged.clear()
        self._quarantined.clear()
        self.inflight.abandon()
        for partial in self.partials.values():
            partial.inflight.abandon()
        self.partials.clear()
        self._chunk_tokens = None

    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def file_count(self) -> int:
        return len(self._inodes)

    def identities(self) -> Iterator[str]:
        return iter(self._inodes.keys())

    @property
    def hit_ratio(self) -> float:
        stats = self.stats
        total = stats.hits + stats.misses
        return stats.hits / total if total else 0.0

    def __contains__(self, identity: str) -> bool:
        return identity in self._inodes

    def __len__(self) -> int:
        return len(self._inodes)

    def __repr__(self) -> str:
        cap = self.capacity_bytes if self.capacity_bytes is not None else "∞"
        return (
            f"SharedFilePool(files={len(self._inodes)}, bytes={self._bytes}, "
            f"capacity={cap}, policy={self.policy.value})"
        )
