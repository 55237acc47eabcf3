"""Chunk-granular lazy reads for big files (the paper's future work).

§VII: "In the future, we plan to enable Gear to read big files on demand
in chunks to better accelerate containers that need to download big
files, such as AI containers with big models."

:class:`ChunkedGearFileViewer` extends the Gear File Viewer with a
``read_range`` path: files above ``big_file_threshold`` are fetched chunk
by chunk, so a container that touches only part of a big file (a model
header, an index page) downloads only those chunks.  Whole-file reads
of big files still work — they fetch all chunks — and small files use the
ordinary whole-file fault path untouched.

The chunk path carries the same fault-tolerance guarantees as the
whole-file path (DESIGN.md §15):

* **Per-chunk integrity.**  The registry's ``chunk_map`` response is a
  :class:`~repro.gear.registry.ChunkManifest` whose per-chunk
  fingerprints form a trusted root; every ``download_chunk`` response is
  verified against its manifest fingerprint before it is marked present.
  Bad chunks are quarantined (never stored) and re-fetched under the
  viewer's :class:`~repro.net.resilience.RetryPolicy`; exhausting the
  policy raises a typed
  :class:`~repro.common.errors.ChunkIntegrityError`.  Promotion to the
  shared pool re-verifies the assembled whole-file fingerprint.

* **Bounded-memory parallelism.**  Under a scheduler, chunks covering a
  range are fetched concurrently, bounded by an
  :class:`~repro.net.resilience.AdmissionGate` sized from
  ``chunk_buffer_bytes``.  A full gate degrades to the sequential path
  (counted, never an error).  Fetches are single-flight per
  ``(identity, chunk index)``: concurrent ``read_range`` callers wait on
  the in-flight fetch instead of duplicating wire bytes.

* **Crash consistency.**  Each chunk fetch is bracketed by
  ``chunk-begin`` / ``chunk-commit`` intent-journal records; partials
  live in the shared pool (:attr:`SharedFilePool.partials`) so recovery
  can salvage verified chunks and drop the one torn mid-fetch, and
  ``pool.clear()`` cannot leak them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.blob import DEFAULT_CHUNK_SIZE, chunk_fingerprint
from repro.blob.compressibility import chunk_compressed_size
from repro.common.clock import SimEvent
from repro.common.errors import (
    ChunkIntegrityError,
    CorruptPayloadError,
    GearError,
    IntegrityError,
    NotFoundError,
)
from repro.common.units import MiB
from repro.gear.gearfile import GearFile
from repro.gear.index import STUB_XATTR
from repro.gear.pool import PartialFile
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
from repro.net.faults import CrashPoint
from repro.net.resilience import AdmissionGate, RetryPolicy
from repro.obs.metrics import MetricSet

#: Default in-flight chunk buffer for the parallel pipeline: enough for
#: eight default-size chunks before the gate degrades to sequential.
DEFAULT_CHUNK_BUFFER_BYTES = 8 * DEFAULT_CHUNK_SIZE


@dataclass
class ChunkFetchStats(MetricSet):
    """Accounting for the chunk-granular path (metrics group ``chunk``)."""

    range_reads: int = 0
    chunks_fetched: int = 0
    chunk_bytes_fetched: int = 0
    whole_files_avoided: int = 0
    #: Chunks pre-marked present because an already-committed pool file
    #: holds identical content (chunk-level dedup, Table II).
    chunks_deduped: int = 0
    chunk_dedup_bytes: int = 0
    #: ``download_chunk`` responses that failed fingerprint verification.
    chunk_integrity_failures: int = 0
    #: Re-fetches issued after quarantining a corrupt chunk.
    chunk_refetches: int = 0
    #: Callers that waited on another caller's in-flight fetch.
    coalesced_waits: int = 0
    #: Wire fetches that completed for a chunk already present — zero
    #: whenever single-flight coalescing works.
    duplicate_chunk_fetches: int = 0
    #: Parallel dispatches degraded to inline fetches by a full gate.
    sequential_fallbacks: int = 0
    #: Chunks fetched by spawned pipeline workers.
    parallel_fetches: int = 0
    #: Completed partials promoted into the shared pool.
    promotions: int = 0


class ChunkedGearFileViewer(GearFileViewer):
    """A Gear File Viewer with partial-read support for big files."""

    def __init__(
        self,
        *args,
        big_file_threshold: int = 4 * MiB,
        chunk_retry: Optional[RetryPolicy] = None,
        chunk_buffer_bytes: int = DEFAULT_CHUNK_BUFFER_BYTES,
        chunk_stats: Optional[ChunkFetchStats] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if big_file_threshold <= 0:
            raise GearError("big_file_threshold must be positive")
        if chunk_buffer_bytes <= 0:
            raise GearError("chunk_buffer_bytes must be positive")
        self.big_file_threshold = big_file_threshold
        self.chunk_retry = (
            chunk_retry
            if chunk_retry is not None
            else RetryPolicy(seed="chunk-retry")
        )
        self.chunk_buffer_bytes = chunk_buffer_bytes
        #: In-flight buffer bound, in chunk slots: the pipeline never
        #: holds more unlinked chunk bytes than the buffer allows.
        self._gate = AdmissionGate(
            capacity=max(1, chunk_buffer_bytes // DEFAULT_CHUNK_SIZE)
        )
        #: Shared with every chunked viewer on the node when the driver
        #: passes its own instance (so the ``chunk`` metrics group sees
        #: node-wide traffic); per-mount otherwise.
        self.chunk_stats = (
            chunk_stats if chunk_stats is not None else ChunkFetchStats()
        )

    # -- the partial-read path ------------------------------------------

    def read_range(self, path: str, offset: int, length: int) -> int:
        """Read ``length`` bytes at ``offset``; returns bytes now readable.

        Small files (or already-materialized ones) take the normal fault
        path.  Big stub files fetch only the chunks covering the range.
        The synchronous face of :meth:`read_range_gen`: a call process
        parks once for the whole read, chunk workers and waits included.
        """
        return self._drive(self.read_range_gen(path, offset, length))

    def read_range_gen(self, path: str, offset: int, length: int):
        """:meth:`read_range` as a generator: ``yield from`` it in a process."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        node, resolved = self._resolve(path)
        if not node.is_file:
            raise GearError(f"{path!r} is not a regular file")
        index_path = "/" + "/".join(resolved)
        entry = self.index.entries.get(index_path)
        is_stub = STUB_XATTR in node.meta.xattrs
        if not is_stub or entry is None or entry.size < self.big_file_threshold:
            blob = yield from self.read_blob_gen(path)
            return min(length, max(0, blob.size - offset))

        identity = entry.identity
        with self._span(
            "range_read", fp=identity[:12], offset=offset, length=length
        ):
            self.chunk_stats.range_reads += 1
            partial = yield from self._get_partial(identity)
            if partial is None:
                # A concurrent reader finished the whole file while we
                # waited for its manifest: serve it like any cached file.
                blob = yield from self.read_blob_gen(path)
                return min(length, max(0, blob.size - offset))
            yield from self._fetch_span(identity, partial, offset, length)
            if partial.is_complete():
                self._promote(index_path, identity, partial)
            return min(length, max(0, partial.blob.size - offset))

    # -- manifest / partial bootstrap -----------------------------------

    def _get_partial(self, identity: str):
        """The partial for ``identity``, creating it from the manifest.

        Manifest fetches are single-flight per identity; ``None`` means
        the file became fully resident while this caller waited.
        """
        map_key = f"chunk-map:{identity}"
        while True:
            partial = self.pool.partials.get(identity)
            if partial is not None:
                return partial
            if self.pool.contains(identity):
                return None
            pending = self.pool.inflight.pending(map_key)
            if pending is None:
                break
            self.chunk_stats.coalesced_waits += 1
            yield from pending.wait_gen()
        announce = self.pool.inflight.claim(map_key, self.clock)
        try:
            manifest = yield from self._chunk_manifest(identity)
            partial = PartialFile(manifest.blob, manifest.fingerprints)
            self._dedup_present(partial)
            self.pool.partials[identity] = partial
            self.chunk_stats.whole_files_avoided += 1
            return partial
        finally:
            yield from self.pool.inflight.release(map_key, announce)

    def _chunk_manifest(self, identity: str):
        if self.transport is None:
            raise NotFoundError(f"no registry transport for {identity!r}")
        # Chunk map request: tiny metadata describing the blob's chunks
        # plus the per-chunk fingerprints chunk verification trusts.  The
        # transport checksum protects it (corruption of framed metadata
        # is always detected and retried at the transport layer).
        return (yield from self.transport.call_gen(
            GearRegistry.ENDPOINT_NAME,
            "chunk_map",
            identity,
            label=f"gear-chunkmap:{identity[:10]}",
        ))

    def _dedup_present(self, partial: PartialFile) -> None:
        """Pre-mark chunks whose content a committed pool file already has.

        A version-chain neighbour of an already-deployed big file then
        pays the wire only for its changed chunks — the chunk-level dedup
        gap of Table II, applied to lazy loading.
        """
        for index, chunk in enumerate(partial.blob.chunks):
            if self.pool.has_chunk(chunk.token):
                partial.present.add(index)
                self.chunk_stats.chunks_deduped += 1
                self.chunk_stats.chunk_dedup_bytes += chunk.size

    # -- chunk fetching --------------------------------------------------

    def _covering_chunks(self, partial: PartialFile, offset: int, length: int) -> List[int]:
        wanted: List[int] = []
        position = 0
        end = offset + length
        for chunk_index, chunk in enumerate(partial.blob.chunks):
            chunk_start = position
            position += chunk.size
            if position <= offset or chunk_start >= end:
                continue
            wanted.append(chunk_index)
        return wanted

    def _fetch_span(
        self, identity: str, partial: PartialFile, offset: int, length: int
    ):
        missing = [
            index
            for index in self._covering_chunks(partial, offset, length)
            if index not in partial.present
        ]
        if not missing:
            return
        scheduler = self.clock.scheduler if self.clock is not None else None
        if scheduler is not None and len(missing) > 1:
            yield from self._fetch_parallel(identity, partial, missing)
        else:
            for chunk_index in missing:
                yield from self._fetch_chunk(identity, partial, chunk_index)

    def _fetch_parallel(
        self, identity: str, partial: PartialFile, missing: List[int]
    ):
        """The bounded pipeline: fetch range-covering chunks concurrently.

        Each chunk is claimed single-flight, admitted through the buffer
        gate, and fetched by a spawned worker (a generator process: only
        the reader owns a thread); a full gate degrades that chunk to an
        inline sequential fetch (counted, never an error).
        """
        scheduler = self.clock.scheduler
        waits: List[SimEvent] = []
        errors: List[BaseException] = []
        for chunk_index in missing:
            if chunk_index in partial.present:
                continue
            pending = partial.inflight.pending(chunk_index)
            if pending is not None:
                self.chunk_stats.coalesced_waits += 1
                waits.append(pending)
                continue
            yield from self._chunk_crash_checkpoint(identity, partial, chunk_index)
            if not self._gate.try_enter():
                self.chunk_stats.sequential_fallbacks += 1
                yield from self._fetch_chunk(
                    identity, partial, chunk_index, check_crash=False
                )
                continue
            announce = partial.inflight.claim(chunk_index, self.clock)
            waits.append(announce)
            # ``spawn`` starts children at settled time, by blocking:
            # from a step the debt is paid first, by yielding.
            yield from self.clock.settle_gen()
            scheduler.spawn(
                self._chunk_worker,
                identity,
                partial,
                chunk_index,
                announce,
                errors,
                name=f"chunk:{identity[:10]}:{chunk_index}",
            )
        for event in waits:
            yield from event.wait_gen()
        if errors:
            raise errors[0]
        # A fired event does not guarantee a landed chunk (the waited-on
        # fetch may have lost its node to ``pool.clear()``); anything
        # still missing is re-fetched inline.
        for chunk_index in missing:
            if chunk_index not in partial.present:
                yield from self._fetch_chunk(identity, partial, chunk_index)

    def _chunk_worker(
        self,
        identity: str,
        partial: PartialFile,
        chunk_index: int,
        announce: SimEvent,
        errors: List[BaseException],
    ):
        try:
            yield from self._fetch_chunk_claimed(identity, partial, chunk_index)
            self.chunk_stats.parallel_fetches += 1
        except BaseException as exc:  # noqa: BLE001 — relayed to caller
            errors.append(exc)
        finally:
            self._gate.exit()
            yield from partial.inflight.release(chunk_index, announce)

    def _fetch_chunk(
        self,
        identity: str,
        partial: PartialFile,
        chunk_index: int,
        *,
        check_crash: bool = True,
    ):
        """Fetch one chunk inline, honouring single-flight claims."""
        while True:
            if chunk_index in partial.present:
                return
            pending = partial.inflight.pending(chunk_index)
            if pending is None:
                break
            self.chunk_stats.coalesced_waits += 1
            yield from pending.wait_gen()
        announce = partial.inflight.claim(chunk_index, self.clock)
        try:
            if check_crash:
                yield from self._chunk_crash_checkpoint(
                    identity, partial, chunk_index
                )
            yield from self._fetch_chunk_claimed(identity, partial, chunk_index)
        finally:
            yield from partial.inflight.release(chunk_index, announce)

    def _fetch_chunk_claimed(
        self, identity: str, partial: PartialFile, chunk_index: int
    ):
        """Download, verify, journal, and store one claimed chunk."""
        if chunk_index in partial.present:
            return
        if self.transport is None:
            raise NotFoundError(
                f"chunk {chunk_index} of {identity!r} not cached and no "
                f"registry transport"
            )
        chunk = partial.blob.chunks[chunk_index]
        expected = (
            partial.fingerprints[chunk_index]
            if chunk_index < len(partial.fingerprints)
            else None
        )
        policy = self.chunk_retry
        attempt = 1
        backoff: Optional[float] = None
        started_s = self.clock.now if self.clock is not None else 0.0
        if self.journal is not None:
            self.journal.chunk_begin(identity, chunk_index)
        while True:
            with self._span(
                "chunk_fetch", fp=identity[:12], chunk=chunk_index
            ):
                payload = yield from self.transport.call_gen(
                    GearRegistry.ENDPOINT_NAME,
                    "download_chunk",
                    identity,
                    chunk_index,
                    label=f"gear-chunk:{identity[:10]}:{chunk_index}",
                )
            if chunk_index in partial.present:
                # Single-flight failed us (should never happen): the wire
                # was paid twice for the same chunk.  Surface it in stats
                # rather than silently overwriting verified bytes.
                self.chunk_stats.duplicate_chunk_fetches += 1
                return
            self.chunk_stats.chunks_fetched += 1
            self.chunk_stats.chunk_bytes_fetched += chunk_compressed_size(
                payload
            )
            with self._span(
                "chunk_verify", fp=identity[:12], chunk=chunk_index
            ):
                verified = (
                    expected is None or chunk_fingerprint(payload) == expected
                )
            if verified:
                break
            # Corrupt chunk that slid past the wire checksum: quarantine
            # it (never store unverified bytes), tell an HA-aware
            # transport the replica lied, and re-fetch under the policy.
            self.chunk_stats.chunk_integrity_failures += 1
            notify = getattr(self.transport, "report_corrupt_payload", None)
            if notify is not None:
                notify(identity)
            elapsed_s = (
                self.clock.now - started_s if self.clock is not None else 0.0
            )
            # To the policy a chunk that hashed wrong is a corrupt
            # payload the wire checksum missed: retryable, within bounds.
            bad = CorruptPayloadError(f"chunk {chunk_index} of {identity!r}")
            if not policy.should_retry(bad, attempt=attempt, elapsed_s=elapsed_s):
                self.pool.quarantine(identity)
                self.pool.partials.pop(identity, None)
                raise ChunkIntegrityError(
                    f"chunk {chunk_index} of {identity!r} failed "
                    f"verification {attempt} time(s): content hashes to "
                    f"{chunk_fingerprint(payload)!r}, expected {expected!r}",
                    identity=identity,
                    chunk_index=chunk_index,
                )
            backoff = policy.next_backoff(backoff)
            policy.charge(backoff)
            if self.clock is not None:
                yield from self.clock.advance_gen(
                    backoff, f"chunk-backoff:{identity[:10]}:{chunk_index}"
                )
            attempt += 1
            self.chunk_stats.chunk_refetches += 1
        if self.disk is not None:
            # Charged as debt and settled at once: the one sleep
            # ``advance`` would make, which a step has to yield.
            self.disk.write(chunk.size, label="chunk-store", deferred=True)
            yield from self.disk.clock.settle_gen()
        if self.journal is not None:
            self.journal.chunk_commit(identity, chunk_index)
        partial.torn.pop(chunk_index, None)
        partial.present.add(chunk_index)

    def _chunk_crash_checkpoint(
        self, identity: str, partial: PartialFile, chunk_index: int
    ):
        """Die mid-chunk if the armed crash plan says so.

        Reuses the whole-file ``MID_FETCH`` checkpoint (the crash sweep
        iterates the ``CrashPoint`` members; a chunk-only member would
        never fire on whole-file runs).  Charges ``partial_fraction`` of
        the chunk transfer and records the torn chunk on the partial so
        ``fsck`` drops exactly that chunk and salvages the rest.
        """
        crash = self.crash
        if crash is None or not crash.take(CrashPoint.MID_FETCH):
            return
        # The fetch intent hits the journal before any bytes move, so the
        # mid-wire death leaves an *open* chunk record for replay to see.
        if self.journal is not None:
            self.journal.chunk_begin(identity, chunk_index)
        chunk = partial.blob.chunks[chunk_index]
        partial_bytes = int(chunk.size * crash.plan.partial_fraction)
        if self.transport is not None and partial_bytes > 0:
            link = self.transport.link
            yield from link.clock.advance_gen(
                link.transfer_time(partial_bytes),
                f"crash-partial-chunk:{identity[:10]}:{chunk_index}",
            )
        partial.torn[chunk_index] = partial_bytes
        crash.fire(CrashPoint.MID_FETCH)

    # -- promotion --------------------------------------------------------

    def _promote(
        self, index_path: str, identity: str, partial: PartialFile
    ) -> None:
        """All chunks arrived: install the file like a whole-file fault.

        The assembled blob is re-verified against the whole-file
        fingerprint before pool admission — per-chunk verification plus a
        correct manifest makes this structural, but a wrong manifest must
        not let an unverified assembly into the *shared* cache.
        """
        if self.pool.partials.get(identity) is not partial:
            return  # a concurrent reader already promoted it
        gear_file = GearFile(identity=identity, blob=partial.blob)
        if not identity.startswith("uid-") and (
            gear_file.blob.fingerprint != identity
        ):
            self.pool.quarantine(identity)
            del self.pool.partials[identity]
            raise IntegrityError(
                f"assembled big file {identity!r} failed verification: "
                f"content hashes to {gear_file.blob.fingerprint!r}"
            )
        with self._span("promote", fp=identity[:12]):
            if self.journal is not None:
                self.journal.fetch_begin(identity)
            self.pool.prepare(gear_file)
            if self.journal is not None:
                self.journal.fetch_commit(identity)
            inode = self.pool.commit(identity)
            if self.journal is not None:
                self.journal.link_begin(
                    identity, index_path, self.index.reference
                )
            self.index.link(index_path, inode)
            if self.disk is not None:
                self.disk.metadata_op(1, label="index-link", deferred=True)
            self.fault_stats.linked_bytes += inode.size
            if self.journal is not None:
                self.journal.link_commit(
                    identity, index_path, self.index.reference
                )
        del self.pool.partials[identity]
        self.chunk_stats.promotions += 1

    # -- accounting -------------------------------------------------------

    def partial_resident_bytes(self, identity: str) -> int:
        """Bytes of a partially-fetched big file currently resident."""
        partial = self.pool.partials.get(identity)
        if partial is None:
            return 0
        return partial.resident_bytes()
