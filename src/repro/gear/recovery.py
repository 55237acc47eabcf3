"""Crash recovery for the client-side Gear store.

Production lazy-loading systems treat crash recovery of the local cache
as table stakes ("On-demand Container Loading in AWS Lambda") and rely on
content addressing to make it cheap: every uncommitted entry can be
re-verified against the name it claims, so recovery never has to guess.
:func:`fsck` is that pass for the paper's three-level store (§III-D1):
it replays the intent journal, classifies every torn state the crash
taxonomy (DESIGN.md §9) allows, and repairs the pool, the indexes' link
tables, and their hard-link counts in place.

Invariants on return:

1. the pool holds no staged entries and no in-flight markers — every
   uncommitted admission was promoted (content verified) or dropped;
2. no index path carries an open link intent — every interrupted link
   was rolled forward (content verified, commit record written) or
   rolled back to a pristine stub;
3. every committed pool inode's ``nlink`` equals one pool reference plus
   its live index links, so eviction pinning is exact again;
4. the journal is compacted to empty.

Verification is paid for in virtual time (:data:`VERIFY_BPS` hash
throughput plus disk scan costs), which is what the recovery-time
benchmark (`benchmarks/bench_ext_crash.py`) measures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional

from repro.blob import chunk_fingerprint
from repro.common.clock import SimClock
from repro.gear.index import GearIndex, STUB_XATTR
from repro.gear.journal import IntentJournal
from repro.gear.pool import SharedFilePool
from repro.storage.disk import Disk
from repro.vfs.inode import Inode
from repro.vfs.tree import FileSystemTree

#: Fingerprint re-hash throughput during recovery (bytes/second of
#: virtual time).  MD5 over cached files streams from the page cache at
#: memory-bus-ish speed; the disk scan cost is charged separately.
VERIFY_BPS = 1.2e9


@dataclass
class RecoveryReport:
    """What one :func:`fsck` pass found and repaired."""

    #: Journal records present when recovery started.
    journal_records: int = 0
    open_fetches: int = 0
    open_links: int = 0
    #: Staged entries the journal had already committed — promoted after
    #: re-verification (classic write-ahead redo).
    rolled_forward: int = 0
    #: Staged entries with only an open fetch intent whose bytes were
    #: nevertheless intact — promoted without re-fetching a single byte.
    salvaged: int = 0
    #: Staged entries whose content failed re-verification (torn partial
    #: writes) — dropped; the identity must be fetched again on resume.
    torn_dropped: int = 0
    torn_bytes: int = 0
    #: Bytes promoted into the pool without touching the network.
    recovered_bytes: int = 0
    #: Open links whose physical hard link was present and verified —
    #: journal rolled forward.
    links_repaired: int = 0
    #: Open links rolled back to a pristine stub (content mismatch or
    #: pool no longer holds the identity).
    links_rolled_back: int = 0
    #: Rolled-back links whose pool entry had vanished (dangling link).
    dangling_links: int = 0
    #: Committed inodes whose ``nlink`` disagreed with the live link
    #: census and were corrected.
    nlink_fixes: int = 0
    #: Single-flight markers cleared (their fetches died with the client).
    inflight_cleared: int = 0
    #: Partial big files (chunk-granular fetches in progress) examined.
    partial_files: int = 0
    #: Verified-present chunks of partials kept across the crash — a
    #: resumed deployment re-fetches none of them.
    chunks_salvaged: int = 0
    chunk_bytes_salvaged: int = 0
    #: Chunks a mid-fetch crash left torn (or that failed re-verification)
    #: — dropped from the partial; resume re-fetches exactly these.
    torn_chunks_dropped: int = 0
    diff_entries_scanned: int = 0
    #: Stub-marked entries found in writable diffs (never legal) dropped.
    diff_stubs_dropped: int = 0
    #: Bytes re-hashed during verification.
    verify_bytes: int = 0
    #: Journal records dropped by the post-recovery compaction.
    compacted_records: int = 0
    #: Virtual seconds the pass took (verification + disk scan).
    fsck_s: float = 0.0

    @property
    def repairs(self) -> int:
        """Total state transitions the pass performed."""
        return (
            self.rolled_forward
            + self.salvaged
            + self.torn_dropped
            + self.links_repaired
            + self.links_rolled_back
            + self.nlink_fixes
            + self.diff_stubs_dropped
            + self.torn_chunks_dropped
        )

    def as_dict(self) -> dict:
        """Plain-dict view for JSON reports (deterministic key set)."""
        return asdict(self)


def _content_matches(identity: str, inode: Inode, committed: bool) -> bool:
    """Does the inode's content hash to the identity it claims?

    Collision-handled ``uid-…`` files opted out of fingerprint naming
    (§III-B); they cannot be re-verified by name, so recovery trusts
    their journal records instead: ``committed`` says whether the
    journal vouches for the bytes.
    """
    if identity.startswith("uid-"):
        return committed
    return inode.blob is not None and inode.blob.fingerprint == identity


def fsck(
    pool: SharedFilePool,
    indexes: Iterable[GearIndex],
    diffs: Iterable[FileSystemTree],
    journal: IntentJournal,
    *,
    clock: Optional[SimClock] = None,
    disk: Optional[Disk] = None,
) -> RecoveryReport:
    """Classify and repair every torn state a client crash left behind.

    ``indexes`` are the node's live level-2 indexes, ``diffs`` any
    surviving level-3 writable layers (a stopped container's diff
    outlives its process).  Time is charged on ``clock`` for content
    re-verification and on ``disk`` for the scan when either is given.
    """
    report = RecoveryReport()
    indexes = list(indexes)
    start_s = clock.now if clock is not None else 0.0
    tracer = clock.tracer if clock is not None else None
    fsck_span = tracer.begin("fsck") if tracer is not None else None

    state = journal.replay()
    report.journal_records = len(journal)
    report.open_fetches = len(state.open_fetches)
    report.open_links = len(state.open_links)

    # 1. Single-flight markers die with the client.  Fire them so any
    # surviving waiter (a sibling process on a shared scheduler) re-reads
    # the pool instead of waiting on a fetch that will never land.
    report.inflight_cleared += pool.inflight.abandon()

    # 2. Staged admissions: re-verify and promote, or drop as torn.
    for identity, inode in pool.staged_items():
        report.verify_bytes += inode.size
        committed = identity in state.committed_fetches
        if _content_matches(identity, inode, committed):
            pool.commit(identity)
            report.recovered_bytes += inode.size
            if committed:
                report.rolled_forward += 1
            else:
                report.salvaged += 1
        else:
            pool.abort(identity)
            report.torn_dropped += 1
            report.torn_bytes += inode.size

    # 2b. Partial big files: single-flight chunk claims die with the
    # client; the chunk a mid-fetch crash tore is dropped; every chunk
    # marked present is re-verified against its manifest fingerprint and
    # salvaged, so a resumed deployment re-fetches zero verified chunks.
    for identity in sorted(pool.partials):
        partial = pool.partials[identity]
        report.partial_files += 1
        report.inflight_cleared += partial.inflight.abandon()
        for chunk_index in sorted(partial.torn):
            partial.present.discard(chunk_index)
            report.torn_chunks_dropped += 1
            report.torn_bytes += partial.torn[chunk_index]
        partial.torn.clear()
        for chunk_index in sorted(partial.present):
            chunk = partial.blob.chunks[chunk_index]
            report.verify_bytes += chunk.size
            expected = (
                partial.fingerprints[chunk_index]
                if chunk_index < len(partial.fingerprints)
                else None
            )
            if expected is None or chunk_fingerprint(chunk) == expected:
                report.chunks_salvaged += 1
                report.chunk_bytes_salvaged += chunk.size
            else:
                partial.present.discard(chunk_index)
                report.torn_chunks_dropped += 1

    # 3. Interrupted links: roll forward when the link landed intact,
    # roll back to the pristine stub otherwise.
    index_by_reference = {index.reference: index for index in indexes}
    for record in state.open_links:
        index = index_by_reference.get(record.reference or "")
        if index is None:
            continue  # image removed since the crash; nothing to repair
        assert record.path is not None
        node = index.links.get(record.path)
        if node is None:
            continue  # intent never materialized; compaction closes it
        report.verify_bytes += node.size
        # A link is journaled only after its file's admission committed.
        if _content_matches(record.identity, node, True) and pool.contains(
            record.identity
        ):
            report.links_repaired += 1
            continue
        if not pool.contains(record.identity):
            report.dangling_links += 1
        index.unlink(record.path)  # the nlink decrement; the stub shows
        report.links_rolled_back += 1

    # 4. nlink census: one pool reference plus every live index link.
    expected: Dict[int, int] = {}
    inode_for: Dict[int, Inode] = {}
    for identity in pool.identities():
        inode = pool.peek(identity)
        assert inode is not None
        expected[id(inode)] = 1
        inode_for[id(inode)] = inode
    for index in indexes:
        for node in index.links.values():
            if id(node) in expected:
                expected[id(node)] += 1
    for key, count in expected.items():
        inode = inode_for[key]
        if inode.nlink != count:
            inode.nlink = count
            report.nlink_fixes += 1

    # 5. Writable diffs never hold stubs; a stub-marked entry there is a
    # torn copy-up and is dropped (the read path re-faults from level 2).
    for diff in diffs:
        for path, node in list(diff.iter_files()):
            report.diff_entries_scanned += 1
            if STUB_XATTR in node.meta.xattrs:
                diff.remove(path)
                report.diff_stubs_dropped += 1

    # 6. Pay for the pass, then compact the resolved journal.
    if disk is not None:
        ops = report.open_links + pool.file_count + report.inflight_cleared
        disk.read(report.verify_bytes, file_ops=max(1, ops), label="fsck-scan")
    if clock is not None:
        clock.advance(report.verify_bytes / VERIFY_BPS, "fsck-verify")
    report.compacted_records = journal.compact()
    if clock is not None:
        report.fsck_s = clock.now - start_s
    if fsck_span is not None:
        tracer.end(fsck_span.annotate(verify_bytes=report.verify_bytes))
    return report
