"""A write-ahead intent journal for client-side Gear file admission.

The paper's three-level local store (§III-D1) assumes the client never
dies between "file fetched" and "file hard-linked into the index".
Production lazy loaders cannot: a node crash mid-deployment must leave a
store that is *classifiable* — every torn state distinguishable from a
healthy one — or recovery degenerates to wiping the cache.  This module
provides the classification substrate: a tiny append-only journal of
admission intents, written by the Gear File Viewer around each two-phase
pool insert and index hard-link.

Record grammar (two two-phase operations):

* ``fetch-begin identity`` / ``fetch-commit identity`` — bracket one
  admission into the shared file pool (download → staged → committed);
* ``link-begin identity path reference`` / ``link-commit …`` — bracket
  one hard-link of a pool file over an index stub;
* ``chunk-begin identity index`` / ``chunk-commit identity index`` —
  bracket one chunk-granular fetch into a partial big file (the chunk
  index rides in the record's ``path`` field as a decimal string).

Appends cost nothing on the virtual clock: journal records are tiny and
ride the same write stream as the data they describe, so the journaled
path is byte-identical in time to the unjournaled seed behaviour.  The
journal's value is purely at recovery time, when
:func:`repro.gear.recovery.fsck` replays it to classify every torn state
(DESIGN.md §9).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.common.clock import SimClock
from repro.common.columns import RecordView
from repro.obs.metrics import MetricSet

#: Record type tags (the ``op`` field of a :class:`JournalRecord`).
FETCH_BEGIN = "fetch-begin"
FETCH_COMMIT = "fetch-commit"
LINK_BEGIN = "link-begin"
LINK_COMMIT = "link-commit"
CHUNK_BEGIN = "chunk-begin"
CHUNK_COMMIT = "chunk-commit"

#: The tags in op-code order: a journal stores an op as its index here.
_OPS = (FETCH_BEGIN, FETCH_COMMIT, LINK_BEGIN, LINK_COMMIT,
        CHUNK_BEGIN, CHUNK_COMMIT)
_OP_CODE = {op: code for code, op in enumerate(_OPS)}


class JournalRecord(NamedTuple):
    """One appended intent or commit record, as a reader of
    :attr:`IntentJournal.records` sees it (the journal itself keeps
    columns, not these: DESIGN.md §17)."""

    seq: int
    op: str
    identity: str
    at_s: float
    #: Index-tree path (link records only).
    path: Optional[str] = None
    #: Index reference the link belongs to (link records only).
    reference: Optional[str] = None


@dataclass
class JournalStats(MetricSet):
    """Journal write accounting (registrable with the metrics registry)."""

    #: Total records ever appended (survives compaction).
    appends: int = 0
    #: Completed compaction passes.
    compactions: int = 0


@dataclass
class JournalState:
    """The replayed view of a journal: what is open, what is promised."""

    #: Identities with a ``fetch-begin`` not followed by ``fetch-commit``,
    #: in first-begin order.
    open_fetches: List[str] = field(default_factory=list)
    #: Identities with at least one ``fetch-commit`` record.
    committed_fetches: Set[str] = field(default_factory=set)
    #: ``link-begin`` records with no matching ``link-commit`` (matched by
    #: ``(reference, path)``), in begin order.
    open_links: List[JournalRecord] = field(default_factory=list)
    #: ``(identity, chunk_index)`` pairs with a ``chunk-begin`` not
    #: followed by ``chunk-commit``, in first-begin order — the chunks a
    #: crash may have left torn inside a partial big file.
    open_chunks: List[Tuple[str, int]] = field(default_factory=list)
    #: identity → chunk indexes with at least one ``chunk-commit``.
    committed_chunks: Dict[str, Set[int]] = field(default_factory=dict)


class IntentJournal:
    """An append-only, replayable journal of admission intents.

    One journal per client node (the :class:`~repro.gear.driver.GearDriver`
    owns it); every viewer mounted on that node writes through it.  The
    journal survives the crash by construction — records are appended
    *before* the state transitions they describe — so
    :func:`~repro.gear.recovery.fsck` can always tell an interrupted
    admission from a completed one.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock
        self.stats = JournalStats()
        # One column per record field, a row per append; ``seq`` is not
        # stored (:meth:`JournalRecords._rows` derives it from position).
        self._ops = bytearray()
        self._at_s = array("d")
        self._identities: List[str] = []
        self._paths: List[Optional[str]] = []
        self._references: List[Optional[str]] = []
        self._seq = 0

    @property
    def records(self) -> "JournalRecords":
        """The records since the last compaction, in append order (a
        live read-only view)."""
        return JournalRecords(self)

    @property
    def appended(self) -> int:
        """Total records ever appended (survives :meth:`compact`)."""
        return self.stats.appends

    @property
    def compactions(self) -> int:
        """Completed compaction passes."""
        return self.stats.compactions

    # -- appends -----------------------------------------------------------

    def _append(
        self,
        op: str,
        identity: str,
        path: Optional[str] = None,
        reference: Optional[str] = None,
    ) -> None:
        clock = self.clock
        self._ops.append(_OP_CODE[op])
        self._at_s.append(clock._now if clock is not None else 0.0)
        self._identities.append(identity)
        self._paths.append(path)
        self._references.append(reference)
        self._seq += 1
        self.stats.appends += 1

    def fetch_begin(self, identity: str) -> None:
        """Record the intent to admit ``identity`` into the pool."""
        self._append(FETCH_BEGIN, identity)

    def fetch_commit(self, identity: str) -> None:
        """Record that ``identity``'s bytes are complete and verified."""
        self._append(FETCH_COMMIT, identity)

    def link_begin(self, identity: str, path: str, reference: str) -> None:
        """Record the intent to hard-link ``identity`` over a stub."""
        self._append(LINK_BEGIN, identity, path=path, reference=reference)

    def link_commit(self, identity: str, path: str, reference: str) -> None:
        """Record that the hard link at ``path`` is fully placed."""
        self._append(LINK_COMMIT, identity, path=path, reference=reference)

    def chunk_begin(self, identity: str, chunk_index: int) -> None:
        """Record the intent to fetch one chunk of a partial big file."""
        self._append(CHUNK_BEGIN, identity, path=str(chunk_index))

    def chunk_commit(self, identity: str, chunk_index: int) -> None:
        """Record that a chunk's bytes are on disk and verified."""
        self._append(CHUNK_COMMIT, identity, path=str(chunk_index))

    # -- replay ------------------------------------------------------------

    def replay(self) -> JournalState:
        """Fold the record stream into open/committed/orphaned sets."""
        state = JournalState()
        fetch_open: Dict[str, bool] = {}
        #: ``(reference, path)`` → row of the latest ``link-begin``.
        links_open: Dict[Tuple[str, str], int] = {}
        chunks_open: Dict[Tuple[str, int], bool] = {}
        rows = zip(self._ops, self._identities, self._paths, self._references)
        for row, (code, identity, path, reference) in enumerate(rows):
            op = _OPS[code]
            if op == FETCH_BEGIN:
                fetch_open[identity] = True
            elif op == FETCH_COMMIT:
                fetch_open[identity] = False
                state.committed_fetches.add(identity)
            elif op == LINK_BEGIN:
                assert reference is not None and path is not None
                links_open[(reference, path)] = row
            elif op == LINK_COMMIT:
                assert reference is not None and path is not None
                links_open.pop((reference, path), None)
            elif op == CHUNK_BEGIN:
                assert path is not None
                chunks_open[(identity, int(path))] = True
            elif op == CHUNK_COMMIT:
                assert path is not None
                key = (identity, int(path))
                chunks_open[key] = False
                state.committed_chunks.setdefault(identity, set()).add(key[1])
        state.open_fetches = [
            identity for identity, is_open in fetch_open.items() if is_open
        ]
        records = self.records
        state.open_links = [records[row] for row in sorted(links_open.values())]
        state.open_chunks = [
            key for key, is_open in chunks_open.items() if is_open
        ]
        return state

    # -- maintenance -------------------------------------------------------

    def compact(self) -> int:
        """Drop every record (recovery resolved them all); return count.

        Called by :func:`~repro.gear.recovery.fsck` once every open
        intent has been rolled forward or rolled back — a compacted
        journal plus a clean store is the post-recovery steady state.
        """
        dropped = len(self._ops)
        for column in (self._ops, self._at_s, self._identities, self._paths,
                       self._references):
            del column[:]
        self.stats.compactions += 1
        return dropped

    def __len__(self) -> int:
        return len(self._ops)

    def __repr__(self) -> str:
        return (
            f"IntentJournal(records={len(self._ops)}, "
            f"appended={self.appended})"
        )


class JournalRecords(RecordView):
    """:attr:`IntentJournal.records`: a :class:`JournalRecord` per row."""

    __slots__ = ("_journal",)

    def __init__(self, journal: IntentJournal) -> None:
        self._journal = journal

    def __len__(self) -> int:
        return len(self._journal._ops)

    def _rows(self, rows: slice) -> Iterator[JournalRecord]:
        journal = self._journal
        # ``compact()`` drops every row and ``_seq`` keeps counting, so
        # the rows held are always the last ``len`` sequence numbers.
        seqs = range(journal._seq - len(journal._ops), journal._seq)
        return (
            JournalRecord(*row)
            for row in zip(
                seqs[rows], map(_OPS.__getitem__, journal._ops[rows]),
                journal._identities[rows], journal._at_s[rows],
                journal._paths[rows], journal._references[rows],
            )
        )
