"""The fault-tolerant chunk read path: integrity, coalescing, recovery.

Companion to ``test_gear_bigfile.py`` (which covers the clean-path
mechanics): these tests drive the chunk-granular pipeline through
corruption, crashes, admission-gate pressure, and pool lifecycle events,
and pin the golden equivalence between the chunked and whole-file
viewers.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.deploy import viewer_fs_digest
from repro.bench.environment import make_testbed
from repro.blob import Blob, Chunk, DEFAULT_CHUNK_SIZE, chunk_fingerprint
from repro.blob import blob as blob_module
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import (
    ChunkIntegrityError,
    ClientCrash,
    IntegrityError,
)
from repro.common.units import MiB
from repro.gear.bigfile import ChunkedGearFileViewer
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.journal import IntentJournal
from repro.gear.pool import PartialFile, SharedFilePool
from repro.gear.recovery import fsck
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
from repro.invariants import World, audit, flights_left
from repro.net.faults import (
    CrashInjector,
    CrashPlan,
    CrashPoint,
    FaultyLink,
    chunk_plan,
)
from repro.net.link import Link
from repro.net.resilience import RetryPolicy
from repro.net.transport import RpcTransport
from repro.vfs.inode import Metadata
from repro.vfs.tree import FileSystemTree

BIG = 8 * MiB  # 64 chunks at 128 KiB
BIG_PATH = "/models/weights.bin"
SMALL_PATH = "/etc/small.conf"


def build_env(*, plan=None, crash=None, seed="model", chunk_retry=None,
              chunk_buffer_bytes=None, with_journal=True):
    root = FileSystemTree()
    root.write_file(BIG_PATH, Blob.synthetic(seed, BIG), parents=True)
    root.write_file(SMALL_PATH, b"tiny", parents=True)
    index = GearIndex.from_tree("ai.gear", "v1", root)
    clock = SimClock()
    if plan is not None:
        link = FaultyLink(clock, plan, bandwidth_mbps=904)
    else:
        link = Link(clock, bandwidth_mbps=904)
    transport = RpcTransport(link, retry_policy=RetryPolicy(seed="rpc"))
    registry = GearRegistry()
    transport.bind(registry.endpoint())
    for _, node in root.iter_files():
        registry.upload(GearFile.from_blob(node.blob))
    pool = SharedFilePool()
    journal = IntentJournal(clock) if with_journal else None
    kwargs = {}
    if chunk_retry is not None:
        kwargs["chunk_retry"] = chunk_retry
    if chunk_buffer_bytes is not None:
        kwargs["chunk_buffer_bytes"] = chunk_buffer_bytes
    viewer = ChunkedGearFileViewer(
        index, pool, transport=transport, journal=journal, crash=crash,
        big_file_threshold=1 * MiB, **kwargs,
    )
    return viewer, dict(
        clock=clock, link=link, transport=transport, registry=registry,
        index=index, pool=pool, journal=journal,
        identity=index.entries[BIG_PATH].identity,
    )


class TestChunkIntegrity:
    def test_undetected_corruption_caught_and_refetched(self):
        # Every corruption slides past the wire checksum: only the
        # per-chunk fingerprint stands between it and the pool.
        plan = chunk_plan(
            seed="byz", corrupt_rate=0.3, corrupt_detect_rate=0.0
        )
        viewer, env = build_env(plan=plan)
        viewer.read_range(BIG_PATH, 0, BIG)
        stats = viewer.chunk_stats
        assert stats.chunk_integrity_failures > 0
        assert stats.chunk_refetches == stats.chunk_integrity_failures
        # Nothing poisoned: the promoted file hashes to its name.
        inode = env["pool"].peek(env["identity"])
        assert inode is not None
        assert inode.blob.fingerprint == env["identity"]

    def test_persistent_corruption_gives_up_with_typed_error(self):
        viewer, env = build_env(
            chunk_retry=RetryPolicy(max_attempts=3, seed="give-up")
        )
        # Cache the trusted manifest first, then rot the registry copy:
        # every later chunk fetch serves bytes that can never verify.
        viewer.read_range(BIG_PATH, 0, 10)
        env["registry"].corrupt(
            env["identity"], GearFile.from_blob(Blob.synthetic("evil", BIG))
        )
        with pytest.raises(ChunkIntegrityError) as excinfo:
            viewer.read_range(BIG_PATH, DEFAULT_CHUNK_SIZE, 10)
        assert excinfo.value.identity == env["identity"]
        assert excinfo.value.chunk_index == 1
        assert viewer.chunk_stats.chunk_refetches == 2  # attempts 2 and 3
        # The identity is quarantined and its partial purged.
        assert env["pool"].stats.quarantines == 1
        assert env["identity"] not in env["pool"].partials

    def test_giveup_respects_retry_deadline(self):
        viewer, env = build_env(
            chunk_retry=RetryPolicy(
                max_attempts=100, deadline_s=0.01, seed="deadline"
            )
        )
        viewer.read_range(BIG_PATH, 0, 10)
        env["registry"].corrupt(
            env["identity"], GearFile.from_blob(Blob.synthetic("evil", BIG))
        )
        with pytest.raises(ChunkIntegrityError):
            viewer.read_range(BIG_PATH, DEFAULT_CHUNK_SIZE, 10)
        assert viewer.chunk_stats.chunk_refetches < 100

    def test_promote_verifies_assembled_file(self):
        viewer, env = build_env()
        viewer.read_range(BIG_PATH, 0, 10)
        partial = env["pool"].partials[env["identity"]]
        # Sabotage the assembled content behind the manifest's back: the
        # whole-file fingerprint check must refuse to commit it.
        partial.blob = Blob.synthetic("evil", BIG)
        partial.present.update(range(len(partial.blob.chunks)))
        with pytest.raises(IntegrityError):
            viewer._promote(viewer.index.entries[BIG_PATH], partial)
        assert not env["pool"].contains(env["identity"])
        assert env["pool"].stats.quarantines == 1

    def test_chunk_faults_do_not_touch_whole_file_traffic(self):
        # Label-prefix scoping: a plan that corrupts every chunk payload
        # leaves whole-file (gear-file) downloads untouched.
        plan = chunk_plan(
            seed="scoped", corrupt_rate=1.0, corrupt_detect_rate=0.0
        )
        viewer, env = build_env(plan=plan)
        whole = GearFileViewer(
            env["index"], SharedFilePool(),
            transport=env["transport"],
        )
        whole.read_blob(BIG_PATH)
        assert whole.fault_stats.remote_fetches == 1


class TestSingleFlight:
    def test_no_duplicate_fetches_under_concurrent_readers(self):
        viewer, env = build_env()
        clock = env["clock"]

        def reader(start):
            viewer.read_range(BIG_PATH, start, 4 * DEFAULT_CHUNK_SIZE)

        with SimScheduler(clock) as scheduler:
            # Heavily overlapping ranges: every chunk is wanted by
            # several readers at once.
            for start in (0, DEFAULT_CHUNK_SIZE, 2 * DEFAULT_CHUNK_SIZE):
                scheduler.spawn(reader, start, name=f"reader-{start}")
            scheduler.run()
        stats = viewer.chunk_stats
        assert stats.duplicate_chunk_fetches == 0
        assert stats.chunks_fetched == 6  # chunks 0..5, each exactly once
        assert stats.coalesced_waits > 0

    def test_gate_overflow_falls_back_to_sequential(self):
        # A one-chunk buffer cannot admit a parallel fan-out: overflow
        # is a counted fallback, never an error.
        viewer, env = build_env(chunk_buffer_bytes=DEFAULT_CHUNK_SIZE)
        clock = env["clock"]
        with SimScheduler(clock) as scheduler:
            scheduler.spawn(
                viewer.read_range, BIG_PATH, 0, 8 * DEFAULT_CHUNK_SIZE,
                name="reader",
            )
            scheduler.run()
        stats = viewer.chunk_stats
        assert stats.sequential_fallbacks > 0
        assert stats.chunks_fetched == 8
        assert stats.duplicate_chunk_fetches == 0

    def test_rejects_non_positive_buffer(self):
        with pytest.raises(Exception):
            build_env(chunk_buffer_bytes=0)


class TestCrashRecovery:
    def test_mid_chunk_crash_fsck_salvage_resume(self):
        injector = None
        viewer, env = build_env()
        injector = CrashInjector(
            env["clock"],
            CrashPlan(point=CrashPoint.MID_FETCH, seed="chunk-crash",
                      op_index=5),
        )
        crashed = ChunkedGearFileViewer(
            env["index"], env["pool"], transport=env["transport"],
            journal=env["journal"], crash=injector,
            big_file_threshold=1 * MiB,
        )
        with pytest.raises(ClientCrash):
            crashed.read_range(BIG_PATH, 0, BIG)
        partial = env["pool"].partials[env["identity"]]
        assert partial.torn  # the in-flight chunk died mid-wire

        report = fsck(
            env["pool"], [env["index"]], [], env["journal"],
            clock=env["clock"],
        )
        assert report.partial_files == 1
        assert report.torn_chunks_dropped == 1
        assert report.chunks_salvaged == len(partial.present)
        salvaged = len(partial.present)
        assert salvaged == 5  # chunks 0..4 committed before the crash

        # Resume: only the missing chunks travel again.
        viewer.read_range(BIG_PATH, 0, BIG)
        total = len(partial.blob.chunks)
        assert viewer.chunk_stats.chunks_fetched == total - salvaged
        assert env["pool"].contains(env["identity"])
        assert env["pool"].partials == {}

    def test_a_crashed_wave_leaves_no_chunk_flight(self):
        """Three readers overlap on the big file when one dies mid-chunk:
        the crash leaves every single-flight table of the pool empty,
        and after fsck and the resume the pool holds the whole invariant
        catalogue (no flight, no partial, nothing poisoned)."""
        viewer, env = build_env()
        pool = env["pool"]
        crashed = ChunkedGearFileViewer(
            env["index"], pool, transport=env["transport"], journal=env["journal"],
            crash=CrashInjector(env["clock"], CrashPlan(
                point=CrashPoint.MID_FETCH, seed="flights", op_index=5)),
            big_file_threshold=1 * MiB,
        )
        died = []

        def reader(start):
            try:
                crashed.read_range(BIG_PATH, start, BIG // 2)
            except ClientCrash:
                died.append(start)

        with SimScheduler(env["clock"]) as scheduler:
            for start in (0, BIG // 8, BIG // 4):
                scheduler.spawn(reader, start, name=f"reader-{start}")
            scheduler.run()
        assert died
        world = World({"client": pool})
        assert flights_left(world) == []
        fsck(pool, [env["index"]], [], env["journal"], clock=env["clock"])
        viewer.read_range(BIG_PATH, 0, BIG)
        assert audit(world) == {}

    def test_journal_records_chunk_intents(self):
        viewer, env = build_env()
        viewer.read_range(BIG_PATH, 0, 2 * DEFAULT_CHUNK_SIZE)
        state = env["journal"].replay()
        assert state.committed_chunks[env["identity"]] == {0, 1}
        assert state.open_chunks == []

    def test_torn_chunk_left_open_in_journal(self):
        viewer, env = build_env()
        injector = CrashInjector(
            env["clock"],
            CrashPlan(point=CrashPoint.MID_FETCH, seed="torn", op_index=2),
        )
        crashed = ChunkedGearFileViewer(
            env["index"], env["pool"], transport=env["transport"],
            journal=env["journal"], crash=injector,
            big_file_threshold=1 * MiB,
        )
        with pytest.raises(ClientCrash):
            crashed.read_range(BIG_PATH, 0, BIG)
        state = env["journal"].replay()
        assert (env["identity"], 2) in state.open_chunks
        assert state.committed_chunks[env["identity"]] == {0, 1}


class TestPoolLifecycle:
    def test_clear_drops_partials_and_chunk_index(self):
        viewer, env = build_env()
        viewer.read_range(BIG_PATH, 0, 10)
        pool = env["pool"]
        assert pool.partials
        token = next(iter(pool.partials.values())).blob.chunks[0].token
        pool.clear()
        assert pool.partials == {}
        assert not pool.has_chunk(token)
        # The viewer recovers transparently after the wipe.
        viewer.read_range(BIG_PATH, 0, BIG)
        assert pool.contains(env["identity"])
        assert pool.partials == {}

    def test_chunk_dedup_premarks_shared_chunks(self):
        viewer, env = build_env()
        viewer.read_range(BIG_PATH, 0, BIG)  # v1 fully cached
        fetched_v1 = viewer.chunk_stats.chunks_fetched
        wire_v1 = env["link"].log.total_bytes

        # v2 of the model shares most chunks with v1.
        v2 = Blob.synthetic("model", BIG).mutate("v2", 0.125)
        root = FileSystemTree()
        root.write_file(BIG_PATH, v2, parents=True)
        index2 = GearIndex.from_tree("ai.gear", "v2", root)
        env["registry"].upload(GearFile.from_blob(v2))
        viewer2 = ChunkedGearFileViewer(
            index2, env["pool"], transport=env["transport"],
            big_file_threshold=1 * MiB,
        )
        viewer2.read_range(BIG_PATH, 0, BIG)
        stats = viewer2.chunk_stats
        assert stats.chunks_deduped > 0
        assert stats.chunks_fetched + stats.chunks_deduped == fetched_v1
        assert stats.chunk_dedup_bytes > 0
        # An eighth of the chunks mutated: v2 costs a fraction of v1's wire.
        assert env["link"].log.total_bytes - wire_v1 < wire_v1 / 4

    def test_chunk_metrics_group_registered_in_testbed(self):
        testbed = make_testbed()
        assert "chunk.range_reads" in testbed.metrics.snapshot()
        testbed.gear_driver.chunk_stats.range_reads = 3
        before = testbed.metrics.snapshot()["chunk.range_reads"]
        assert before == 3
        testbed.gear_driver.chunk_stats.range_reads += 2
        assert testbed.metrics.snapshot()["chunk.range_reads"] - before == 2


class TestBoundaries:
    def test_zero_length_read(self):
        viewer, _ = build_env()
        assert viewer.read_range(BIG_PATH, 0, 0) == 0
        assert viewer.chunk_stats.chunks_fetched == 0

    def test_offset_beyond_eof(self):
        viewer, _ = build_env()
        assert viewer.read_range(BIG_PATH, BIG + 1000, 10) == 0
        assert viewer.chunk_stats.chunks_fetched == 0

    def test_exact_chunk_boundary_span(self):
        viewer, _ = build_env()
        got = viewer.read_range(
            BIG_PATH, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE
        )
        assert got == DEFAULT_CHUNK_SIZE
        assert viewer.chunk_stats.chunks_fetched == 1  # chunk 1 only

    def test_small_file_matches_whole_file_viewer(self):
        viewer, env = build_env()
        got = viewer.read_range(SMALL_PATH, 0, 100)
        whole = GearFileViewer(
            env["index"], SharedFilePool(),
            transport=env["transport"],
        )
        whole.read_blob(SMALL_PATH)
        assert got == 4  # the whole (tiny) file, truncated at EOF
        assert viewer.chunk_stats.chunks_fetched == 0
        assert viewer.chunk_stats.range_reads == 0  # whole-file fallthrough


class TestGoldenEquivalence:
    def test_chunked_and_whole_file_digests_identical(self):
        viewer, env = build_env()
        viewer.read_range(BIG_PATH, 0, BIG)
        viewer.read_range(SMALL_PATH, 0, 4)

        # Fresh fault-free environment for the whole-file control.
        _, cenv = build_env()
        whole = GearFileViewer(
            cenv["index"], cenv["pool"], transport=cenv["transport"],
        )
        whole.read_blob(BIG_PATH)
        whole.read_blob(SMALL_PATH)
        assert viewer_fs_digest(viewer) == viewer_fs_digest(whole)

    def test_equivalence_survives_chunk_faults(self):
        plan = chunk_plan(
            seed="equiv", drop_rate=0.05, corrupt_rate=0.1,
            corrupt_detect_rate=0.5,
        )
        viewer, _ = build_env(plan=plan)
        viewer.read_range(BIG_PATH, 0, BIG)
        viewer.read_range(SMALL_PATH, 0, 4)

        _, cenv = build_env()
        whole = GearFileViewer(
            cenv["index"], cenv["pool"], transport=cenv["transport"],
        )
        whole.read_blob(BIG_PATH)
        whole.read_blob(SMALL_PATH)
        assert viewer_fs_digest(viewer) == viewer_fs_digest(whole)


# -- one file, any reader ------------------------------------------------
#
# A big stub lands one way on a chunked viewer, whatever reads it: the
# chunk pipeline, then the viewer's own admit-and-link tail.  Small
# 4 KiB chunks keep each example cheap (a 48 KiB file is 12 chunks).

TINY_CHUNK = 4 * 1024
THRESHOLD = 4 * TINY_CHUNK
FILE = "/opt/model.bin"
READERS = st.one_of(
    st.tuples(
        st.just("read_range"),
        st.integers(0, 3 * THRESHOLD),
        st.integers(0, 3 * THRESHOLD),
    ),
    st.tuples(st.sampled_from(["read_blob", "read_bytes", "prefetch"])),
)


def one_file_world(mode, size):
    """An index over one file of ``size`` bytes and ``mode``, its
    registry, a transport and a journal."""
    root = FileSystemTree()
    root.write_file(
        FILE, Blob.synthetic("one-file", size, chunk_size=TINY_CHUNK),
        meta=Metadata(mode=mode), parents=True,
    )
    index = GearIndex.from_tree("one.gear", "v1", root)
    clock = SimClock()
    transport = RpcTransport(Link(clock, bandwidth_mbps=904))
    registry = GearRegistry()
    transport.bind(registry.endpoint())
    registry.upload(GearFile.from_blob(root.read_blob(FILE)))
    return index, transport, IntentJournal(clock)


def whole_file_digest(mode, size):
    index, transport, _ = one_file_world(mode, size)
    control = GearFileViewer(index, SharedFilePool(), transport=transport)
    control.read_blob(FILE)
    return control.fs_digest()


class TestOneFileAnyReader:
    @settings(deadline=None)
    @given(
        mode=st.sampled_from([0o644, 0o755, 0o600]),
        size=st.one_of(
            st.integers(1, THRESHOLD - 1), st.integers(THRESHOLD, 3 * THRESHOLD)
        ),
        readers=st.lists(READERS, min_size=1, max_size=6),
    )
    # A promoted file keeps its index mode, as a whole-file fault does.
    @example(mode=0o755, size=2 * THRESHOLD,
             readers=[("read_range", 0, 2 * THRESHOLD)])
    # A whole read after a partial one fetches only the missing chunks
    # and leaves no partial behind.
    @example(mode=0o644, size=2 * THRESHOLD,
             readers=[("read_range", 0, TINY_CHUNK), ("read_blob",)])
    def test_every_reader_lands_the_same_file(self, mode, size, readers):
        index, transport, journal = one_file_world(mode, size)
        pool = SharedFilePool()
        viewer = ChunkedGearFileViewer(
            index, pool, transport=transport, journal=journal,
            big_file_threshold=THRESHOLD,
        )
        for name, *args in readers:
            if name == "read_range":
                viewer.read_range(FILE, *args)
            else:
                getattr(viewer, name)(FILE)

        identity = index.entries[FILE].identity
        chunks = -(-size // TINY_CHUNK)
        stats = viewer.chunk_stats
        assert viewer.fs_digest() == whole_file_digest(mode, size)
        if pool.contains(identity):
            assert identity not in pool.partials
        assert stats.duplicate_chunk_fetches == 0
        assert stats.chunks_fetched <= chunks
        if size >= THRESHOLD:
            assert viewer.fault_stats.remote_fetches == 0  # never whole
        else:
            assert stats.chunks_fetched == 0


class TestPromotionCrash:
    @pytest.mark.parametrize(
        "point",
        [CrashPoint.POST_FETCH, CrashPoint.MID_COMMIT, CrashPoint.MID_LINK],
    )
    def test_crash_during_promotion_recovers_without_refetch(self, point):
        size = 3 * THRESHOLD
        index, transport, journal = one_file_world(0o755, size)
        pool = SharedFilePool()
        injector = CrashInjector(
            journal.clock, CrashPlan(point=point, op_index=0)
        )
        crashed = ChunkedGearFileViewer(
            index, pool, transport=transport, journal=journal,
            crash=injector, big_file_threshold=THRESHOLD,
        )
        with pytest.raises(ClientCrash):
            crashed.read_range(FILE, 0, size)
        assert injector.fired is not None

        fsck(pool, [index], [], journal, clock=journal.clock)
        resumed = ChunkedGearFileViewer(
            index, pool, transport=transport, journal=journal,
            big_file_threshold=THRESHOLD,
        )
        resumed.read_blob(FILE)
        assert resumed.fs_digest() == whole_file_digest(0o755, size)
        assert resumed.chunk_stats.chunks_fetched == 0
        assert resumed.fault_stats.remote_fetches == 0
        assert pool.partials == {}


def scan_covering(blob, offset, length):
    """The linear scan ``_covering_chunks`` replaced: the reference."""
    wanted, position, end = [], 0, offset + length
    for index, chunk in enumerate(blob.chunks):
        start, position = position, position + chunk.size
        if position > offset and start < end:
            wanted.append(index)
    return wanted


@st.composite
def covered_ranges(draw):
    """A blob (equal chunks with a short tail, a zero-size blob, or any
    chunk sizes, zero included) and a range whose ends sit before, at
    and inside chunk boundaries, at EOF and beyond it."""
    kind = draw(st.sampled_from(["synthetic", "empty", "sizes"]))
    if kind == "synthetic":
        blob = Blob.synthetic(
            "cover", draw(st.integers(1, 200)), chunk_size=draw(st.integers(1, 16))
        )
    elif kind == "empty":
        blob = Blob.synthetic("cover", 0)
    else:
        sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=12))
        blob = Blob([Chunk(f"cover/{i}", size) for i, size in enumerate(sizes)])
    marks, position = {0, blob.size + 1, blob.size + 100}, 0
    for chunk in blob.chunks:
        position += chunk.size
        marks.update((position - 1, position, position + 1))
    marks = sorted(mark for mark in marks if mark >= 0)
    offset = draw(st.one_of(st.sampled_from(marks), st.integers(0, blob.size + 20)))
    ends = [mark - offset for mark in marks if mark >= offset]
    length = draw(st.one_of(
        st.just(0), st.sampled_from(ends), st.integers(0, blob.size + 20)
    ))
    return blob, offset, length


class TestCoveringChunks:
    @given(covered_ranges())
    def test_bisect_equals_the_linear_scan(self, case):
        blob, offset, length = case
        covering = ChunkedGearFileViewer._covering_chunks(
            PartialFile(blob), offset, length
        )
        assert list(covering) == scan_covering(blob, offset, length)

    @pytest.mark.parametrize("offset, length, wanted", [
        (0, 0, []),          # an empty read at 0 selects no chunk
        (4, 0, []),          # nor at a boundary
        (5, 0, [1]),         # inside a chunk, it selects that chunk
        (0, 4, [0]),
        (3, 2, [0, 1]),
        (8, 10, [2]),        # the short tail
        (10, 5, []),         # at EOF
        (11, 5, []),         # beyond it
    ])
    def test_boundary_rule(self, offset, length, wanted):
        blob = Blob.synthetic("cover", 10, chunk_size=4)
        partial = PartialFile(blob)
        assert list(
            ChunkedGearFileViewer._covering_chunks(partial, offset, length)
        ) == wanted == scan_covering(blob, offset, length)


def in_flight_mark(viewer):
    """Record the viewer's high-water mark of unlinked chunk bytes in
    flight: every fetch a gate-admitted worker or an inline fallback
    runs, from its download to the chunk landing.  The wrapper only
    ``yield from``s the fetch, so it costs no virtual time."""
    fetch = viewer._fetch_chunk_claimed
    mark = {"now": 0, "high": 0}

    def counted(identity, partial, chunk_index):
        if chunk_index in partial.present:
            return
        size = partial.blob.chunks[chunk_index].size
        mark["now"] += size
        mark["high"] = max(mark["high"], mark["now"])
        try:
            yield from fetch(identity, partial, chunk_index)
        finally:
            mark["now"] -= size

    viewer._fetch_chunk_claimed = counted
    return mark


class TestBufferBound:
    """What ``chunk_buffer_bytes`` bounds: the gate admits at most its
    slots, but a full gate fetches inline, outside the gate, one chunk
    per reader at a time.  The unlinked bytes a viewer holds are bounded
    by (slots + concurrent readers) chunks, not by the buffer."""

    def run_readers(self, readers, buffer_bytes):
        viewer, env = build_env(chunk_buffer_bytes=buffer_bytes)
        mark = in_flight_mark(viewer)
        span = BIG // readers
        with SimScheduler(env["clock"]) as scheduler:
            # Each reader takes its slice and most of the next one, as
            # the ledger's chunkreads does: boundary chunks are contended.
            for reader in range(readers):
                scheduler.spawn(
                    viewer.read_range_gen, BIG_PATH, reader * span,
                    min(BIG - reader * span, 2 * span), name=f"reader-{reader}",
                )
            scheduler.run()
        assert env["pool"].contains(env["identity"])
        assert viewer.chunk_stats.duplicate_chunk_fetches == 0
        return mark["high"], viewer.chunk_stats

    @pytest.mark.parametrize("readers, buffer_chunks, high_chunks", [
        (1, 8, 9),    # eight admitted plus the reader's own fallback
        (8, 8, 16),   # eight admitted plus one fallback per reader
        (8, 2, 10),
        (4, 0.5, 5),  # a buffer under one chunk still admits one slot
    ])
    def test_high_water_mark(self, readers, buffer_chunks, high_chunks):
        buffer_bytes = int(buffer_chunks * DEFAULT_CHUNK_SIZE)
        high, stats = self.run_readers(readers, buffer_bytes)
        slots = max(1, buffer_bytes // DEFAULT_CHUNK_SIZE)
        assert stats.sequential_fallbacks > 0
        assert high == high_chunks * DEFAULT_CHUNK_SIZE > buffer_bytes
        assert high <= (slots + readers) * DEFAULT_CHUNK_SIZE

    def test_the_mark_costs_no_virtual_time(self):
        viewer, env = build_env()
        in_flight_mark(viewer)
        bare, bare_env = build_env()
        for each, world in ((viewer, env), (bare, bare_env)):
            with SimScheduler(world["clock"]) as scheduler:
                scheduler.spawn(each.read_range_gen, BIG_PATH, 0, BIG // 2)
                scheduler.run()
        assert env["clock"].now == bare_env["clock"].now
        assert viewer.chunk_stats == bare.chunk_stats


class TestFingerprintOnce:
    def test_one_cold_pass_hashes_each_chunk_once(self, monkeypatch):
        """Three same-content worlds (clean, chunk faults, byzantine),
        read cold: the manifest, each verified download and each
        repeated world ask for the same chunks, and each distinct chunk
        token is hashed once, plus each tampered payload."""
        worlds = [
            build_env(),
            build_env(plan=chunk_plan(
                seed="once-faults", drop_rate=0.02, corrupt_rate=0.1,
                corrupt_detect_rate=0.5,
            )),
            build_env(plan=chunk_plan(
                seed="once-byz", corrupt_rate=0.1, corrupt_detect_rate=0.0,
            )),
        ]
        hashed = []
        real = blob_module.fingerprint_tokens

        def recording(tokens):
            tokens = tuple(tokens)
            hashed.extend(tokens)
            return real(tokens)

        blob_module._token_fingerprint.cache_clear()
        monkeypatch.setattr(blob_module, "fingerprint_tokens", recording)
        tampered = 0
        for viewer, env in worlds:
            with SimScheduler(env["clock"]) as scheduler:
                for start in range(0, BIG, BIG // 4):
                    scheduler.spawn(
                        viewer.read_range_gen, BIG_PATH, start, BIG // 2
                    )
                scheduler.run()
            assert env["pool"].contains(env["identity"])
            tampered += viewer.chunk_stats.chunk_integrity_failures
        chunks = worlds[0][1]["pool"].peek(worlds[0][1]["identity"]).blob.chunks
        assert tampered > 0
        assert len(hashed) == len(set(hashed)) == len(chunks) + tampered
        assert {t for t in hashed if not t.startswith("corrupt:")} == {
            chunk.token for chunk in chunks
        }
