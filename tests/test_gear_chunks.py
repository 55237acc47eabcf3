"""The fault-tolerant chunk read path: integrity, coalescing, recovery.

Companion to ``test_gear_bigfile.py`` (which covers the clean-path
mechanics): these tests drive the chunk-granular pipeline through
corruption, crashes, admission-gate pressure, and pool lifecycle events,
and pin the golden equivalence between the chunked and whole-file
viewers.
"""

import pytest

from repro.bench.deploy import viewer_fs_digest
from repro.bench.environment import make_testbed
from repro.blob import Blob, DEFAULT_CHUNK_SIZE, chunk_fingerprint
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
from repro.gear.pool import SharedFilePool
from repro.gear.recovery import fsck
from repro.gear.registry import GearRegistry
from repro.gear.viewer import GearFileViewer
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
        assert env["pool"].is_quarantined(env["identity"])
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
            viewer._promote(BIG_PATH, env["identity"], partial)
        assert not env["pool"].contains(env["identity"])
        assert env["pool"].is_quarantined(env["identity"])

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
        assert "chunk" in testbed.metrics.groups()
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
