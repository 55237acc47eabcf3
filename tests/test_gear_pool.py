"""The level-1 shared cache: content addressing, pinning, FIFO/LRU."""

import pytest
from hypothesis import given, strategies as st

from repro.blob import Blob, Chunk
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import IntegrityError, StorageError
from repro.gear.gearfile import GearFile
from repro.gear.pool import EvictionPolicy, SharedFilePool


def gf(tag: str, size: int = 1000):
    return GearFile.from_blob(Blob.synthetic(tag, size))


class TestBasics:
    def test_insert_and_get(self):
        pool = SharedFilePool()
        inode = pool.insert(gf("a"))
        assert pool.get(gf("a").identity) is inode
        assert pool.stats.hits == 1

    def test_miss_counts(self):
        pool = SharedFilePool()
        assert pool.get("missing") is None
        assert pool.stats.misses == 1

    def test_content_addressing_never_duplicates(self):
        pool = SharedFilePool()
        first = pool.insert(gf("a"))
        second = pool.insert(gf("a"))
        assert first is second
        assert pool.file_count == 1

    def test_used_bytes(self):
        pool = SharedFilePool()
        pool.insert(gf("a", 500))
        pool.insert(gf("b", 300))
        assert pool.used_bytes == 800

    def test_contains_has_no_stat_side_effects(self):
        pool = SharedFilePool()
        pool.insert(gf("a"))
        assert pool.contains(gf("a").identity)
        assert not pool.contains("zzz")
        assert pool.stats.hits == 0 and pool.stats.misses == 0

    def test_clear(self):
        pool = SharedFilePool()
        pool.insert(gf("a"))
        pool.clear()
        assert pool.file_count == 0
        assert pool.used_bytes == 0

    def test_hit_ratio(self):
        pool = SharedFilePool()
        pool.insert(gf("a"))
        pool.get(gf("a").identity)
        pool.get("missing")
        assert pool.hit_ratio == pytest.approx(0.5)


class TestEviction:
    def test_fifo_evicts_oldest_unpinned(self):
        pool = SharedFilePool(capacity_bytes=2500, policy=EvictionPolicy.FIFO)
        pool.insert(gf("a", 1000))
        pool.insert(gf("b", 1000))
        pool.get(gf("a", 1000).identity)  # FIFO ignores recency
        pool.insert(gf("c", 1000))
        assert not pool.contains(gf("a").identity)
        assert pool.contains(gf("b").identity)
        assert pool.stats.evictions == 1

    def test_lru_prefers_recent(self):
        pool = SharedFilePool(capacity_bytes=2500, policy=EvictionPolicy.LRU)
        pool.insert(gf("a", 1000))
        pool.insert(gf("b", 1000))
        pool.get(gf("a", 1000).identity)  # refresh a
        pool.insert(gf("c", 1000))
        assert pool.contains(gf("a").identity)
        assert not pool.contains(gf("b").identity)

    def test_pinned_files_survive(self):
        # "Files that are not linked to Gear indexes are candidates for
        # replacement" — linked inodes (nlink > 1) are pinned.
        pool = SharedFilePool(capacity_bytes=2500)
        pinned = pool.insert(gf("a", 1000))
        pinned.nlink += 1  # a Gear index links it
        pool.insert(gf("b", 1000))
        pool.insert(gf("c", 1000))
        assert pool.contains(gf("a").identity)
        assert not pool.contains(gf("b").identity)

    def test_all_pinned_exceeds_capacity_gracefully(self):
        pool = SharedFilePool(capacity_bytes=2000)
        for tag in ("a", "b"):
            inode = pool.insert(gf(tag, 1000))
            inode.nlink += 1
        pool.insert(gf("c", 1000))
        assert pool.used_bytes == 3000
        assert pool.stats.eviction_failures == 1

    def test_oversized_file_accepted_with_overflow(self):
        # A file larger than the whole cache must still be served (a
        # container read depends on it); the pool evicts what it can and
        # records the pressure failure.
        pool = SharedFilePool(capacity_bytes=100)
        pool.insert(gf("small", 50))
        inode = pool.insert(gf("huge", 1000))
        assert inode.size == 1000
        assert pool.used_bytes == 1000  # small was evicted, huge overflows
        assert pool.stats.eviction_failures == 1

    def test_unbounded_pool_never_evicts(self):
        pool = SharedFilePool()
        for index in range(50):
            pool.insert(gf(f"f{index}", 10_000))
        assert pool.stats.evictions == 0
        assert pool.file_count == 50

    def test_drop_is_administrative(self):
        pool = SharedFilePool()
        pool.insert(gf("a"))
        pool.drop(gf("a").identity)
        assert not pool.contains(gf("a").identity)
        assert pool.stats.evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(StorageError):
            SharedFilePool(capacity_bytes=-1)

    def test_fifo_vs_lru_diverge_on_same_access_sequence(self):
        # Identical inserts and touches; the policies must pick different
        # victims: FIFO evicts the oldest insert regardless of the touch,
        # LRU spares the touched entry and evicts the cold one.
        victims = {}
        for policy in (EvictionPolicy.FIFO, EvictionPolicy.LRU):
            pool = SharedFilePool(capacity_bytes=2000, policy=policy)
            pool.insert(gf("old", 1000))
            pool.insert(gf("cold", 1000))
            pool.get(gf("old").identity)
            pool.insert(gf("new", 1000))
            survivors = {
                tag for tag in ("old", "cold")
                if pool.contains(gf(tag).identity)
            }
            victims[policy] = {"old", "cold"} - survivors
        assert victims[EvictionPolicy.FIFO] == {"old"}
        assert victims[EvictionPolicy.LRU] == {"cold"}


class TestQuarantineLifecycle:
    def test_quarantine_then_verified_insert_lifts_it(self):
        pool = SharedFilePool()
        identity = gf("a").identity
        pool.quarantine(identity)
        assert pool.is_quarantined(identity)
        assert not pool.contains(identity)
        pool.insert(gf("a"))
        assert not pool.is_quarantined(identity)
        assert pool.contains(identity)
        assert pool.stats.quarantines == 1  # history, not state

    def test_quarantine_purges_cached_copy(self):
        pool = SharedFilePool()
        pool.insert(gf("a"))
        pool.quarantine(gf("a").identity)
        assert not pool.contains(gf("a").identity)
        assert pool.used_bytes == 0


class TestTwoPhaseAdmission:
    def test_staged_entries_are_invisible(self):
        pool = SharedFilePool()
        pool.prepare(gf("a"))
        assert pool.staged_count == 1
        assert pool.get(gf("a").identity) is None
        assert not pool.contains(gf("a").identity)
        assert pool.used_bytes == 0 and pool.file_count == 0

    def test_commit_publishes(self):
        pool = SharedFilePool()
        incoming = gf("a", 700)
        staged = pool.prepare(incoming)
        committed = pool.commit(incoming.identity)
        assert committed is staged
        assert pool.staged_count == 0
        assert pool.used_bytes == 700
        assert pool.get(incoming.identity) is committed

    def test_commit_without_prepare_raises(self):
        pool = SharedFilePool()
        with pytest.raises(StorageError):
            pool.commit("never-prepared")

    def test_abort_discards_staged(self):
        pool = SharedFilePool()
        pool.prepare(gf("a"))
        pool.abort(gf("a").identity)
        assert pool.staged_count == 0
        with pytest.raises(StorageError):
            pool.commit(gf("a").identity)

    def test_prepare_verifies_content(self):
        bad = GearFile(identity="0" * 32, blob=Blob.synthetic("junk", 100))
        pool = SharedFilePool()
        with pytest.raises(IntegrityError):
            pool.prepare(bad)
        assert pool.prepare(bad, verified=False) is not None
        assert pool.is_staged("0" * 32)

    def test_staged_bytes_do_not_trigger_eviction(self):
        # Capacity pressure is paid at commit, not at prepare — a crash
        # before commit must leave the published cache untouched.
        pool = SharedFilePool(capacity_bytes=1000)
        pool.insert(gf("resident", 1000))
        pool.prepare(gf("incoming", 1000))
        assert pool.contains(gf("resident").identity)
        assert pool.stats.evictions == 0
        pool.commit(gf("incoming").identity)
        assert not pool.contains(gf("resident").identity)
        assert pool.stats.evictions == 1

    def test_insert_is_prepare_plus_commit(self):
        pool = SharedFilePool()
        inode = pool.insert(gf("a"))
        assert pool.staged_count == 0
        assert pool.get(gf("a").identity) is inode


class TestClearCompleteness:
    def test_clear_resets_staged_quarantine_and_inflight(self):
        # Regression: clear() once dropped only committed files, leaving
        # stale quarantine marks and dead single-flight events behind.
        pool = SharedFilePool()
        pool.insert(gf("a"))
        pool.prepare(gf("b"))
        pool.quarantine(gf("c").identity)
        clock = SimClock()
        with SimScheduler(clock):  # flights exist only under a scheduler
            event = pool.inflight.claim(gf("d").identity, clock)
        pool.clear()
        assert pool.file_count == 0 and pool.used_bytes == 0
        assert pool.staged_count == 0
        assert not pool.is_quarantined(gf("c").identity)
        assert not pool.inflight
        # The pending fetch event was fired, not stranded: a waiter
        # re-checks the (now empty) cache instead of blocking forever.
        assert event.fired


# -- the chunk-dedup table is built by its first query -----------------------

#: Six files over a five-chunk alphabet, 10 bytes a chunk: most chunks
#: are held by several files, so a drop must count references down.
_CHUNKED_FILES = [
    GearFile.from_blob(Blob([Chunk(seed=seed, size=10) for seed in seeds]))
    for seeds in ("a", "ab", "abc", "cd", "de", "eea")
]
_TOKENS = [f"{seed}:10" for seed in "abcdez"]
_FILE = st.integers(0, len(_CHUNKED_FILES) - 1)
_POOL_OPS = st.one_of(
    st.tuples(st.sampled_from(["insert", "get", "pin", "drop", "quarantine"]), _FILE),
    st.tuples(st.just("clear"), st.just(0)),
    st.tuples(st.just("has_chunk"), st.integers(0, len(_TOKENS) - 1)),
)


class TestLazyChunkTable:
    @given(
        st.lists(_POOL_OPS, max_size=40),
        st.sampled_from([None, 30, 60]),
        st.sampled_from(list(EvictionPolicy)),
    )
    def test_answers_as_a_table_kept_from_birth_whenever_first_asked(
        self, ops, capacity, policy
    ):
        lazy = SharedFilePool(capacity_bytes=capacity, policy=policy)
        eager = SharedFilePool(capacity_bytes=capacity, policy=policy)
        assert not eager.has_chunk(_TOKENS[0])  # indexes every commit from now on
        assert lazy._chunk_tokens is None and eager._chunk_tokens == {}

        def held(pool):
            """The specification: tokens of the committed entries."""
            return {
                chunk.token
                for identity in pool.identities()
                for chunk in pool.peek(identity).blob.chunks
            }

        for op, arg in ops:
            if op == "has_chunk":
                token = _TOKENS[arg]
                assert lazy.has_chunk(token) == eager.has_chunk(token) == (
                    token in held(lazy)
                )
                continue
            for pool in (lazy, eager):
                gear_file = _CHUNKED_FILES[arg]
                if op == "insert":
                    pool.insert(gear_file)
                elif op == "get":
                    pool.get(gear_file.identity)  # recency decides who is evicted
                elif op == "pin" and pool.contains(gear_file.identity):
                    pool.peek(gear_file.identity).nlink += 1  # an index links it
                elif op == "clear":
                    pool.clear()
                elif op in ("drop", "quarantine"):
                    getattr(pool, op)(gear_file.identity)
            assert list(lazy.identities()) == list(eager.identities())
        assert (lazy.stats.evictions, lazy.stats.eviction_failures) == (
            eager.stats.evictions, eager.stats.eviction_failures
        )
        for token in _TOKENS:
            assert lazy.has_chunk(token) == eager.has_chunk(token) == (
                token in held(lazy)
            )
        assert lazy._chunk_tokens == eager._chunk_tokens

    def test_a_pool_nobody_asks_keeps_no_table(self):
        pool = SharedFilePool(capacity_bytes=30)
        for gear_file in _CHUNKED_FILES:
            pool.insert(gear_file)
        pool.drop(_CHUNKED_FILES[-1].identity)
        assert pool.stats.evictions and pool._chunk_tokens is None
        assert pool.has_chunk("e:10") == pool.contains(_CHUNKED_FILES[4].identity)
        pool.clear()
        assert pool._chunk_tokens is None and not pool.has_chunk("e:10")
