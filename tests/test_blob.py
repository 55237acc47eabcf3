"""Blob identity, chunking, materialization, and mutation."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.blob import Blob, Chunk, DEFAULT_CHUNK_SIZE
from repro.blob import blob as blob_module


@pytest.mark.parametrize("data", [b"abc", b""])
def test_a_literal_blob_is_hashed_once(monkeypatch, data):
    hashed = []
    fingerprint_bytes = blob_module.fingerprint_bytes
    monkeypatch.setattr(
        blob_module, "fingerprint_bytes",
        lambda piece: hashed.append(piece) or fingerprint_bytes(piece),
    )
    assert Blob.from_bytes(data).fingerprint == hashlib.md5(data).hexdigest()
    assert hashed == [data]


class TestChunk:
    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Chunk(seed="s", size=-1)

    def test_rejects_literal_size_mismatch(self):
        with pytest.raises(ValueError):
            Chunk(seed="s", size=3, literal=b"ab")

    def test_literal_materializes_to_itself(self):
        chunk = Chunk(seed="s", size=3, literal=b"abc")
        assert chunk.materialize() == b"abc"

    def test_synthetic_materialization_is_deterministic(self):
        chunk = Chunk(seed="seed-1", size=1000)
        assert chunk.materialize() == chunk.materialize()
        assert len(chunk.materialize()) == 1000

    def test_different_seeds_differ(self):
        assert Chunk(seed="a", size=64).materialize() != Chunk(
            seed="b", size=64
        ).materialize()

    def test_empty_chunk(self):
        assert Chunk(seed="s", size=0).materialize() == b""


class TestBlobFromBytes:
    def test_fingerprint_matches_md5_for_small_content(self):
        data = b"hello gear"
        assert Blob.from_bytes(data).fingerprint == hashlib.md5(data).hexdigest()

    def test_equal_content_equal_fingerprint(self):
        assert Blob.from_bytes(b"x" * 10).fingerprint == Blob.from_bytes(
            b"x" * 10
        ).fingerprint

    def test_roundtrip(self):
        data = bytes(range(256)) * 700  # multi-chunk at small chunk size
        blob = Blob.from_bytes(data, chunk_size=4096)
        assert blob.materialize() == data
        assert blob.size == len(data)

    def test_empty_blob(self):
        blob = Blob.from_bytes(b"")
        assert blob.size == 0
        assert blob.materialize() == b""

    def test_chunking_boundary(self):
        data = b"a" * (DEFAULT_CHUNK_SIZE + 1)
        blob = Blob.from_bytes(data)
        assert len(blob.chunks) == 2
        assert blob.chunks[0].size == DEFAULT_CHUNK_SIZE
        assert blob.chunks[1].size == 1

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            Blob.from_bytes(b"abc", chunk_size=0)

    def test_identical_chunks_share_identity(self):
        # Two files sharing a 4096-byte prefix at chunk granularity.
        prefix = b"p" * 4096
        a = Blob.from_bytes(prefix + b"1" * 4096, chunk_size=4096)
        b = Blob.from_bytes(prefix + b"2" * 4096, chunk_size=4096)
        assert a.chunks[0].token == b.chunks[0].token
        assert a.chunks[1].token != b.chunks[1].token


class TestBlobSynthetic:
    def test_size_and_chunk_count(self):
        blob = Blob.synthetic("s", 300_000)
        assert blob.size == 300_000
        assert len(blob.chunks) == 3  # 128K + 128K + 44K

    def test_same_seed_same_fingerprint(self):
        assert (
            Blob.synthetic("s", 1000).fingerprint
            == Blob.synthetic("s", 1000).fingerprint
        )

    def test_different_seed_different_fingerprint(self):
        assert (
            Blob.synthetic("s1", 1000).fingerprint
            != Blob.synthetic("s2", 1000).fingerprint
        )

    def test_zero_size(self):
        blob = Blob.synthetic("s", 0)
        assert blob.size == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Blob.synthetic("s", -5)

    def test_materialization_matches_size(self):
        blob = Blob.synthetic("s", 5000)
        assert len(blob.materialize()) == 5000


class TestMutate:
    def test_mutation_changes_fingerprint(self):
        blob = Blob.synthetic("s", 500_000)
        assert blob.mutate("m1", 0.25).fingerprint != blob.fingerprint

    def test_mutation_shares_expected_chunks(self):
        blob = Blob.synthetic("s", 128 * 1024 * 8)  # exactly 8 chunks
        mutated = blob.mutate("m1", 0.25)
        shared = set(blob.chunk_tokens()) & set(mutated.chunk_tokens())
        assert len(shared) == 6  # 8 - round(8*0.25)

    def test_mutation_is_deterministic(self):
        blob = Blob.synthetic("s", 500_000)
        assert blob.mutate("m", 0.5).fingerprint == blob.mutate("m", 0.5).fingerprint

    def test_mutation_always_changes_at_least_one_chunk(self):
        blob = Blob.synthetic("s", 1000)  # single chunk
        mutated = blob.mutate("m", 0.0)
        assert mutated.fingerprint != blob.fingerprint

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            Blob.synthetic("s", 100).mutate("m", 1.5)


class TestBlobEquality:
    def test_eq_and_hash_by_content(self):
        a = Blob.synthetic("s", 1000)
        b = Blob.synthetic("s", 1000)
        assert a == b
        assert hash(a) == hash(b)

    def test_len(self):
        assert Blob.synthetic("s", 123).size == 123


@settings(max_examples=40)
@given(st.binary(min_size=0, max_size=2000))
def test_property_from_bytes_roundtrip(data):
    blob = Blob.from_bytes(data, chunk_size=256)
    assert blob.materialize() == data
    assert blob.size == len(data)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2_000_000))
def test_property_synthetic_size(size):
    assert Blob.synthetic("s", size).size == size
