"""Fingerprints and digests."""

import hashlib

from hypothesis import example, given, strategies as st

from repro.common.hashing import (
    Digest,
    Fingerprint,
    fingerprint_bytes,
    fingerprint_tokens,
    sha256_bytes,
    sha256_tokens,
    stable_u64,
    stable_unit_interval,
)


def test_fingerprint_bytes_matches_md5():
    assert fingerprint_bytes(b"hello") == hashlib.md5(b"hello").hexdigest()


def test_sha256_bytes_matches_hashlib():
    assert sha256_bytes(b"hello") == hashlib.sha256(b"hello").hexdigest()


def test_fingerprint_is_a_string():
    fp = fingerprint_bytes(b"x")
    assert isinstance(fp, str)
    assert isinstance(fp, Fingerprint)
    assert len(fp) == 32


def test_digest_short_prefix():
    digest = sha256_bytes(b"y")
    assert digest.short() == digest[:12]


def test_token_hashing_is_order_sensitive():
    assert fingerprint_tokens(["a", "b"]) != fingerprint_tokens(["b", "a"])
    assert sha256_tokens(["a", "b"]) != sha256_tokens(["b", "a"])


def test_token_hashing_separates_boundaries():
    # ("ab", "c") must differ from ("a", "bc").
    assert fingerprint_tokens(["ab", "c"]) != fingerprint_tokens(["a", "bc"])


@given(st.lists(st.text(), max_size=8))
def test_token_hashing_is_deterministic(tokens):
    assert fingerprint_tokens(tokens) == fingerprint_tokens(tokens)
    assert sha256_tokens(tokens) == sha256_tokens(tokens)


def test_stable_u64_is_stable_and_distinct():
    assert stable_u64("a", "b") == stable_u64("a", "b")
    assert stable_u64("a", "b") != stable_u64("a", "c")


@given(st.text(), st.text())
def test_stable_unit_interval_in_range(a, b):
    value = stable_unit_interval(a, b)
    assert 0.0 <= value < 1.0


def _per_token(hasher, tokens, end):
    """The encoding the one-buffer hashes replaced: an update per token
    and one per separator."""
    for token in tokens:
        hasher.update(token.encode("utf-8"))
        hasher.update(end)
    return hasher


# Empty tokens, non-ASCII text (multi-byte UTF-8) and the separators
# themselves inside a token.
_TOKENS = st.lists(st.one_of(st.just(""), st.text(alphabet=st.characters(
    blacklist_categories=("Cs",)), max_size=8)), max_size=6)


@given(_TOKENS)
@example([])
@example([""])
@example(["", ""])
@example(["é", "∂", "😀"])
@example(["a\nb", "\x00"])
def test_one_buffer_hashes_match_the_per_token_encoding(tokens):
    assert fingerprint_tokens(tokens) == _per_token(hashlib.md5(), tokens, b"\n").hexdigest()
    assert fingerprint_tokens(iter(tokens)) == fingerprint_tokens(tokens)
    assert sha256_tokens(tokens) == _per_token(hashlib.sha256(), tokens, b"\n").hexdigest()
    reference = _per_token(hashlib.sha256(), tokens, b"\x00").digest()
    assert stable_u64(*tokens) == int.from_bytes(reference[:8], "big")


def test_an_empty_sequence_is_not_one_empty_token():
    assert fingerprint_tokens([]) != fingerprint_tokens([""])
    assert sha256_tokens([]) != sha256_tokens([""])
    assert stable_u64() != stable_u64("")
