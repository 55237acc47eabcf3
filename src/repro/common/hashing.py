"""Fingerprints and digests.

The paper uses two distinct content hashes:

* **MD5 fingerprints** identify regular files in Gear indexes and name the
  Gear files in the registry's storage pool (§III-B).
* **SHA-256 digests** identify Docker image layers, exactly as real Docker
  does (§II-A).

Both are represented as thin ``str`` subclasses so they can be used as
dictionary keys and serialized trivially while still being distinguishable
in type annotations.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Iterable


class Fingerprint(str):
    """An MD5 hex fingerprint identifying a regular file's content."""

    __slots__ = ()

    def short(self, n: int = 12) -> str:
        """Return the first ``n`` hex characters, for display."""
        return self[:n]


class Digest(str):
    """A SHA-256 hex digest identifying a Docker layer or manifest."""

    __slots__ = ()

    def short(self, n: int = 12) -> str:
        """Return the first ``n`` hex characters, for display."""
        return self[:n]


def _encoded(tokens: Iterable[str], end: str) -> bytes:
    """Every token followed by ``end``, UTF-8 encoded in one call: the
    bytes a per-token encoding would feed a hasher, hashed in one update.
    The empty sentinel closes the join (``[]`` encodes to ``b""``,
    ``[""]`` to ``end``)."""
    return end.join(chain(tokens, ("",))).encode("utf-8")


def fingerprint_bytes(data: bytes) -> Fingerprint:
    """MD5-fingerprint literal bytes."""
    return Fingerprint(hashlib.md5(data).hexdigest())


def fingerprint_tokens(tokens: Iterable[str]) -> Fingerprint:
    """MD5-fingerprint a canonical token sequence.

    Virtual blobs (see :mod:`repro.blob`) are defined by chunk seeds rather
    than materialized bytes; their fingerprint is the MD5 of the canonical
    ``token '\\n' token ...`` encoding.  Two blobs with identical chunk
    sequences therefore share a fingerprint, which is what deduplication
    relies on.
    """
    return Fingerprint(hashlib.md5(_encoded(tokens, "\n")).hexdigest())


def sha256_bytes(data: bytes) -> Digest:
    """SHA-256 digest of literal bytes."""
    return Digest(hashlib.sha256(data).hexdigest())


def sha256_tokens(tokens: Iterable[str]) -> Digest:
    """SHA-256 digest of a canonical token sequence (layer identity)."""
    return Digest(hashlib.sha256(_encoded(tokens, "\n")).hexdigest())


def stable_u64(*tokens: str) -> int:
    """A deterministic 64-bit integer derived from tokens.

    Used wherever the simulation needs a reproducible pseudo-random value
    tied to an identity (e.g. per-chunk compressibility).  Unlike
    ``hash()``, this is stable across interpreter runs.
    """
    digest = hashlib.sha256(_encoded(tokens, "\x00")).digest()
    return int.from_bytes(digest[:8], "big")


def stable_unit_interval(*tokens: str) -> float:
    """A deterministic float in ``[0, 1)`` derived from tokens."""
    return stable_u64(*tokens) / 2**64
