"""Chunked virtual blobs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.common.hashing import Fingerprint, fingerprint_bytes, fingerprint_tokens

#: Chunk granularity used throughout the reproduction.  The paper's
#: chunk-level deduplication experiment (Table II) uses 128 KB chunks.
DEFAULT_CHUNK_SIZE: int = 128 * 1024


@dataclass(frozen=True)
class Chunk:
    """One fixed-position piece of a blob's content.

    ``seed`` determines the chunk's bytes; ``size`` is its length.  Two
    chunks are content-identical iff their ``(seed, size)`` pairs are equal.
    ``literal`` carries the actual bytes when the blob was created from
    real data (tests, committed container files); synthetic corpus chunks
    leave it ``None`` and materialize bytes deterministically from the seed.
    """

    seed: str
    size: int
    literal: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"chunk size must be non-negative, got {self.size}")
        if self.literal is not None and len(self.literal) != self.size:
            raise ValueError(
                f"literal length {len(self.literal)} does not match size {self.size}"
            )

    @property
    def token(self) -> str:
        """Canonical identity token used in fingerprints and dedup keys."""
        return f"{self.seed}:{self.size}"

    def materialize(self) -> bytes:
        """Return the chunk's bytes.

        Literal chunks return their stored bytes.  Synthetic chunks expand
        a SHA-256 keystream of the seed to ``size`` bytes; the expansion is
        pure, so repeated calls return identical data.
        """
        if self.literal is not None:
            return self.literal
        if self.size == 0:
            return b""
        out = bytearray()
        counter = 0
        while len(out) < self.size:
            block = hashlib.sha256(f"{self.seed}:{counter}".encode()).digest()
            out.extend(block)
            counter += 1
        return bytes(out[: self.size])


def chunk_fingerprint(chunk: Chunk) -> Fingerprint:
    """Content fingerprint of one chunk (the per-chunk integrity name).

    Fingerprints the canonical identity token rather than materialized
    bytes: two chunks share a token iff they share content, so the token
    fingerprint is content-addressed without expanding synthetic
    keystreams.  The registry's ``chunk_map`` ships these alongside the
    chunk layout; the chunk-granular read path verifies every
    ``download_chunk`` response against them before marking it present.
    """
    return _token_fingerprint(chunk.seed, chunk.size)


@lru_cache(maxsize=65536)
def _token_fingerprint(seed: str, size: int) -> Fingerprint:
    """Hash a chunk's token once per content: pure in ``(seed, size)``,
    so memoized at module level, bounded, as ``chunk_compressibility``
    is (a ``Chunk`` itself caches nothing).  The manifest, each verified
    download and ``fsck`` ask for the same chunks; a tampered chunk has
    a new seed, so it misses and is hashed afresh."""
    return fingerprint_tokens((f"{seed}:{size}",))


class Blob:
    """The content of one regular file, as an ordered chunk sequence."""

    __slots__ = ("_chunks", "_size", "_fingerprint", "_compressed_size")

    def __init__(self, chunks: Sequence[Chunk]) -> None:
        self._chunks: Tuple[Chunk, ...] = tuple(chunks)
        self._size = sum(chunk.size for chunk in self._chunks)
        self._fingerprint: Optional[Fingerprint] = None
        # Lazily filled by repro.blob.compressibility; blobs are
        # immutable, so the modelled compressed size never changes.
        self._compressed_size: Optional[int] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "Blob":
        """Build a blob from literal bytes, split at :data:`DEFAULT_CHUNK_SIZE`.

        The chunk seed is the MD5 of the chunk's own bytes, so identical
        literal content always produces identical chunk identities — the
        same property synthetic blobs get from shared seeds.
        """
        chunks: List[Chunk] = []
        # Empty data is one empty chunk.
        for offset in range(0, max(len(data), 1), DEFAULT_CHUNK_SIZE):
            piece = data[offset : offset + DEFAULT_CHUNK_SIZE]
            chunks.append(
                Chunk(seed=fingerprint_bytes(piece), size=len(piece), literal=piece)
            )
        blob = cls(chunks)
        if len(chunks) == 1:  # the fingerprint is that one chunk's seed
            blob._fingerprint = chunks[0].seed
        return blob

    @classmethod
    def from_text(cls, text: str) -> "Blob":
        """Build a blob from a UTF-8 string (convenience for tests)."""
        return cls.from_bytes(text.encode("utf-8"))

    @classmethod
    def synthetic(
        cls, seed: str, size: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> "Blob":
        """Build a virtual blob of ``size`` bytes from a seed.

        Chunk seeds are ``{seed}/{index}``, so two synthetic blobs share
        chunks only when built from the same seed (or explicitly derived
        via :meth:`mutate`).
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if size == 0:
            return cls([Chunk(seed=f"{seed}/0", size=0)])
        chunks = []
        index = 0
        remaining = size
        while remaining > 0:
            piece = min(chunk_size, remaining)
            chunks.append(Chunk(seed=f"{seed}/{index}", size=piece))
            index += 1
            remaining -= piece
        return cls(chunks)

    # -- identity -------------------------------------------------------

    @property
    def size(self) -> int:
        """Total content length in bytes."""
        return self._size

    @property
    def chunks(self) -> Tuple[Chunk, ...]:
        """The ordered chunk sequence."""
        return self._chunks

    @property
    def fingerprint(self) -> Fingerprint:
        """MD5 fingerprint of the blob's content.

        A literal blob of one chunk is named by its actual bytes (so tests
        can compare against ``hashlib.md5``): :meth:`from_bytes` sets that
        chunk's seed, the bytes' MD5.  Everything else fingerprints the
        canonical chunk-token sequence.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_tokens(
                chunk.token for chunk in self._chunks
            )
        return self._fingerprint

    # -- content --------------------------------------------------------

    def materialize(self) -> bytes:
        """Return the blob's full byte content."""
        return b"".join(chunk.materialize() for chunk in self._chunks)

    def mutate(self, mutation_seed: str, fraction: float) -> "Blob":
        """Derive a new blob that shares most chunks with this one.

        ``fraction`` of the chunks (at least one, deterministically chosen
        from ``mutation_seed``) are replaced with fresh chunks; the rest
        are inherited verbatim.  This models a file changing between image
        versions: file-level dedup sees a brand-new file, chunk-level dedup
        still shares the untouched chunks — exactly the gap between the
        file and chunk columns of Table II.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        from repro.common.rng import rng_for

        rng = rng_for("blob-mutate", mutation_seed, self.fingerprint)
        chunks = list(self._chunks)
        count = max(1, round(len(chunks) * fraction))
        count = min(count, len(chunks))
        for position in rng.sample(range(len(chunks)), count):
            old = chunks[position]
            chunks[position] = Chunk(
                seed=f"{mutation_seed}/{position}", size=old.size
            )
        return Blob(chunks)

    # -- dunder ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Blob):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:
        return (
            f"Blob(size={self._size}, chunks={len(self._chunks)}, "
            f"fp={self.fingerprint.short()})"
        )
