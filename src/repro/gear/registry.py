"""The Gear Registry: a content-addressed file server.

"Gear Registry runs a file server to store Gear files.  A Gear file can
be found through its name (i.e., the fingerprint of the corresponding
file)" (§III-C).  Three interfaces, as in §IV: query, upload, download.
Deployed "on the same node" as the Docker registry; the reproduction
mirrors that by binding both endpoints on the same transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.blob import Blob, chunk_compressed_size, chunk_fingerprint
from repro.common.errors import IntegrityError, NotFoundError
from repro.gear.gearfile import GearFile
from repro.net.transport import RpcEndpoint
from repro.storage.objectstore import ObjectStore, StoredObject


@dataclass(frozen=True)
class ChunkManifest:
    """The ``chunk_map`` response: chunk layout plus integrity names.

    ``fingerprints[i]`` is the content fingerprint the *i*-th
    ``download_chunk`` response must hash to before the client marks it
    present.  The manifest itself is tiny framed metadata — the
    transport checksum always catches damage to it
    (:meth:`~repro.net.faults.FaultyLink.tamper` returns ``None`` for
    non-content payloads) — so the fingerprints form a trusted root for
    per-chunk verification.
    """

    identity: str
    blob: Blob
    fingerprints: Tuple[str, ...]

    @classmethod
    def for_gear_file(cls, gear_file: GearFile) -> "ChunkManifest":
        return cls(
            identity=gear_file.identity,
            blob=gear_file.blob,
            fingerprints=tuple(
                chunk_fingerprint(chunk) for chunk in gear_file.blob.chunks
            ),
        )

    @property
    def wire_bytes(self) -> int:
        """Response framing: offset table plus one 16-byte MD5 per chunk."""
        return 64 + 32 * len(self.blob.chunks)


class GearRegistry:
    """Stores Gear files compressed (§III-C), deduplicated by identity."""

    ENDPOINT_NAME = "gear-registry"

    def __init__(self) -> None:
        self._store = ObjectStore(name="gear-files")

    # -- the three verbs -------------------------------------------------

    def query(self, identity: str) -> bool:
        """Does the registry already hold this Gear file?"""
        return self._store.query(identity)

    def upload(self, gear_file: GearFile) -> bool:
        """Store a Gear file; duplicate identities are deduplicated."""
        return self._store.upload(
            gear_file.identity,
            gear_file,
            size=gear_file.size,
            stored_size=gear_file.compressed_size,
        )

    def download(self, identity: str) -> GearFile:
        try:
            _, payload = self._store.download(identity)
        except NotFoundError:
            raise NotFoundError(f"gear file not found: {identity!r}") from None
        # A typed check, not an assert: asserts vanish under ``python -O``
        # and would silently hand back whatever the store held.
        if not isinstance(payload, GearFile):
            raise IntegrityError(
                f"object stored under {identity!r} is not a Gear file "
                f"(got {type(payload).__name__})"
            )
        return payload

    # -- bulk helpers ------------------------------------------------------

    def stat(self, identity: str) -> StoredObject:
        """Size metadata without touching the payload."""
        return self._store.stat(identity)

    # -- fault/loss injection (tests, resilience experiments) ---------------

    def corrupt(self, identity: str, gear_file: GearFile) -> None:
        """Replace the stored payload for ``identity`` with ``gear_file``.

        A public hook for failure-injection experiments: models silent
        registry-side bit rot (same name, different bytes).  The
        replacement keeps the original identity key so clients notice
        only through content verification.
        """
        if not self.query(identity):
            raise NotFoundError(f"gear file not found: {identity!r}")
        self._store.delete(identity)
        self._store.upload(
            identity,
            gear_file,
            size=gear_file.size,
            stored_size=gear_file.compressed_size,
        )

    # -- accounting ---------------------------------------------------------

    @property
    def file_count(self) -> int:
        return self._store.object_count

    @property
    def stored_bytes(self) -> int:
        """On-disk footprint (compressed)."""
        return self._store.total_stored_size

    # -- RPC surface ------------------------------------------------------------

    def endpoint(self) -> RpcEndpoint:
        """Bind query/upload/download over the transport.

        Downloads cost the stored (compressed) size on the wire; queries
        cost a small fixed response; upload payload bytes are charged on
        the request side by the transport.
        """
        endpoint = RpcEndpoint(self.ENDPOINT_NAME)
        endpoint.register("query", lambda identity: (self.query(identity), 16))
        endpoint.register(
            "upload", lambda gear_file: (self.upload(gear_file), 16)
        )

        def _download(identity: str):
            gear_file = self.download(identity)
            return gear_file, gear_file.compressed_size

        endpoint.register("download", _download)

        def _chunk_map(identity: str):
            # The chunk layout of a Gear file plus per-chunk fingerprints:
            # tiny metadata (an offset/digest table), used by the big-file
            # partial-read extension to verify every chunk it fetches.
            gear_file = self.download(identity)
            manifest = ChunkManifest.for_gear_file(gear_file)
            return manifest, manifest.wire_bytes

        endpoint.register("chunk_map", _chunk_map)

        def _download_chunk(identity: str, chunk_index: int):
            gear_file = self.download(identity)
            chunks = gear_file.blob.chunks
            if not 0 <= chunk_index < len(chunks):
                raise NotFoundError(
                    f"chunk {chunk_index} out of range for {identity!r}"
                )
            chunk = chunks[chunk_index]
            return chunk, chunk_compressed_size(chunk)

        endpoint.register("download_chunk", _download_chunk)
        return endpoint

    def __repr__(self) -> str:
        return (
            f"GearRegistry(files={self.file_count}, "
            f"stored={self.stored_bytes})"
        )
