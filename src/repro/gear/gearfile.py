"""Gear files: content-addressed regular files, and the one rule that
says whether bytes are the file their name promises."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.blob import Blob
from repro.blob.compressibility import blob_compressed_size

#: The prefix of the unique IDs collision handling gives a file in place
#: of its fingerprint (§III-B, :mod:`repro.gear.fingerprint`).
UID_PREFIX = "uid-"


@dataclass(frozen=True)
class GearFile:
    """One regular file extracted from an image, named by its fingerprint.

    "These regular files are converted to Gear files by naming (or
    identifying) them by the fingerprints of the corresponding regular
    files" (§III-B).  ``identity`` is the MD5 fingerprint, or a unique ID
    when collision handling disabled dedup for this file.
    """

    identity: str
    blob: Blob

    @classmethod
    def from_blob(cls, blob: Blob) -> "GearFile":
        return cls(identity=blob.fingerprint, blob=blob)

    @property
    def size(self) -> int:
        return self.blob.size

    @property
    def compressed_size(self) -> int:
        """Stored size in the registry ("Gear files can be further
        compressed for higher space efficiency", §III-C)."""
        return blob_compressed_size(self.blob)

    def __repr__(self) -> str:
        return f"GearFile({self.identity[:12]}, {self.size}B)"


def content_addressed(identity: str) -> bool:
    """Is ``identity`` a fingerprint?  A collision-handled ``uid-…`` file
    opted out of fingerprint naming (§III-B): nothing checks its bytes."""
    return not identity.startswith(UID_PREFIX)


def verified(identity: str, holder: Any) -> bool:
    """Does ``holder`` (a Gear file or a pool inode) hash to its name?
    Content addressing doubles as the integrity check, asked here alone;
    a file that is not content-addressed passes."""
    return not content_addressed(identity) or holder.blob.fingerprint == identity
