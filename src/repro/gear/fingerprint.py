"""Fingerprint collision analysis and handling.

§III-B: fingerprints are MD5 hashes of file contents.  The design assumes
collisions are practically impossible (eq. 1 bounds the probability below
disk-error rates), but provides a fallback: "we can detect the collision
by comparing file contents after a fingerprint match occurs during the
conversion phase.  Each file involved in a collision is assigned a unique
ID, which is used in the Gear index to take the place of the fingerprint."
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.blob import Blob
from repro.common.hashing import Fingerprint

#: Bits in an MD5 fingerprint (the ``m`` of eq. 1).
MD5_BITS = 128


def collision_probability_bound(n_files: int, bits: int = MD5_BITS) -> float:
    """Birthday-paradox bound of eq. 1: ``p <= n(n-1)/2 * 2^-m``.

    For the ~5e10 deduplicated files of a Docker-Hub-scale registry this
    is ~5e-18 — orders of magnitude below disk error rates (1e-12..1e-15).
    """
    if n_files < 0:
        raise ValueError(f"file count must be non-negative, got {n_files}")
    if bits <= 0:
        raise ValueError(f"bit width must be positive, got {bits}")
    return n_files * (n_files - 1) / 2.0 / 2.0**bits


class CollisionTracker:
    """Detects fingerprint collisions during conversion and issues IDs.

    On every (fingerprint, content) registration the tracker compares the
    new content's chunk identity against what the fingerprint already
    names.  A mismatch is a collision: both files receive unique IDs that
    replace the fingerprint in Gear indexes.  Disabling dedup for the
    colliding files "does not compromise the scheme's correctness".
    """

    def __init__(self) -> None:
        self._known: Dict[Fingerprint, Tuple[str, ...]] = {}
        self._unique_ids = itertools.count(1)
        self.collisions_detected = 0

    def register(self, blob: Blob) -> Tuple[str, bool]:
        """Register content; return ``(identity, collided)``.

        ``identity`` is the fingerprint normally, or a fresh unique ID
        when the content collides with different content already seen
        under the same fingerprint.
        """
        fingerprint = blob.fingerprint
        signature = tuple(blob.chunk_tokens())
        existing = self._known.get(fingerprint)
        if existing is None:
            self._known[fingerprint] = signature
            return fingerprint, False
        if existing == signature:
            return fingerprint, False
        self.collisions_detected += 1
        unique = f"uid-{next(self._unique_ids):08d}-{fingerprint.short(8)}"
        return unique, True
