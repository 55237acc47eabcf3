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
from typing import Dict, Tuple

from repro.blob import Blob
from repro.common.hashing import Fingerprint
from repro.gear.gearfile import UID_PREFIX

#: Bits in an MD5 fingerprint (the ``m`` of eq. 1).
MD5_BITS = 128


def collision_probability_bound(n_files: int) -> float:
    """Birthday-paradox bound of eq. 1: ``p <= n(n-1)/2 * 2^-m``.

    For the ~5e10 deduplicated files of a Docker-Hub-scale registry this
    is ~5e-18 — orders of magnitude below disk error rates (1e-12..1e-15).
    """
    if n_files < 0:
        raise ValueError(f"file count must be non-negative, got {n_files}")
    return n_files * (n_files - 1) / 2.0 / 2.0**MD5_BITS


class CollisionTracker:
    """Detects fingerprint collisions during conversion and issues IDs.

    The tracker keeps the first content registered under each
    fingerprint.  A later registration of that fingerprint compares its
    chunk identity against the kept one — unless it is the very same
    blob, or one holding an equal chunk tuple, which are the same
    content by construction.  A mismatch is a collision: the file
    receives a unique ID that replaces the fingerprint in Gear indexes.
    Disabling dedup for the colliding files "does not compromise the
    scheme's correctness".
    """

    def __init__(self) -> None:
        self._known: Dict[Fingerprint, Blob] = {}
        self._unique_ids = itertools.count(1)
        self.collisions_detected = 0

    def register(self, blob: Blob) -> Tuple[str, bool]:
        """Register content; return ``(identity, collided)``.

        ``identity`` is the fingerprint normally, or a fresh unique ID
        when the content collides with different content already seen
        under the same fingerprint.
        """
        fingerprint = blob.fingerprint
        known = self._known.setdefault(fingerprint, blob)
        if known is blob or known.chunks == blob.chunks or (
            [c.token for c in known.chunks] == [c.token for c in blob.chunks]
        ):
            return fingerprint, False
        self.collisions_detected += 1
        unique = f"{UID_PREFIX}{next(self._unique_ids):08d}-{fingerprint[:8]}"
        return unique, True
