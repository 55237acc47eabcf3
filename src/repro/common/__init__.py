"""Shared substrate: errors, hashing, units, clock, deterministic RNG.

Everything in :mod:`repro` builds on these primitives.  They are kept
dependency-free so that every other subpackage may import them without
cycles.
"""

from repro.common.clock import SimClock
from repro.common.errors import (
    GearError,
    IntegrityError,
    NotFoundError,
    ReproError,
    StorageError,
    TransportError,
)
from repro.common.hashing import (
    Digest,
    Fingerprint,
    fingerprint_bytes,
    fingerprint_tokens,
    sha256_bytes,
    sha256_tokens,
)
from repro.common.units import (
    GiB,
    KiB,
    MiB,
    Mbps,
    format_bytes,
    format_duration,
    mbps_to_bytes_per_s,
)

__all__ = [
    "SimClock",
    "ReproError",
    "GearError",
    "NotFoundError",
    "StorageError",
    "TransportError",
    "IntegrityError",
    "Digest",
    "Fingerprint",
    "fingerprint_bytes",
    "fingerprint_tokens",
    "sha256_bytes",
    "sha256_tokens",
    "KiB",
    "MiB",
    "GiB",
    "Mbps",
    "mbps_to_bytes_per_s",
    "format_bytes",
    "format_duration",
]
