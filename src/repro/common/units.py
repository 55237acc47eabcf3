"""Byte, bandwidth, and time unit helpers.

All sizes in the library are plain ``int`` byte counts and all durations
are ``float`` seconds; these helpers keep call sites readable
(``5 * Mbps``, ``128 * KiB``) and format results for reports.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

#: One megabit per second, expressed in bits/s.  Network link speeds in the
#: paper are given in Mbps (904, 100, 20, 5), so benchmarks write
#: ``bandwidth=904 * Mbps``.
Mbps: int = 1_000_000


def mbps_to_bytes_per_s(mbps: float) -> float:
    """Convert a rate in megabits/s to bytes/s."""
    return mbps * Mbps / 8.0


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary-prefix unit, e.g. ``'1.50 MiB'``."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_duration(seconds: float) -> str:
    """Render a duration, e.g. ``'1.25 s'`` or ``'3m 20s'``."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    minutes, secs = divmod(seconds, 60.0)
    return f"{int(minutes)}m {secs:.0f}s"
