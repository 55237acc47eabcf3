"""Startup access traces.

An :class:`AccessTrace` lists the files a container touches while
performing its category's deployment task (§V-D): the *necessary data*.
Traces drive the run phase of every deployment experiment — under Docker
the reads are local; under Gear each first read of a stub faults the file
in; under Slacker each read fetches the file's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class AccessTrace:
    """The ordered set of files one container start reads."""

    reference: str
    #: ``(path, size)`` in access order.
    accesses: Tuple[Tuple[str, int], ...]
    #: Task compute seconds overlapping the reads (CPU work of the
    #: category's startup task).
    compute_s: float

    @property
    def file_count(self) -> int:
        return len(self.accesses)

    def head(self, n: int) -> "AccessTrace":
        """A truncated trace (used by partial-startup experiments)."""
        return AccessTrace(
            reference=self.reference,
            accesses=self.accesses[:n],
            compute_s=self.compute_s,
        )
