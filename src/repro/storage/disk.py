"""Disk throughput models.

Figure 6 relates Gear conversion time to image size and disk type: the
average image converts in ~46 s on the testbed's HDD, and "the conversion
time of the node image series can be reduced by 65.7% when using SSDs
(from 105 s to 36 s)".  Conversion is dominated by sequential reads/writes
of layer data plus per-file metadata operations (traversal, inode
creation) — exactly the two cost terms modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.common.units import MiB


@dataclass(frozen=True)
class DiskProfile:
    """Performance profile of a storage device."""

    name: str
    #: Sustained sequential throughput, bytes/s.
    sequential_bps: float
    #: Fixed cost per file operation (open/create/stat), seconds.  On an
    #: HDD this includes seek time; on an SSD it is mostly syscall and
    #: allocation overhead.
    per_file_op_s: float

    def __post_init__(self) -> None:
        if self.sequential_bps <= 0:
            raise ValueError("sequential throughput must be positive")
        if self.per_file_op_s < 0:
            raise ValueError("per-file cost must be non-negative")


#: The testbed's WD Purple 6 TB surveillance HDD: ~110 MiB/s sustained,
#: a few milliseconds of seek per small-file operation.
HDD = DiskProfile(name="hdd", sequential_bps=110 * MiB, per_file_op_s=0.0038)

#: A SATA SSD: ~500 MiB/s sustained, microsecond-scale metadata ops.  The
#: profile is calibrated so node-series conversion drops by ≈66% (Fig. 6).
SSD = DiskProfile(name="ssd", sequential_bps=500 * MiB, per_file_op_s=0.0009)


class Disk:
    """A device consuming virtual time for I/O against a clock."""

    def __init__(self, clock: SimClock, profile: DiskProfile = HDD) -> None:
        self.clock = clock
        self.profile = profile
        self.bytes_read = 0
        self.bytes_written = 0
        self.file_ops = 0

    def read_time(self, num_bytes: int, file_ops: int = 0) -> float:
        """Time to read ``num_bytes`` touching ``file_ops`` files."""
        if num_bytes < 0 or file_ops < 0:
            raise ValueError("byte and op counts must be non-negative")
        return (
            num_bytes / self.profile.sequential_bps
            + file_ops * self.profile.per_file_op_s
        )

    def read(self, num_bytes: int, file_ops: int = 0, label: str = "") -> float:
        duration = self.read_time(num_bytes, file_ops)
        self.clock.advance(duration, label or "disk-read")
        self.bytes_read += num_bytes
        self.file_ops += file_ops
        return duration

    def write(
        self,
        num_bytes: int,
        file_ops: int = 0,
        label: str = "",
        extra_s: float = 0.0,
        deferred: bool = False,
    ) -> float:
        # Writes share the sequential profile; container-image workloads
        # are read-mostly and the asymmetry is irrelevant at this fidelity.
        #
        # ``extra_s`` folds an adjacent CPU stage (e.g. decompression)
        # into the same clock advance, so a decompress-then-store pair
        # costs one scheduler suspension instead of two.
        #
        # ``deferred`` accrues the duration as virtual-time debt on the
        # calling actor instead of advancing immediately; the debt settles
        # in the actor's next advance (or at the next shared-state
        # interaction), saving a scheduler suspension for purely local
        # write sequences.
        duration = self.read_time(num_bytes, file_ops) + extra_s
        if deferred:
            self.clock.advance_deferred(duration, label or "disk-write")
        else:
            self.clock.advance(duration, label or "disk-write")
        self.bytes_written += num_bytes
        self.file_ops += file_ops
        return duration

    def metadata_op(self, label: str = "", deferred: bool = False) -> float:
        """One pure metadata operation (mkdir, link, unlink)."""
        duration = self.profile.per_file_op_s
        if deferred:
            self.clock.advance_deferred(duration, label or "disk-meta")
        else:
            self.clock.advance(duration, label or "disk-meta")
        self.file_ops += 1
        return duration

    def __repr__(self) -> str:
        return f"Disk({self.profile.name})"
