"""Container startup task models.

§V-D: "the Linux Distro containers execute the 'echo hello' commands.
The Language containers compile and run a 'hello world' program … The
Database containers perform additions, deletions, updates, and queries on
a database.  The Web Component containers start a web server and respond
to a request.  The Application Platform and Others containers complete
their specific tasks."

A :class:`TaskModel` executes an :class:`~repro.workloads.access.AccessTrace`
against a container's root filesystem mount: it reads every necessary
file (which, under Gear, faults the file in) and advances the clock by
the task's compute time plus a small per-read filesystem cost.  Some
categories also write (databases persist records), exercising the
writable layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.blob import Blob
from repro.common.clock import SimClock
from repro.workloads.access import AccessTrace

#: CPU/page-cache cost of serving one read through the mounted
#: filesystem once the file is local (lookup + copy).
PER_READ_COST_S = 0.00012

#: Local-disk read throughput for already-present content during the run
#: phase (page-cache-warm reads are faster than cold disk, but charging
#: a nominal rate keeps big-file reads from being free).
LOCAL_READ_BPS = 900e6


@dataclass
class TaskResult:
    """Outcome of running a startup task in a container."""

    reference: str
    files_read: int
    bytes_read: int
    bytes_written: int
    duration_s: float
    #: Elapsed virtual seconds (within the task) until the startup read
    #: set — every access in the trace — was fully satisfied.  The
    #: service is *ready* here; writes and compute after this point are
    #: steady-state work, not startup latency (ROADMAP item 5b).
    ready_s: float = 0.0


@dataclass(frozen=True)
class TaskModel:
    """One category's startup task."""

    category: str
    #: Files written during the task and their size (databases write
    #: WALs, web servers write logs, …).
    writes: int = 0
    write_bytes: int = 0

    @cached_property
    def _payload(self) -> Blob:
        """What every write of this task writes: immutable, so one blob,
        hashed once, serves every client that runs the task."""
        return Blob.from_bytes(b"x" * self.write_bytes)

    def run(
        self,
        clock: SimClock,
        mount,
        trace: AccessTrace,
    ) -> TaskResult:
        """Drive the trace through ``mount``, advancing ``clock``.

        ``mount`` is an Overlay2 mount, a Gear File Viewer, or a Slacker
        device view.  Reads of missing content advance the clock inside
        the mount's fault path; this method adds local read costs and
        task compute (:meth:`run_gen`, driven: one park for the whole task).
        """
        return clock.drive(self.run_gen(clock, mount, trace))

    def run_gen(self, clock: SimClock, mount, trace: AccessTrace):
        """:meth:`run` as a generator: ``yield from`` it in a process."""
        timer = clock.timer()
        bytes_read = 0
        for path, _ in trace.accesses:
            blob = yield from mount.read_blob_gen(path)
            bytes_read += blob.size
            yield from clock.advance_gen(
                PER_READ_COST_S + blob.size / LOCAL_READ_BPS, "task-read"
            )
        # The startup read set is satisfied: the service is ready.  The
        # instant is free when no tracer is attached (null-object path).
        ready_s = timer.elapsed()
        clock.instant("ready", ref=trace.reference)
        bytes_written = 0
        for i in range(self.writes):
            mount.write_file(f"/var/run/task-{i}.out", self._payload, parents=True)
            bytes_written += self.write_bytes
            yield from clock.advance_gen(
                self.write_bytes / LOCAL_READ_BPS, "task-write"
            )
        yield from clock.advance_gen(trace.compute_s, "task-compute")
        return TaskResult(
            reference=trace.reference,
            files_read=trace.file_count,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            duration_s=timer.elapsed(),
            ready_s=ready_s,
        )


_TASKS = {
    "Linux Distro": TaskModel(category="Linux Distro"),
    "Language": TaskModel(category="Language", writes=1, write_bytes=4096),
    "Database": TaskModel(category="Database", writes=4, write_bytes=65536),
    "Web Component": TaskModel(category="Web Component", writes=1, write_bytes=8192),
    "Application Platform": TaskModel(
        category="Application Platform", writes=3, write_bytes=32768
    ),
    "Others": TaskModel(category="Others", writes=1, write_bytes=4096),
}


def task_for_category(category: str) -> TaskModel:
    """The startup task model for a Table I category."""
    try:
        return _TASKS[category]
    except KeyError:
        raise KeyError(f"no task model for category {category!r}") from None
