"""Long- and short-running service workloads (Fig. 11).

Long-running: memtier-style closed-loop load against database containers
(Memcached, Redis, 1:10 SET–GET) and ab-style load against web servers
(Nginx, Httpd).  Once a container's working set is resident, requests are
pure CPU + page-cache work — identical under Gear and Docker, which is
the figure's point: lazy retrieval costs nothing at steady state.

Short-running: the custom benchmark of §V-F repeats launch → request →
destroy 100 times; Gear's teardown touches only the inode caches of the
files the container actually used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.rng import rng_for
from repro.workloads.access import AccessTrace

#: CPU time one service request costs (parse + handle + respond).
REQUEST_CPU_S = 0.00009

#: Page-cache read cost per file touched while serving a request.
WARM_READ_COST_S = 0.000012


@dataclass(frozen=True)
class ServiceSpec:
    """One long-running service workload."""

    name: str
    #: Number of distinct image files in the per-request working set.
    working_set_files: int
    #: Files touched per request (sampled from the working set).
    reads_per_request: int
    #: Fraction of requests that also write (SET in the 1:10 ratio ⇒ 0.09
    #: for the databases; log appends for the web servers).
    write_fraction: float
    write_bytes: int


SERVICES: Tuple[ServiceSpec, ...] = (
    ServiceSpec("redis", working_set_files=24, reads_per_request=2,
                write_fraction=0.09, write_bytes=128),
    ServiceSpec("memcached", working_set_files=16, reads_per_request=2,
                write_fraction=0.09, write_bytes=128),
    ServiceSpec("nginx", working_set_files=40, reads_per_request=3,
                write_fraction=0.02, write_bytes=256),
    ServiceSpec("httpd", working_set_files=40, reads_per_request=3,
                write_fraction=0.02, write_bytes=256),
)


def service_spec(name: str) -> ServiceSpec:
    """Look a service workload up by name (KeyError when absent)."""
    for spec in SERVICES:
        if spec.name == name:
            return spec
    raise KeyError(f"no such service: {name!r}")


@dataclass(frozen=True)
class ServiceRunResult:
    """Throughput measurement for one container."""

    service: str
    requests: int
    duration_s: float

    @property
    def requests_per_second(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.requests / self.duration_s


def run_service(
    clock: SimClock,
    mount,
    trace: AccessTrace,
    spec: ServiceSpec,
    *,
    requests: int = 10_000,
    seed: str = "svc",
) -> ServiceRunResult:
    """Drive a closed-loop request load against a mounted container.

    The working set is the head of the startup trace (the service's
    binaries, libraries, and content roots).  First touches pay whatever
    the mount's fault path charges (Gear downloads, Slacker block pulls,
    nothing for Docker); subsequent reads are warm.
    """
    rng = rng_for(seed, spec.name)
    working_set = [
        path for path, _ in trace.accesses[: spec.working_set_files]
    ]
    if not working_set:
        raise ValueError("trace too short to derive a working set")
    timer = clock.timer()
    for request_index in range(requests):
        for _ in range(spec.reads_per_request):
            path = working_set[rng.randrange(len(working_set))]
            mount.read_blob(path)
            clock.advance(WARM_READ_COST_S, "svc-read")
        if rng.random() < spec.write_fraction:
            mount.write_file(
                f"/var/lib/{spec.name}/w{request_index % 64}.dat",
                b"x" * spec.write_bytes,
                parents=True,
            )
        clock.advance(REQUEST_CPU_S, "svc-cpu")
    return ServiceRunResult(
        service=spec.name,
        requests=requests,
        duration_s=timer.elapsed(),
    )
