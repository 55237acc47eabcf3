"""Trace-driven prefetching of Gear files.

Gear's design is purely demand-driven: files travel when a read faults
(§III-D2).  That minimizes bytes but serializes fetch latency into the
container's critical path.  A registry that has seen a container start
before knows which files it will need — the startup trace — so a client
can overlap fetching with container startup.

This module implements that extension with the paper's own primitives:

* :class:`TraceRecorder` turns a deployment's fault sequence into a
  stored profile (what the registry side would accumulate);
* :class:`Prefetcher` replays a profile against a viewer, warming the
  shared cache through the ordinary fault path so all sharing/dedup
  semantics are preserved.

The ablation benchmark compares cold, prefetch-all, and prefetch-top-N
strategies; the interesting trade-off is wasted bytes (profile entries
the container never reads) versus first-read latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.clock import NULL_SPAN
from repro.gear.viewer import GearFileViewer


@dataclass(frozen=True)
class StartupProfile:
    """The remembered startup behaviour of one image."""

    reference: str
    #: (path, size) in first-access order.
    entries: Tuple[Tuple[str, int], ...]

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size in self.entries)

    def head_by_bytes(self, byte_budget: int) -> "StartupProfile":
        """The prefix of the profile fitting a byte budget."""
        picked: List[Tuple[str, int]] = []
        spent = 0
        for path, size in self.entries:
            if spent + size > byte_budget and picked:
                break
            picked.append((path, size))
            spent += size
        return StartupProfile(reference=self.reference, entries=tuple(picked))


class TraceRecorder:
    """Collects per-image startup profiles from live deployments."""

    def __init__(self) -> None:
        self._profiles: Dict[str, StartupProfile] = {}

    def record(self, reference: str, viewer: GearFileViewer) -> StartupProfile:
        """Snapshot the files a mount has touched so far, in index order.

        Called after a container's startup task completes; subsequent
        deployments of ``reference`` can prefetch this set.
        """
        links = viewer.index.links
        entries = tuple(
            (path, entry.size)
            for path, entry in viewer.index.entries.items()
            if path in links
        )
        profile = StartupProfile(reference=reference, entries=entries)
        self._profiles[reference] = profile
        return profile

    def profile_for(self, reference: str) -> Optional[StartupProfile]:
        return self._profiles.get(reference)


@dataclass
class PrefetchReport:
    """What one prefetch pass moved."""

    reference: str
    files_prefetched: int = 0
    bytes_prefetched: int = 0
    cache_hits: int = 0


def replay_profile(
    viewer: GearFileViewer, profile: StartupProfile
) -> PrefetchReport:
    """Fault every profiled file in through ``viewer``'s ordinary path.

    Cache sharing, hard linking, and network accounting behave exactly
    as demand fetches do — prefetching only *moves* the cost off the
    critical path.  Run it as a scheduler process (see
    :meth:`GearDriver.spawn_prefetch <repro.gear.driver.GearDriver.spawn_prefetch>`)
    and it overlaps the startup trace instead of preceding it: the
    single-flight pool registry makes a prefetcher racing the task wait
    for in-flight downloads rather than duplicating them.
    """
    report = PrefetchReport(reference=profile.reference)
    span = (
        viewer.clock.span("prefetch", ref=profile.reference)
        if viewer.clock is not None
        else NULL_SPAN
    )
    with span as s:
        for path, size in profile.entries:
            if not viewer.exists(path):
                continue
            hits_before = viewer.fault_stats.cache_hits
            viewer.prefetch(path)
            report.files_prefetched += 1
            report.bytes_prefetched += size
            if viewer.fault_stats.cache_hits > hits_before:
                report.cache_hits += 1
        s.annotate(
            files=report.files_prefetched, bytes=report.bytes_prefetched
        )
    return report


class Prefetcher:
    """Warms a viewer's cache from a startup profile."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    def prefetch(
        self,
        reference: str,
        viewer: GearFileViewer,
        *,
        byte_budget: Optional[int] = None,
    ) -> PrefetchReport:
        """Fault the profiled files in ahead of demand."""
        profile = self.recorder.profile_for(reference)
        if profile is None:
            return PrefetchReport(reference=reference)
        if byte_budget is not None:
            profile = profile.head_by_bytes(byte_budget)
        return replay_profile(viewer, profile)
