"""Deterministic virtual-time time-series sampling (the SLO plane's eyes).

The span tracer answers "where did *one* deploy's virtual time go"; this
module answers "what did the *system* look like over virtual time while
a wave ran".  A :class:`TimelineSampler` is a generator process spawned
inside a wave's scheduler: at a seeded-jittered cadence it wakes, reads
every registered probe (in-flight fetches, pool/tier cache bytes,
admission-gate depth, per-link utilization, breaker states, journal
length — whatever callables the caller wires in), and appends one point
per probe to an append-only :class:`TimeSeries`.

Detached is spelled ``sampler=None``, and it means *no process exists
at all*: even a pure sleeper would consume scheduler sequence numbers
and shift ``events_processed``, so the wave helpers only spawn the
sampler when one is passed — a detached run's event stream is
byte-for-byte the pre-sampler one.  When attached, the sampler reads shared state
but never advances the clock outside its own sleeps and never touches
any other component's RNG stream, so client virtual times are identical
with and without it (``scripts/check.sh`` double-runs certify the
export bytes).

The export is canonical JSON (:meth:`TimelineSampler.as_dict` under
``dump_json``).

This module imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricSet

#: Each sleep is ``period_s`` jittered by up to this fraction either way.
JITTER = 0.2


class TimeSeries:
    """An append-only series of ``(virtual_time_s, value)`` points."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def append(self, at_s: float, value: float) -> None:
        self.points.append((at_s, float(value)))

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def as_list(self) -> List[List[float]]:
        """JSON-ready ``[[t, v], ...]`` in append order."""
        return [[at_s, value] for at_s, value in self.points]

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, points={len(self.points)})"


@dataclass
class TimelineStats(MetricSet):
    """Sampler accounting, registered as the ``timeline`` metrics group."""

    #: Sampler wakes that recorded a row of gauge points.
    samples: int = 0
    #: Individual gauge points appended across all sampled series.
    points: int = 0
    #: Event points recorded through :meth:`TimelineSampler.record`.
    events: int = 0


class TimelineSampler:
    """Samples gauge probes into time series at a seeded-jittered cadence.

    ``period_s`` is the base cadence; each sleep is jittered by up to
    ``±JITTER`` (fractional) from a dedicated seeded RNG, so samples do
    not phase-lock with periodic simulation activity yet remain fully
    deterministic run to run.  Spawn :meth:`run` as a scheduler process
    (``scheduler.spawn(sampler.run, name="timeline")``), and call
    :meth:`stop` once the observed work is done; the sampler exits on
    its next wake without recording further rows.
    """

    def __init__(
        self,
        clock: Any,
        *,
        period_s: float = 0.25,
        seed: str = "timeline",
        stats: Optional[TimelineStats] = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.clock = clock
        self.period_s = float(period_s)
        self.seed = str(seed)
        self._rng = random.Random(f"timeline:{seed}")
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self.series: Dict[str, TimeSeries] = {}
        self.stats = stats if stats is not None else TimelineStats()
        self._stopped = False

    # -- wiring ------------------------------------------------------------

    def add_probe(self, name: str, probe: Callable[[], float]) -> TimeSeries:
        """Register a gauge probe; every sample appends one point."""
        if any(existing == name for existing, _ in self._probes):
            raise ValueError(f"probe {name!r} already registered")
        self._probes.append((name, probe))
        return self.series_for(name)

    def series_for(self, name: str) -> TimeSeries:
        """Get-or-create the named series (probe or event)."""
        series = self.series.get(name)
        if series is None:
            series = TimeSeries(name)
            self.series[name] = series
        return series

    # -- recording ---------------------------------------------------------

    def sample(self) -> None:
        """Read every probe once, appending points at the current time."""
        at_s = self.clock.now
        for name, probe in self._probes:
            self.series[name].append(at_s, probe())
        self.stats.samples += 1
        self.stats.points += len(self._probes)

    def record(self, name: str, at_s: float, value: float) -> None:
        """Append one event point (e.g. a deployment's readiness latency,
        timestamped at the instant it became ready)."""
        self.series_for(name).append(at_s, value)
        self.stats.events += 1

    def next_delay(self) -> float:
        """The next seeded-jittered sleep (one RNG draw per wake)."""
        return self.period_s * (1.0 + JITTER * (2.0 * self._rng.random() - 1.0))

    def run(self) -> Iterator[float]:
        """Generator-process body: sleep, sample, repeat until stopped."""
        while True:
            yield self.next_delay()
            if self._stopped:
                return
            self.sample()

    def stop(self) -> None:
        """Ask the sampler to exit on its next wake (no further rows)."""
        self._stopped = True

    # -- export ------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary; canonical under ``dump_json``."""
        return {
            "period_s": self.period_s,
            "jitter": JITTER,
            "seed": self.seed,
            "samples": self.stats.samples,
            "series": {
                name: series.as_list()
                for name, series in sorted(self.series.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"TimelineSampler(probes={len(self._probes)}, "
            f"series={len(self.series)}, samples={self.stats.samples})"
        )
