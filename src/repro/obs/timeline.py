"""Deterministic virtual-time time-series sampling (the SLO plane's eyes).

The span tracer answers "where did *one* deploy's virtual time go"; this
module answers "what did the *system* look like over virtual time while
a wave ran".  A :class:`TimelineSampler` is a generator process spawned
inside a wave's scheduler: at a seeded-jittered cadence it wakes, reads
every registered probe (in-flight fetches, pool/tier cache bytes,
admission-gate depth, per-link utilization, breaker states, journal
length — whatever callables the caller wires in), and appends one point
per probe to an append-only :class:`TimeSeries`.

Discipline mirrors :class:`~repro.obs.trace.SpanTracer`'s null-object
contract, with one sharpening: *detached means no process exists at
all*.  Even a pure sleeper would consume scheduler sequence numbers and
shift ``events_processed``, so the wave helpers only spawn the sampler
when one is passed — a detached run's event stream is byte-for-byte the
pre-sampler one.  When attached, the sampler reads shared state
but never advances the clock outside its own sleeps and never touches
any other component's RNG stream, so client virtual times are identical
with and without it (``scripts/check.sh`` double-runs certify the
export bytes).

Exports are canonical JSON (:meth:`TimelineSampler.as_dict` under
``dump_json``) plus Chrome ``trace_event`` counter tracks (``ph: "C"``)
via :func:`chrome_counter_events`, so Perfetto renders the gauge series
under the span timeline.

This module imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricSet

#: Virtual seconds → trace_event microseconds (kept in lockstep with
#: :mod:`repro.obs.export`).
_US = 1_000_000.0


class TimeSeries:
    """An append-only series of ``(virtual_time_s, value)`` points."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def append(self, at_s: float, value: float) -> None:
        self.points.append((at_s, float(value)))

    def __len__(self) -> int:
        return len(self.points)

    def times(self) -> List[float]:
        return [at_s for at_s, _ in self.points]

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def last(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

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


class NullTimelineSampler:
    """The detached sampler: every operation is a free no-op.

    The same null-object discipline as ``NULL_SPAN`` — wave code can
    call ``sampler.record(...)`` unconditionally and pay nothing when
    detached.  It deliberately has no ``run``: detached also means no
    process is ever spawned, so the scheduler's event stream is
    untouched.
    """

    __slots__ = ()

    attached = False

    def sample(self) -> None:
        return None

    def record(self, name: str, at_s: float, value: float) -> None:
        return None

    def stop(self) -> None:
        return None


#: Shared detached sampler (allocation-free, like ``NULL_SPAN``).
NULL_TIMELINE = NullTimelineSampler()


class TimelineSampler:
    """Samples gauge probes into time series at a seeded-jittered cadence.

    ``period_s`` is the base cadence; each sleep is jittered by up to
    ``±jitter`` (fractional) from a dedicated seeded RNG, so samples do
    not phase-lock with periodic simulation activity yet remain fully
    deterministic run to run.  Spawn :meth:`run` as a scheduler process
    (``scheduler.spawn(sampler.run, name="timeline")``), and call
    :meth:`stop` once the observed work is done; the sampler exits on
    its next wake without recording further rows.
    """

    attached = True

    def __init__(
        self,
        clock: Any,
        *,
        period_s: float = 0.25,
        jitter: float = 0.2,
        seed: str = "timeline",
        stats: Optional[TimelineStats] = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.clock = clock
        self.period_s = float(period_s)
        self.jitter = float(jitter)
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
        if not self.jitter:
            return self.period_s
        return self.period_s * (
            1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        )

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
            "jitter": self.jitter,
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


def chrome_counter_events(sampler: TimelineSampler) -> List[Dict[str, Any]]:
    """The sampler's series as Chrome ``trace_event`` counter records.

    One ``ph: "C"`` event per point, all on ``tid`` 0 — Perfetto draws
    each named counter as its own track under the process.  Event order
    (series name, then append order) is deterministic, so the export is
    byte-stable across identical runs.
    """
    events: List[Dict[str, Any]] = []
    for name in sorted(sampler.series):
        for at_s, value in sampler.series[name].points:
            events.append(
                {
                    "args": {"value": value},
                    "name": name,
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "ts": at_s * _US,
                }
            )
    return events
