"""Simulation-native telemetry: spans, metrics, exporters, critical path.

The observability plane the evaluation figures lean on.  Six pieces:

* :mod:`repro.obs.trace` — nestable virtual-time spans with parent ids
  and per-process tracks, recorded at zero virtual-time cost;
* :mod:`repro.obs.metrics` — the stats dataclasses (RPC, pool, HA,
  faults, …) behind one ``snapshot()`` registry; counters only grow,
  and a reader diffs two reads for one epoch;
* :mod:`repro.obs.timeline` — a deterministic virtual-time sampler
  process recording gauge series over a wave (spawned only when
  attached, so the detached path is byte-identical);
* :mod:`repro.obs.slo` — declarative objectives with windowed
  burn-rate evaluation over a wave's series;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto,
  counter tracks included) and a flat metrics-JSON dump, both
  byte-deterministic;
* :mod:`repro.obs.critical` — critical-path analysis over a deploy's
  span tree (per-phase latency attribution that sums to the total).

This package imports nothing from the rest of :mod:`repro`, so every
layer (the clock included) may depend on it without cycles.
"""

from repro.obs.critical import CriticalPathReport, critical_path, format_report
from repro.obs.export import (
    chrome_trace,
    dump_json,
    metrics_snapshot,
    trace_json,
)
from repro.obs.metrics import MetricSet, MetricsRegistry
from repro.obs.slo import (
    Objective,
    ObjectiveOutcome,
    SloReport,
    evaluate,
    window_burn_rates,
)
from repro.obs.timeline import (
    NULL_TIMELINE,
    NullTimelineSampler,
    TimeSeries,
    TimelineSampler,
    TimelineStats,
    chrome_counter_events,
)
from repro.obs.trace import Span, SpanTracer

__all__ = [
    "CriticalPathReport",
    "MetricSet",
    "MetricsRegistry",
    "NULL_TIMELINE",
    "NullTimelineSampler",
    "Objective",
    "ObjectiveOutcome",
    "SloReport",
    "Span",
    "SpanTracer",
    "TimeSeries",
    "TimelineSampler",
    "TimelineStats",
    "chrome_counter_events",
    "chrome_trace",
    "critical_path",
    "dump_json",
    "evaluate",
    "format_report",
    "metrics_snapshot",
    "trace_json",
    "window_burn_rates",
]
