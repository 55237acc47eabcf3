"""Byte-deterministic exporters: Chrome ``trace_event`` JSON + metrics.

:func:`chrome_trace` renders a :class:`~repro.obs.trace.SpanTracer`'s
recording in the Chrome ``trace_event`` format (the ``traceEvents``
array flavour), which both ``chrome://tracing`` and Perfetto load
directly: one ``M`` thread-name metadata record per track, one ``X``
complete event per finished span, and one ``i`` instant per point
event.  Virtual seconds map to microseconds (the format's native unit).

All JSON is serialized with sorted keys and no whitespace, so two
identical simulation runs produce byte-identical files — the property
``scripts/check.sh`` diffs against.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTracer

#: Virtual seconds → trace_event microseconds.
_US = 1_000_000.0


def chrome_trace(tracer: SpanTracer) -> Dict[str, Any]:
    """The tracer's recording as a Chrome ``trace_event`` object."""
    events: List[Dict[str, Any]] = []
    for track in tracer.tracks():
        events.append(
            {
                "args": {"name": track.name},
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": track.index,
            }
        )
    for span in tracer.finished_spans():
        args: Dict[str, Any] = {"span_id": span.id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key, value in span.labels.items():
            args[key] = value
        events.append(
            {
                "args": args,
                "dur": span.duration_s * _US,
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": span.track,
                "ts": span.start_s * _US,
            }
        )
    for instant in tracer.instants:
        events.append(
            {
                "args": dict(instant.labels),
                "name": instant.name,
                "ph": "i",
                "pid": 1,
                "s": "t",
                "tid": instant.track,
                "ts": instant.at_s * _US,
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def metrics_snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry's flat snapshot (alias kept for export symmetry)."""
    return registry.snapshot()


def dump_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace → byte-deterministic."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_json(tracer: SpanTracer) -> str:
    """:func:`chrome_trace` serialized canonically."""
    return dump_json(chrome_trace(tracer))
