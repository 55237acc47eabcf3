"""Critical-path analysis over a deploy's span tree.

Given a root span (typically ``deploy``), attribute every microsecond
of its makespan to exactly one phase using *exclusive time*: a span's
duration minus the durations of its direct same-track children.  Since
the children of a serial activity tile their parent's interval, the
exclusive times of the root and all its same-track descendants sum to
the root's duration *by construction* — the per-phase table always adds
up to the deploy total, and whatever the instrumentation did not cover
shows up honestly as the root's own exclusive time (reported as
``coverage``, the fraction of the makespan inside child spans).

The *blocking chain* is the greedy walk from the root through the
longest same-track child at each level — the serialized sequence a
latency optimisation would have to shorten (e.g. "73% of makespan is
serialized fetches of 4 large files").

Spans on other tracks (spawned processes: hedged attempts, prefetch)
overlap the parent in virtual time, so their durations cannot be added
to the parent's without double counting; they are excluded from the
attribution and listed separately as concurrent work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import Span, SpanTracer


@dataclass
class ChainStep:
    """One link of the blocking chain."""

    name: str
    duration_s: float
    share: float  # fraction of the root makespan


@dataclass
class CriticalPathReport:
    """Per-phase latency attribution for one root span."""

    root_name: str
    total_s: float
    #: Exclusive seconds per phase name, descending; sums to ``total_s``.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Spans per phase name (to report counts alongside totals).
    phase_counts: Dict[str, int] = field(default_factory=dict)
    #: Greedy longest-child walk from the root.
    chain: List[ChainStep] = field(default_factory=list)
    #: Fraction of the makespan covered by child spans.
    coverage: float = 0.0
    #: Seconds of overlapping work on spawned tracks (not in ``phases``).
    concurrent_s: float = 0.0

    def phase_sum(self) -> float:
        return sum(self.phases.values())

    def table(self) -> List[Tuple[str, float, int, float]]:
        """Rows of ``(phase, seconds, spans, share)`` for printing."""
        rows = []
        for name, seconds in self.phases.items():
            share = seconds / self.total_s if self.total_s > 0 else 0.0
            rows.append((name, seconds, self.phase_counts.get(name, 0), share))
        return rows


def _root_span(tracer: SpanTracer, root_name: str) -> Optional[Span]:
    for span in tracer.finished_spans():
        if span.name == root_name:
            return span
    return None


def critical_path(
    tracer: SpanTracer, root: object = "deploy"
) -> Optional[CriticalPathReport]:
    """Analyse the span tree under ``root`` (a name or a ``Span``).

    Returns ``None`` when no finished span matches.
    """
    if isinstance(root, Span):
        root_span: Optional[Span] = root
    else:
        root_span = _root_span(tracer, str(root))
    if root_span is None or root_span.end_s is None:
        return None

    finished = tracer.finished_spans()
    children: Dict[int, List[Span]] = {}
    for span in finished:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    report = CriticalPathReport(
        root_name=root_span.name, total_s=root_span.duration_s
    )

    # Exclusive-time attribution over the same-track subtree.
    phases: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    concurrent = 0.0
    stack = [root_span]
    while stack:
        span = stack.pop()
        exclusive = span.duration_s
        for child in children.get(span.id, ()):
            if child.track == span.track:
                exclusive -= child.duration_s
                stack.append(child)
            else:
                concurrent += _subtree_duration(child, children)
        phases[span.name] = phases.get(span.name, 0.0) + exclusive
        counts[span.name] = counts.get(span.name, 0) + 1
    report.phases = dict(
        sorted(phases.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    report.phase_counts = counts
    report.concurrent_s = concurrent

    if report.total_s > 0:
        root_exclusive = phases.get(root_span.name, 0.0)
        report.coverage = 1.0 - root_exclusive / report.total_s

    # Blocking chain: greedy longest same-track child.
    cursor = root_span
    while True:
        same_track = [
            c for c in children.get(cursor.id, ()) if c.track == cursor.track
        ]
        if not same_track:
            break
        cursor = max(same_track, key=lambda c: (c.duration_s, -c.id))
        share = (
            cursor.duration_s / report.total_s if report.total_s > 0 else 0.0
        )
        report.chain.append(
            ChainStep(cursor.name, cursor.duration_s, share)
        )
    return report


def _subtree_duration(span: Span, children: Dict[int, List[Span]]) -> float:
    """A spawned subtree's own duration (children overlap; don't add)."""
    return span.duration_s


def format_report(report: CriticalPathReport) -> str:
    """Human-readable per-phase table + blocking chain."""
    lines = [
        f"critical path of {report.root_name!r}: "
        f"total {report.total_s:.6f}s, coverage {report.coverage:.1%}"
    ]
    lines.append(f"{'phase':<16} {'seconds':>12} {'spans':>6} {'share':>7}")
    for name, seconds, count, share in report.table():
        lines.append(f"{name:<16} {seconds:>12.6f} {count:>6} {share:>6.1%}")
    lines.append(
        f"{'(sum)':<16} {report.phase_sum():>12.6f}"
    )
    if report.concurrent_s > 0:
        lines.append(
            f"concurrent work on spawned tracks: {report.concurrent_s:.6f}s"
        )
    if report.chain:
        chain = " -> ".join(
            f"{step.name}[{step.share:.0%}]" for step in report.chain
        )
        lines.append(f"blocking chain: {report.root_name} -> {chain}")
    return "\n".join(lines)
