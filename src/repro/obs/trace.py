"""Virtual-time span tracing over the simulated clock.

A :class:`SpanTracer` records nestable spans (``deploy`` →
``pull_index`` / ``fetch_file`` / ``link`` / ``hedge`` / ``fsck`` …)
against a duck-typed clock (anything with ``.now`` and ``.scheduler``).
Recording costs *zero virtual time* — spans only read the clock — and
wall-clock overhead is a couple of list operations per span, so the
instrumentation stays always-on in the code and is literally free when
no tracer is attached (the clock returns a shared null span then).

Concurrency model: one *track* per scheduler process (plus track 0 for
the main/sequential activity).  Each track keeps its own stack of open
spans, so concurrent fleet clients interleave correctly instead of
nesting into each other.  When a process is spawned, the spawner's
innermost open span becomes the new track's base parent — a hedged
attempt process, for example, parents under the ``hedge`` span that
launched it.  Track indexes and span ids are assigned in creation order,
which is deterministic under the ``(time, seq)``-ordered scheduler, so
identical runs produce byte-identical exports.

This module imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One recorded interval on a track.

    ``end_s`` is ``None`` while the span is open; exporters and the
    critical-path analysis only consider finished spans.
    """

    __slots__ = ("id", "parent_id", "track", "name", "start_s", "end_s", "labels")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        track: int,
        name: str,
        start_s: float,
        labels: Dict[str, Any],
    ) -> None:
        self.id = span_id
        self.parent_id = parent_id
        self.track = track
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.labels = labels

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def annotate(self, **labels: Any) -> "Span":
        """Attach labels discovered mid-span (bytes moved, outcome, …)."""
        self.labels.update(labels)
        return self

    def __repr__(self) -> str:
        end = f"{self.end_s:.6f}" if self.end_s is not None else "open"
        return (
            f"Span({self.name!r}, id={self.id}, track={self.track}, "
            f"[{self.start_s:.6f}, {end}])"
        )


class Instant:
    """A point event (clock advance labels, cache hits, cancellations)."""

    __slots__ = ("at_s", "name", "track", "labels")

    def __init__(
        self, at_s: float, name: str, track: int, labels: Dict[str, Any]
    ) -> None:
        self.at_s = at_s
        self.name = name
        self.track = track
        self.labels = labels

    def __repr__(self) -> str:
        return f"Instant({self.name!r}, t={self.at_s:.6f})"


class _Track:
    """Per-process span stack."""

    __slots__ = ("index", "name", "stack", "base_parent_id")

    def __init__(
        self, index: int, name: str, base_parent_id: Optional[int]
    ) -> None:
        self.index = index
        self.name = name
        #: Open spans, innermost last.
        self.stack: List[Span] = []
        #: Parent inherited from the spawning process's innermost span.
        self.base_parent_id = base_parent_id

    def current_parent_id(self) -> Optional[int]:
        if self.stack:
            return self.stack[-1].id
        return self.base_parent_id


class _OpenSpan:
    """Context manager pairing one ``begin`` with its ``end``."""

    __slots__ = ("_tracer", "_name", "_labels", "span")

    def __init__(
        self, tracer: "SpanTracer", name: str, labels: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._labels = labels
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(self._name, **self._labels)
        return self.span

    def __exit__(self, *exc_info: object) -> bool:
        if self.span is not None:
            self._tracer.end(self.span)
        return False


class SpanTracer:
    """Records spans and instants against a simulated clock.

    Attach to a clock with ``clock.attach_tracer(tracer)`` (or construct
    the clock with ``trace=True``); every ``clock.span(...)`` /
    ``clock.instant(...)`` call then lands here.  The tracer never
    advances the clock.
    """

    __slots__ = (
        "clock",
        "spans",
        "instants",
        "_tracks",
        "_tracks_by_index",
        "_next_id",
    )

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._tracks: Dict[Any, _Track] = {}
        #: Same tracks, addressable by ``track.index`` without a scan.
        self._tracks_by_index: List[_Track] = []
        self._next_id = 1
        self._track_for(None)  # track 0: the main/sequential activity

    # -- track bookkeeping -------------------------------------------------

    def _current_key(self) -> Any:
        scheduler = getattr(self.clock, "scheduler", None)
        if scheduler is None:
            return None
        # The generator being stepped, else the call process owning this
        # thread: a driven call process keeps one track across both.
        return scheduler.current_process()

    def _track_for(self, key: Any) -> _Track:
        track = self._tracks.get(key)
        if track is None:
            name = "main" if key is None else getattr(key, "name", str(key))
            track = _Track(len(self._tracks), name, None)
            self._tracks[key] = track
            self._tracks_by_index.append(track)
        return track

    def on_spawn(self, process: Any) -> None:
        """Scheduler hook: a new process inherits the spawner's span.

        Called from the spawning activity's own thread, so the *current*
        track is the spawner's — its innermost open span becomes the new
        process track's base parent.
        """
        spawner = self._track_for(self._current_key())
        track = self._track_for(process)
        track.base_parent_id = spawner.current_parent_id()

    def tracks(self) -> List[_Track]:
        """Every track in creation order (deterministic)."""
        return list(self._tracks_by_index)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **labels: Any) -> _OpenSpan:
        """A context manager opening a span on entry, closing on exit."""
        return _OpenSpan(self, name, labels)

    def begin(self, name: str, **labels: Any) -> Span:
        track = self._track_for(self._current_key())
        span = Span(
            self._next_id,
            track.current_parent_id(),
            track.index,
            name,
            self.clock.now,
            labels,
        )
        self._next_id += 1
        track.stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> Span:
        span.end_s = self.clock.now
        stack = self._tracks_by_index[span.track].stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            # Normally the innermost; tolerate out-of-order ends
            # (an exception unwinding through nested withs).
            stack.remove(span)
        return span

    def instant(self, name: str, **labels: Any) -> Instant:
        track = self._track_for(self._current_key())
        event = Instant(self.clock.now, name, track.index, labels)
        self.instants.append(event)
        return event

    # -- views -------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Spans with both endpoints, in begin order."""
        return [span for span in self.spans if span.end_s is not None]

    def compat_trace(self) -> List[Tuple[float, str]]:
        """The legacy ``SimClock.trace`` view: ``(timestamp, label)``."""
        return [(event.at_s, event.name) for event in self.instants]

    def __repr__(self) -> str:
        return (
            f"SpanTracer(spans={len(self.spans)}, "
            f"instants={len(self.instants)}, tracks={len(self._tracks)})"
        )
