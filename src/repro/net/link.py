"""Bandwidth/latency link model with flow-based contention.

In sequential mode (no :class:`~repro.common.clock.SimScheduler`
attached to the clock) a transfer blocks the world and advances the
clock by the closed-form cost — the seed model, byte-identical.

Inside a scheduler process a transfer becomes a *flow*: while N flows
are active on the link they fair-share its capacity (processor
sharing), so concurrent client deployments contend for the registry
uplink exactly the way the paper's §I fleet motivation describes.  A
flow's service demand is its nominal sequential duration
(``rtt + overhead + payload / bandwidth``); with a single active flow it
completes in exactly that time, reproducing the seed formula to the
bit, and with N flows each progresses at 1/N of real time.

Fair sharing is accounted *incrementally* via a cumulative virtual
service time ``V`` (the classic processor-sharing trick): ``V``
advances by ``dt / N`` while N flows are active and is only updated on
flow-set *membership changes* (a flow entering, completing, or being
cancelled).  A flow entering at virtual service ``V0`` with demand
``S`` completes when ``V`` reaches ``V0 + S``; completions are kept in
a min-heap keyed by that target.  The seed model recomputed every
flow's remaining demand on every event — O(N) per membership change,
O(N²) per wave — which is what capped fleet sweeps at ~64 clients.
``V`` resets to zero whenever the link goes idle, so a sole flow's
completion delay is computed as ``(S - 0.0) * 1``: bit-identical to
the seed formula, not merely close.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.common.clock import SUSPEND, Process, SimClock, SimScheduler
from repro.common.columns import RecordView
from repro.common.errors import FetchCancelledError
from repro.common.units import mbps_to_bytes_per_s

#: Remaining service below this many seconds counts as complete (guards
#: against float drift when shares are subtracted incrementally).
_FLOW_EPS = 1e-12

#: The fixed cost of every transfer (see :class:`Link`).
RTT_S = 0.0005
REQUEST_OVERHEAD_S = 0.0015


class TransferRecord(NamedTuple):
    """One completed transfer over a link, as a reader of
    :attr:`TransferLog.records` sees it (the log itself keeps columns,
    not these: DESIGN.md §17)."""

    start: float
    duration: float
    payload_bytes: int
    label: str

    @property
    def end(self) -> float:
        return self.start + self.duration


class TransferLog:
    """Accumulated traffic accounting for an experiment.

    A transfer is one row of four columns — start and duration in
    ``array('d')``, payload bytes in ``array('q')``, the (interned) label
    in a list — so a log of any length is four objects, none of them
    walked by the collector per row.  Totals are maintained as running
    counters on :meth:`append` — they are read inside deploy loops, so
    re-summing the columns on every access would make accounting
    quadratic in experiment length.
    """

    __slots__ = ("_starts", "_durations", "_payloads", "_labels",
                 "_total_bytes", "_total_time")

    def __init__(self) -> None:
        self._starts = array("d")
        self._durations = array("d")
        self._payloads = array("q")
        self._labels: List[str] = []
        self._total_bytes = 0
        self._total_time = 0.0

    def append(
        self, start: float, duration: float, payload_bytes: int, label: str
    ) -> None:
        """Record a completed transfer, updating the running totals."""
        self._starts.append(start)
        self._durations.append(duration)
        self._payloads.append(payload_bytes)
        self._labels.append(label)
        self._total_bytes += payload_bytes
        self._total_time += duration

    @property
    def records(self) -> "TransferRecords":
        """The transfers so far, oldest first (a live read-only view)."""
        return TransferRecords(self)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    @property
    def total_requests(self) -> int:
        return len(self._labels)

    @property
    def total_time(self) -> float:
        return self._total_time


class TransferRecords(RecordView):
    """:attr:`TransferLog.records`: a :class:`TransferRecord` per row."""

    __slots__ = ("_log",)

    def __init__(self, log: TransferLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log._labels)

    def _rows(self, rows: slice) -> Iterator[TransferRecord]:
        log = self._log
        return (
            TransferRecord(*row)
            for row in zip(log._starts[rows], log._durations[rows],
                           log._payloads[rows], log._labels[rows])
        )


class _Flow:
    """One in-flight transfer under processor sharing."""

    __slots__ = ("vtarget", "nominal_s", "start", "payload_bytes",
                 "label", "process", "contended", "cancelled",
                 "partial_bytes")

    def __init__(self, process: Process, nominal_s: float, start: float,
                 payload_bytes: int, label: str) -> None:
        #: Cumulative link virtual-service time at which this flow
        #: completes (entry ``V`` + nominal demand); set on admission.
        self.vtarget = nominal_s
        self.nominal_s = nominal_s
        self.start = start
        self.payload_bytes = payload_bytes
        self.label = label
        #: The one process parked on this flow, woken when it ends.
        self.process = process
        self.contended = False
        #: Set by :meth:`Link.cancel_flows`: the transfer was aborted
        #: mid-flight and only ``partial_bytes`` of the payload moved.
        self.cancelled = False
        self.partial_bytes = 0


class Link:
    """A duplex point-to-point link with bandwidth and per-request cost.

    ``transfer`` costs::

        RTT_S + REQUEST_OVERHEAD_S + payload / bandwidth

    * ``RTT_S`` models connection/request latency (paper testbed: a LAN, so
      sub-millisecond);
    * ``REQUEST_OVERHEAD_S`` models fixed protocol work per object fetched —
      HTTP framing, registry auth, object-store lookup.  It is the term
      that punishes block-granular lazy pulls (Slacker) relative to
      file-granular ones (Gear);
    * payload time scales inversely with the configured bandwidth.

    Concurrent transfers (scheduler processes) fair-share the link; see
    the module docstring for the contention model.
    """

    def __init__(
        self,
        clock: SimClock,
        *,
        bandwidth_mbps: float = 904.0,
    ) -> None:
        self.clock = clock
        self.bandwidth_mbps = bandwidth_mbps
        self.log = TransferLog()
        #: Active flows (scheduler mode only), in arrival order
        #: (insertion-ordered dict used as an O(1)-delete ordered set).
        self._flows: Dict[_Flow, None] = {}
        #: Completion min-heap of ``(vtarget, tiebreak, flow)``; stale
        #: entries (cancelled flows) are skipped lazily on pop.
        self._targets: List[Tuple[float, int, _Flow]] = []
        self._target_seq = itertools.count()
        #: Cumulative virtual service time V (advances dt/N; reset to
        #: 0.0 whenever the link idles — the sole-flow bit-exactness
        #: anchor, see the module docstring).
        self._vtime = 0.0
        self._vlast = clock.now
        #: The one active flow that has never shared the link, if any
        #: (lets contended-marking stay O(1) per membership change).
        self._sole_flow: Optional[_Flow] = None
        #: Processes with a pending cancellation but no active flow on
        #: this link right now (e.g. parked in a fault stall): their next
        #: transfer attempt raises instead of starting a new flow.
        self._cancel_pending: Set[Process] = set()
        self._completion_event = None
        #: Cumulative seconds the link spent carrying at least one
        #: transfer — the occupancy operators provision uplinks for.
        self._busy_s = 0.0
        self._busy_since: Optional[float] = None

    @property
    def bandwidth_mbps(self) -> float:
        return self._bandwidth_mbps

    @bandwidth_mbps.setter
    def bandwidth_mbps(self, bandwidth_mbps: float) -> None:
        # The byte rate is worked out once here, not on every transfer.
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_mbps}")
        self._bandwidth_mbps = bandwidth_mbps
        self._bytes_per_second = mbps_to_bytes_per_s(bandwidth_mbps)

    @property
    def active_flows(self) -> int:
        """Number of transfers currently sharing the link."""
        return len(self._flows)

    @property
    def busy_seconds(self) -> float:
        """Total virtual time the link spent with ≥1 transfer in flight."""
        if self._busy_since is not None:
            return self._busy_s + (self.clock.now - self._busy_since)
        return self._busy_s

    def transfer_time(self, payload_bytes: int) -> float:
        """Time one uncontended transfer of ``payload_bytes`` takes."""
        if payload_bytes < 0:
            raise ValueError(f"payload must be non-negative, got {payload_bytes}")
        return RTT_S + REQUEST_OVERHEAD_S + payload_bytes / self._bytes_per_second

    def transfer(self, payload_bytes: int, label: str = "") -> float:
        """Perform a transfer: advance the clock, log it, return duration.

        Sequentially this is the seed cost model verbatim.  Inside a
        scheduler process the call drives :meth:`transfer_gen` until the
        flow drains under fair sharing; the returned (and logged) duration
        is the nominal cost when the flow never shared the link — bit-identical
        to the sequential model — and the actual stretched duration otherwise.
        """
        scheduler = self.clock.scheduler
        if scheduler is not None and scheduler.current_process() is not None:
            return scheduler.drive(self.transfer_gen(payload_bytes, label))
        self.clock.settle_debt()
        duration = self.transfer_time(payload_bytes)
        start = self.clock.now
        self.clock.advance(duration, label or f"transfer:{payload_bytes}B")
        self._busy_s += duration
        self.log.append(start, duration, payload_bytes, label)
        return duration

    def scoped(self, endpoint_name: str) -> "Link":
        """This link as one RPC attempt to ``endpoint_name`` sees it: a
        plain link has no faults to scope, so itself."""
        return self

    # -- processor-sharing flows (scheduler mode) --------------------------

    def transfer_gen(self, payload_bytes: int, label: str = ""):
        """The transfer as a generator: ``yield from`` it in a process.

        The one flow path: the waiting process parks by yielding
        :data:`~repro.common.clock.SUSPEND` until its flow drains (or is
        cancelled), after settling any deferred debt — flows start at
        settled virtual time.  Outside a stepped process (sequential
        mode, or a call process that is not being driven) it falls back
        to :meth:`transfer`, so shared code can use it unconditionally.
        Returns the logged duration; raises :class:`FetchCancelledError`
        when :meth:`cancel_flows` aborts it.
        """
        scheduler = self.clock._scheduler
        # Only a stepped process can park on a flow.
        process = scheduler._current_gen if scheduler is not None else None
        if process is None:
            return self.transfer(payload_bytes, label)
        if process._debt:
            yield from self.clock.advance_gen(0.0)
        duration = self.transfer_time(payload_bytes)
        if self._cancel_pending:
            self._check_cancel_pending(process, payload_bytes, label)
        flow = self._open_flow(process, payload_bytes, duration, label)
        self._rearm(scheduler)
        yield SUSPEND
        return self._finish_flow(flow, payload_bytes, label)

    def _check_cancel_pending(
        self, process: Process, payload_bytes: int, label: str
    ) -> None:
        if process in self._cancel_pending:
            self._cancel_pending.discard(process)
            raise FetchCancelledError(
                f"transfer cancelled before start: {label or payload_bytes}",
                bytes_transferred=0,
            )

    def _open_flow(
        self, process: Process, payload_bytes: int, nominal_s: float, label: str
    ) -> _Flow:
        """Admit a flow: set its completion target, mark contention."""
        start = self.clock._now
        self._advance_vtime()
        flow = _Flow(process, nominal_s, start, payload_bytes, label)
        flow.vtarget = self._vtime + nominal_s
        self._flows[flow] = None
        heapq.heappush(self._targets, (flow.vtarget, next(self._target_seq), flow))
        sole = self._sole_flow
        if sole is not None:
            # The incumbent was alone until now: both flows contend.
            sole.contended = True
            self._sole_flow = None
            flow.contended = True
        elif len(self._flows) > 1:
            flow.contended = True
        else:
            self._sole_flow = flow
            if self._busy_since is None:
                self._busy_since = start
        return flow

    def _finish_flow(self, flow: _Flow, payload_bytes: int, label: str) -> float:
        """Post-wake bookkeeping: log the transfer or raise cancellation."""
        clock = self.clock
        start = flow.start
        elapsed = clock._now - start
        traced = clock._tracer is not None
        if flow.cancelled:
            if traced:
                clock.instant(f"cancelled:{label or payload_bytes}")
            self.log.append(
                start,
                elapsed,
                flow.partial_bytes,
                f"{label}:cancelled" if label else "cancelled",
            )
            raise FetchCancelledError(
                f"transfer cancelled in flight: {label or payload_bytes}",
                bytes_transferred=flow.partial_bytes,
            )
        duration = flow.nominal_s if not flow.contended else elapsed
        if traced:
            clock.instant(label or f"transfer:{payload_bytes}B")
        self.log.append(start, duration, payload_bytes, label)
        return duration

    def _advance_vtime(self) -> None:
        """Accrue virtual service since the last membership change."""
        now = self.clock._now
        if self._flows:
            dt = now - self._vlast
            if dt > 0.0:
                self._vtime += dt / len(self._flows)
        self._vlast = now

    def _rearm(self, scheduler: SimScheduler) -> None:
        """(Re)arm the completion event for the earliest-finishing flow."""
        event = self._completion_event
        if event is not None:
            scheduler.cancel(event)
            self._completion_event = None
        flows = self._flows
        if not flows:
            now = self.clock._now
            if self._busy_since is not None:
                self._busy_s += now - self._busy_since
                self._busy_since = None
            # Idle link: reset virtual service so the next sole flow's
            # delay is (nominal - 0.0) * 1 — the seed formula, bit-exact.
            self._vtime = 0.0
            self._vlast = now
            self._targets.clear()
            return
        targets = self._targets
        vtarget, _, head = targets[0]
        while head not in flows:  # drop stale (cancelled) heads
            heapq.heappop(targets)
            vtarget, _, head = targets[0]
        remaining = vtarget - self._vtime
        if remaining < 0.0:
            remaining = 0.0
        self._completion_event = scheduler.schedule_transient(
            remaining * len(flows), self._complete_due_flows
        )

    def _complete_due_flows(self) -> None:
        self._completion_event = None
        scheduler = self.clock._scheduler
        self._advance_vtime()
        flows = self._flows
        targets = self._targets
        threshold = self._vtime + _FLOW_EPS
        done: List[_Flow] = []
        while targets:
            vtarget, _, flow = targets[0]
            if flow not in flows:
                heapq.heappop(targets)  # stale: cancelled mid-flight
            elif vtarget <= threshold:
                heapq.heappop(targets)
                del flows[flow]
                done.append(flow)
            else:
                break
        if not done:
            # Float drift left the designated flow epsilon short; it is
            # due by construction of the completion event.
            while True:
                _, _, flow = heapq.heappop(targets)
                if flow in flows:
                    del flows[flow]
                    done.append(flow)
                    break
        for flow in done:
            if flow is self._sole_flow:
                self._sole_flow = None
            scheduler._wake(flow.process)
        self._rearm(scheduler)

    # -- hedged-fetch cancellation -----------------------------------------

    def cancel_flows(self, process: Process) -> int:
        """Abort every in-flight transfer ``process`` is waiting on.

        Used by the hedging controller to kill the losing replica fetch
        the moment the winner lands.  Each cancelled flow is charged only
        the payload fraction it had actually moved under fair sharing
        (the losing transfer did consume link capacity until now — that
        is the "wasted hedge bytes" the benchmark reports).  The waiter
        wakes and raises :class:`FetchCancelledError` carrying the
        partial byte count.

        If the process has no active flow on this link (it is parked in
        a fault stall or between request and response frames), a pending
        cancellation is recorded instead: its *next* transfer attempt on
        this link raises immediately at zero bytes.  Returns the number
        of flows actually cancelled.
        """
        scheduler = self.clock.scheduler
        if scheduler is None:
            raise RuntimeError("cancel_flows requires a scheduler")
        self.clock.settle_debt()
        self._advance_vtime()
        victims = [flow for flow in self._flows if flow.process is process]
        if not victims:
            self._cancel_pending.add(process)
            return 0
        vtime = self._vtime
        for flow in victims:
            if flow.nominal_s > 0:
                remaining = flow.vtarget - vtime
                if remaining < 0.0:
                    remaining = 0.0
                done_frac = 1.0 - remaining / flow.nominal_s
            else:
                done_frac = 1.0
            flow.partial_bytes = int(flow.payload_bytes * min(max(done_frac, 0.0), 1.0))
            flow.cancelled = True
            del self._flows[flow]
            if flow is self._sole_flow:
                self._sole_flow = None
            scheduler._wake(process)
        self._rearm(scheduler)
        return len(victims)

    def clear_cancel(self, process: Process) -> None:
        """Drop a pending cancellation that never met a transfer."""
        self._cancel_pending.discard(process)

    def __repr__(self) -> str:
        return (
            f"Link({self.bandwidth_mbps:g} Mbps, rtt={RTT_S * 1e3:.2f} ms, "
            f"overhead={REQUEST_OVERHEAD_S * 1e3:.2f} ms)"
        )
