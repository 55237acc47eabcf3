"""Deterministic network fault injection.

The paper's client depends on the Gear registry being reachable at every
lazy read fault (§III-D2); production on-demand loaders treat the network
as hostile instead — AWS Lambda's container loader layers retries and
integrity re-verification over its lazy chunk fetches, and edge
deployments (EdgePier) exist precisely because edge links are flaky.
This module lets experiments ask the same question: a :class:`FaultPlan`
describes a lossy wire (drops, payload corruption, latency spikes, timed
outage windows) and a :class:`FaultyLink` wraps the ordinary
:class:`~repro.net.link.Link` to inject those faults.

Everything is deterministic: fault decisions are drawn from a
:func:`repro.common.rng.rng_for` stream seeded by the plan, so the same
seed and the same call sequence produce byte-identical fault schedules,
transfer logs, and virtual timings on every run.

Failed attempts still cost virtual time — a dropped request charges the
full client timeout, an outage attempt charges the connect/stall cost —
so resilience machinery (retries, backoff, degraded modes) shows up in
deploy times exactly the way it would on real hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.common.clock import SimClock
from repro.common.errors import ClientCrash, TimeoutError, UnavailableError
from repro.common.rng import rng_for
from repro.net.link import Link
from repro.obs.metrics import MetricSet


@dataclass(frozen=True)
class OutageWindow:
    """A time span during which the targeted peer is unreachable.

    Offsets are relative to the moment the plan is armed (see
    :meth:`FaultyLink.arm`), not absolute clock time, so experiments can
    publish images fault-free and start the outage "now".
    """

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s < 0:
            raise ValueError("outage start and duration must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def contains(self, offset_s: float) -> bool:
        return self.start_s <= offset_s < self.end_s


@dataclass(frozen=True)
class BrownoutWindow:
    """A time span during which the targeted peer is slow, not down.

    Models the server-side degradation between healthy and dead: an
    overloaded or GC-thrashing replica that still answers, just at
    ``factor`` times its nominal service time.  Brownouts are what make
    hedged fetches earn their keep — an outage is caught by the breaker,
    but a brownout only shows up as latency.
    """

    start_s: float
    duration_s: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s < 0:
            raise ValueError("brownout start and duration must be non-negative")
        if self.factor < 1.0:
            raise ValueError("brownout factor must be >= 1")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def contains(self, offset_s: float) -> bool:
        return self.start_s <= offset_s < self.end_s


@dataclass(frozen=True)
class FaultPlan:
    """A declarative description of how the wire misbehaves.

    * ``drop_rate`` — probability a transfer (request or response) is
      lost; the client waits out ``timeout_s`` and sees a
      :class:`~repro.common.errors.TimeoutError`.
    * ``corrupt_rate`` — probability a response payload is corrupted in
      flight.  A fraction ``corrupt_detect_rate`` of corruptions are
      caught by the transport's framing checksum
      (:class:`~repro.common.errors.CorruptPayloadError`, retryable);
      the rest are delivered as tampered payloads for end-to-end
      integrity checks to catch.
    * ``spike_rate`` / ``spike_factor`` — probability a transfer takes
      ``spike_factor`` times its nominal duration (congestion burst);
      the transfer still succeeds.
    * ``outages`` — windows (relative to arming) during which every
      attempt fails with :class:`~repro.common.errors.UnavailableError`
      after charging ``outage_stall_s``.
    * ``brownouts`` — windows (relative to arming) during which every
      transfer is stretched by the window's slowdown factor; the
      transfer still succeeds.  The server-side analogue of a spike.
    * ``targets`` — endpoint names the plan applies to; ``None`` means
      all RPC traffic.  Transfers outside any RPC call are never
      touched.
    * ``label_prefixes`` — transfer-label prefixes the plan applies to;
      ``None`` means every transfer of a targeted call.  This is how
      faults are scoped *below* the endpoint: the chunk-granular read
      path labels its traffic ``gear-chunk:…``, so a plan with
      ``label_prefixes=("gear-chunk:",)`` corrupts or drops individual
      chunk transfers while whole-file downloads on the same endpoint
      sail through untouched.
    """

    seed: str = "faults"
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_detect_rate: float = 0.5
    spike_rate: float = 0.0
    spike_factor: float = 8.0
    timeout_s: float = 1.0
    outage_stall_s: float = 0.5
    outages: Tuple[OutageWindow, ...] = ()
    brownouts: Tuple[BrownoutWindow, ...] = ()
    targets: Optional[Tuple[str, ...]] = None
    label_prefixes: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "corrupt_detect_rate",
                     "spike_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.spike_factor < 1.0:
            raise ValueError("spike_factor must be >= 1")
        if self.timeout_s <= 0 or self.outage_stall_s < 0:
            raise ValueError("timeout/stall costs must be positive")

    def applies_to(self, endpoint_name: Optional[str]) -> bool:
        """Does this plan target traffic to ``endpoint_name``?"""
        if endpoint_name is None:
            return False
        return self.targets is None or endpoint_name in self.targets

    def applies_to_label(self, label: str) -> bool:
        """Does this plan target a transfer labeled ``label``?"""
        if self.label_prefixes is None:
            return True
        return label.startswith(self.label_prefixes)


@dataclass
class LinkFaultStats(MetricSet):
    """What the fault injector actually did."""

    drops: int = 0
    corruptions: int = 0
    corruptions_detected: int = 0
    spikes: int = 0
    outage_rejections: int = 0
    brownout_stretches: int = 0

    @property
    def total_faults(self) -> int:
        return self.drops + self.corruptions + self.outage_rejections


class FaultyLink(Link):
    """A :class:`Link` that injects the faults a :class:`FaultPlan` describes.

    Faults land on the transfers of a :meth:`scoped` view — the RPC
    transport takes one per attempt, naming the endpoint it talks to, so
    the plan can target individual endpoints; raw (non-RPC) transfers on
    the link itself pass through untouched.  Fault decisions are drawn
    from a seeded stream in transfer order, so identical call sequences
    see identical faults.
    """

    def __init__(
        self,
        clock: SimClock,
        plan: FaultPlan,
        *,
        bandwidth_mbps: float = 904.0,
    ) -> None:
        super().__init__(clock, bandwidth_mbps=bandwidth_mbps)
        self.plan = plan
        self.fault_stats = LinkFaultStats()
        self._rng = rng_for("net-faults", plan.seed)
        self._armed_at: Optional[float] = clock.now

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        """Re-anchor outage windows at now.

        Experiments publish images fault-free, then ``arm()`` right
        before deploying so an ``OutageWindow(start_s=0, ...)`` begins at
        deployment time regardless of how long publishing took.
        """
        self._armed_at = self.clock.now

    def disarm(self) -> None:
        """Suspend outage windows until the next :meth:`arm`.

        Rate-based faults (drops, corruption, spikes) stay active — only
        the timed windows are anchored to arming.  Lets experiments warm
        up deployments cleanly, then start the outage "now".
        """
        self._armed_at = None

    def scoped(self, endpoint_name: str) -> "_CallScope":
        """This link as one call to ``endpoint_name`` sees it."""
        return _CallScope(self, endpoint_name)

    # -- fault injection -----------------------------------------------------

    def _current_outage(self) -> Optional[OutageWindow]:
        if self._armed_at is None:
            return None
        offset = self.clock.now - self._armed_at
        for window in self.plan.outages:
            if window.contains(offset):
                return window
        return None

    def _current_brownout(self) -> Optional[BrownoutWindow]:
        if self._armed_at is None:
            return None
        offset = self.clock.now - self._armed_at
        for window in self.plan.brownouts:
            if window.contains(offset):
                return window
        return None

    def tamper(self, payload: object) -> Optional[object]:
        """Return a corrupted stand-in for ``payload``, or None.

        Only content-addressed payloads can carry *undetected* damage to
        the application layer — anything else (booleans, manifests,
        chunk maps) is framed small enough that the transport checksum
        always catches it, so this returns ``None`` and the transport
        raises :class:`~repro.common.errors.CorruptPayloadError`
        instead.  Collision-handled ``uid-…`` Gear files are not
        self-certifying either and likewise fall back to detection.
        """
        from repro.blob import Chunk
        from repro.gear.gearfile import GearFile, content_addressed

        if isinstance(payload, GearFile) and content_addressed(payload.identity):
            return junk_payload(
                payload.identity,
                f"corrupt:{payload.identity}:{self._rng.random():.17f}",
            )
        if isinstance(payload, Chunk):
            # A chunk is content-addressed by its manifest fingerprint:
            # same size, wrong bytes — only the client's per-chunk
            # verification can tell.
            return Chunk(
                seed=f"corrupt:{payload.seed}:{self._rng.random():.17f}",
                size=payload.size,
            )
        return None

    def __repr__(self) -> str:
        return (
            f"FaultyLink({self.bandwidth_mbps:g} Mbps, drop={self.plan.drop_rate}, "
            f"corrupt={self.plan.corrupt_rate}, outages={len(self.plan.outages)})"
        )


def register_faults(metrics: Any, link: Link, scope: str) -> None:
    """Register ``link``'s injected-fault counters, if it injects any."""
    if isinstance(link, FaultyLink):
        metrics.register("link_faults", link.fault_stats, scope=scope)


class _CallScope:
    """One call's view of a :class:`FaultyLink`.

    The endpoint the caller is talking to, and the label of its last
    in-scope leg, travel with the call itself — whichever thread steps
    it — so interleaved callers cannot clobber one another's targeting.
    """

    __slots__ = ("link", "endpoint", "active", "label")

    def __init__(self, link: FaultyLink, endpoint: str) -> None:
        self.link = link
        self.endpoint = endpoint
        self.active = link.plan.applies_to(endpoint)
        #: Label of the most recent in-scope transfer: the response
        #: leg's label decides whether its payload is fair game for a
        #: label-scoped plan (:meth:`roll_corruption`).
        self.label = ""

    def transfer_gen(self, payload_bytes: int, label: str = ""):
        """The link's transfer with the plan's faults applied first."""
        link = self.link
        plan = link.plan
        if self.active:
            self.label = label
        if not (self.active and plan.applies_to_label(label)):
            return (yield from link.transfer_gen(payload_bytes, label))
        clock = link.clock
        window = link._current_outage()
        if window is not None:
            link.fault_stats.outage_rejections += 1
            yield from clock.advance_gen(
                plan.outage_stall_s, f"fault-outage:{label}"
            )
            raise UnavailableError(
                f"{self.endpoint!r} unreachable (outage until "
                f"t+{window.end_s:.2f}s) during {label!r}"
            )
        if plan.drop_rate and link._rng.random() < plan.drop_rate:
            link.fault_stats.drops += 1
            yield from clock.advance_gen(plan.timeout_s, f"fault-drop:{label}")
            raise TimeoutError(
                f"transfer {label!r} to {self.endpoint!r} timed out after "
                f"{plan.timeout_s:g}s (packet lost)"
            )
        if plan.spike_rate and link._rng.random() < plan.spike_rate:
            link.fault_stats.spikes += 1
            extra = link.transfer_time(payload_bytes) * (plan.spike_factor - 1)
            yield from clock.advance_gen(extra, f"fault-spike:{label}")
        brownout = link._current_brownout()
        if brownout is not None:
            link.fault_stats.brownout_stretches += 1
            extra = link.transfer_time(payload_bytes) * (brownout.factor - 1)
            yield from clock.advance_gen(extra, f"fault-brownout:{label}")
        return (yield from link.transfer_gen(payload_bytes, label))

    def roll_corruption(self) -> Optional[str]:
        """Decide the fate of the response payload just transferred.

        Returns ``None`` (intact), ``"detected"`` (framing checksum
        caught the damage), or ``"undetected"`` (tampered payload is
        delivered to the caller).  Called by the transport once per
        successful response.
        """
        link = self.link
        plan = link.plan
        if not self.active or not plan.corrupt_rate:
            return None
        if not plan.applies_to_label(self.label):
            return None
        if link._rng.random() >= plan.corrupt_rate:
            return None
        link.fault_stats.corruptions += 1
        if link._rng.random() < plan.corrupt_detect_rate:
            link.fault_stats.corruptions_detected += 1
            return "detected"
        return "undetected"


def junk_payload(identity: str, text: str) -> Any:
    """A well-formed Gear file named ``identity`` whose bytes are ``text``.

    What every lying server here sends: a corrupting wire, a byzantine
    edge peer, a byzantine shared tier.  Only the viewer's end-to-end
    fingerprint check can tell it from the real file.
    """
    from repro.blob import Blob
    from repro.gear.gearfile import GearFile

    return GearFile(identity=identity, blob=Blob.from_bytes(text.encode("utf-8")))


class CrashPoint(enum.Enum):
    """Where in the admission path the simulated client dies.

    Each point maps to a distinct durable torn state (DESIGN.md §9):

    * ``MID_FETCH`` — during the wire transfer: the journal holds an open
      fetch intent and the pool holds a *torn* partial temp file whose
      content cannot hash to its identity.
    * ``POST_FETCH`` — bytes fully staged, fetch-commit record not yet
      written: an intact but uncommitted pool entry.
    * ``MID_COMMIT`` — fetch-commit record written, pool commit not yet
      applied: the journal promises a file the pool still holds staged.
    * ``MID_LINK`` — the hard link into the index is physically placed
      but the link-commit record is missing.
    """

    MID_FETCH = "mid-fetch"
    POST_FETCH = "post-fetch"
    MID_COMMIT = "mid-commit"
    MID_LINK = "mid-link"


@dataclass(frozen=True)
class CrashPlan:
    """A declarative description of when the client process dies.

    * ``point`` — which admission-path checkpoint fires.
    * ``op_index`` — which occurrence of that point (0-based).  ``None``
      draws the index from a stream seeded by ``seed`` in
      ``[0, horizon)``, so sweeps get varied-but-reproducible crashes.
    * ``at_s`` — when set, the crash instead fires at the *first*
      occurrence of ``point`` at or after this virtual instant
      (``op_index`` is ignored): the scheduler-clock analogue of pulling
      the plug at an exact simulated time.
    * ``partial_fraction`` — how far the wire transfer got when a
      ``MID_FETCH`` crash lands; sets both the partial time charged and
      the size of the torn temp file left staged in the pool.
    """

    point: CrashPoint
    seed: str = "crash"
    op_index: Optional[int] = None
    horizon: int = 4
    at_s: Optional[float] = None
    partial_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.op_index is not None and self.op_index < 0:
            raise ValueError("op_index must be non-negative")
        if self.at_s is not None and self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if not 0.0 <= self.partial_fraction <= 1.0:
            raise ValueError("partial_fraction must be in [0, 1]")


class CrashInjector:
    """Arms a :class:`CrashPlan` and fires it at most once.

    The admission path (the Gear File Viewer) calls :meth:`take` at each
    instrumented checkpoint; when the plan matches, the caller performs
    any point-specific teardown (e.g. staging the torn partial download)
    and then calls :meth:`fire`, which raises
    :class:`~repro.common.errors.ClientCrash` at the current virtual
    instant.  One injector produces exactly one crash; after it fires,
    every later checkpoint passes through untouched.
    """

    def __init__(self, clock: SimClock, plan: CrashPlan) -> None:
        self.clock = clock
        self.plan = plan
        self._counts: Dict[CrashPoint, int] = {point: 0 for point in CrashPoint}
        self._op_index = (
            plan.op_index
            if plan.op_index is not None
            else rng_for("crash", plan.seed, plan.point.value).randrange(
                plan.horizon
            )
        )
        #: The crash this injector produced (None while still armed).
        self.fired: Optional[ClientCrash] = None

    def take(self, point: CrashPoint) -> bool:
        """Count one occurrence of ``point``; True when the crash is due."""
        if self.fired is not None or point is not self.plan.point:
            return False
        occurrence = self._counts[point]
        self._counts[point] += 1
        if self.plan.at_s is not None:
            return self.clock.now >= self.plan.at_s
        return occurrence == self._op_index

    def fire(self, point: CrashPoint) -> None:
        """Kill the client: record the crash and raise it."""
        crash = ClientCrash(
            f"client crashed at {point.value} "
            f"(op {self._counts[point] - 1}, t={self.clock.now:.6f}s)",
            point=point.value,
            op_index=self._counts[point] - 1,
            at_s=self.clock.now,
        )
        self.fired = crash
        raise crash

    def __repr__(self) -> str:
        state = "armed" if self.fired is None else f"fired@{self.fired.at_s:.3f}s"
        return f"CrashInjector({self.plan.point.value}, op={self._op_index}, {state})"


def chunk_plan(
    seed: str = "chunk-faults",
    *,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    corrupt_detect_rate: float = 0.5,
) -> FaultPlan:
    """A plan scoped to chunk-granular traffic (``gear-chunk:`` labels).

    Drops and corruption land only on the Gear registry's
    ``download_chunk`` transfers and their chunk-map lookups; whole-file
    fetches on the same endpoint are untouched.  This is how the chunk
    path's integrity/retry machinery is exercised in isolation.
    """
    return FaultPlan(
        seed=seed,
        drop_rate=drop_rate,
        corrupt_rate=corrupt_rate,
        corrupt_detect_rate=corrupt_detect_rate,
        targets=("gear-registry",),
        label_prefixes=("gear-chunk:", "gear-chunkmap:"),
    )


def byzantine_plan(seed: str = "byzantine") -> FaultPlan:
    """A replica that serves wrong bytes with a straight face.

    Every corruption is *undetected* at the transport layer
    (``corrupt_detect_rate=0``) so only the end-to-end fingerprint
    verification in the Gear File Viewer can catch it — which it does,
    and converts into a replica demotion signal (DESIGN.md §10).
    """
    return FaultPlan(seed=seed, corrupt_rate=1.0, corrupt_detect_rate=0.0)
