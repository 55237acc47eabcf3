"""Highly-available Gear registry serving tier.

The paper's Gear Registry is one file server (§III-C) — a single point
of failure and a single queueing bottleneck for exactly the fleet-scale
regime the paper motivates (§I).  This module adds the serving-tier
robustness layer around it, deterministic under the PR 2 scheduler:

* :class:`ReplicaSet` — N registries, each behind its own link and
  transport, kept consistent by in-process write fan-out on upload;
* :class:`CircuitBreaker` — per-replica closed → open → half-open with
  virtual-time cooldowns, driven by call outcomes and by the
  :class:`HealthMonitor` probe process;
* :class:`HAFetchPolicy` — the client-side read path: replica selection
  (primary-first / seeded power-of-two-choices), hedged
  second fetch after a latency-percentile deadline with loser
  cancellation (charging only bytes actually moved), replica-by-replica
  failover, and backoff rounds under a :class:`~repro.net.resilience.
  RetryPolicy` before ever surfacing the outage to PR 1's degraded
  Docker-pull mode;
* server-side overload control — a bounded
  :class:`~repro.net.resilience.AdmissionGate` per replica sheds excess
  requests with a typed
  :class:`~repro.common.errors.RegistryOverloadedError`;
* :class:`HATransport` — the replica tier's link in the download chain
  (a :class:`~repro.net.resilience.TransportDecorator`): ``gear-registry``
  traffic goes through the policy, everything else (Docker registry) to
  the base transport unchanged.

Everything is deterministic: selection and backoff draw from
:func:`repro.common.rng.rng_for` streams, hedge deadlines come from the
shared nearest-rank :func:`repro.common.stats.percentile`, and all
bookkeeping is charged zero virtual time, so with every replica healthy
and no hedge fired the HA path is byte-identical to the single-registry
one.

This module deliberately does not import :mod:`repro.gear` (which
imports :mod:`repro.net`); replica registries are duck-typed against the
``GearRegistry`` verbs (query/upload/download/stat/delete/identities).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import Process, SimClock, SimEvent
from repro.common.errors import (
    FetchCancelledError,
    NotFoundError,
    RegistryOverloadedError,
    TransportError,
    UnavailableError,
)
from repro.common.rng import rng_for
from repro.common.stats import percentile
from repro.obs.metrics import MetricSet
from repro.net.faults import register_faults
from repro.net.link import Link
from repro.net.resilience import (
    GEAR_ENDPOINT,
    RETRYABLE_ERRORS,
    AdmissionGate,
    RetryPolicy,
    Service,
    Source,
    Tier,
    TransportDecorator,
    walk,
)
from repro.net.transport import RpcStats, RpcTransport


# ---------------------------------------------------------------------------
# circuit breaker


class BreakerState(enum.Enum):
    """Observable breaker states (half-open is derived, not stored)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed → open → half-open breaker on the virtual clock.

    Only two facts are stored — whether the breaker is open and when it
    opened — so the state machine cannot drift: ``HALF_OPEN`` is *derived*
    as "open and the cooldown has elapsed".  :meth:`available` is pure
    (selection filters may call it any number of times without changing
    behaviour); state only moves on :meth:`record_success` /
    :meth:`record_failure` / :meth:`force_open`.  One half-open success
    closes the breaker.
    """

    #: Consecutive failures that trip a closed breaker.
    FAILURE_THRESHOLD = 3
    #: Virtual seconds an open breaker waits before its half-open trial.
    COOLDOWN_S = 2.0

    def __init__(self) -> None:
        self._open = False
        self.opened_at: Optional[float] = None
        self._failure_streak = 0
        #: Times the breaker tripped open (including half-open re-opens
        #: and byzantine demotions).
        self.trips = 0

    def state(self, now: float) -> BreakerState:
        if not self._open:
            return BreakerState.CLOSED
        if now >= self.opened_at + self.COOLDOWN_S:
            return BreakerState.HALF_OPEN
        return BreakerState.OPEN

    def available(self, now: float) -> bool:
        """May a request be sent right now?  Pure — no side effects."""
        return self.state(now) is not BreakerState.OPEN

    def record_success(self, now: float) -> None:
        if self._open:
            if now >= self.opened_at + self.COOLDOWN_S:
                self._open = False
                self.opened_at = None
                self._failure_streak = 0
            # A success while hard-open is a straggler from before the
            # trip; it proves nothing about the replica now.
        else:
            self._failure_streak = 0

    def record_failure(self, now: float) -> None:
        if self._open:
            if now >= self.opened_at + self.COOLDOWN_S:
                # Half-open trial failed: re-open for another cooldown.
                self.opened_at = now
                self.trips += 1
        else:
            self._failure_streak += 1
            if self._failure_streak >= self.FAILURE_THRESHOLD:
                self._trip(now)

    def force_open(self, now: float) -> None:
        """Trip immediately (byzantine demotion: wrong bytes served)."""
        if self._open and now < self.opened_at + self.COOLDOWN_S:
            return
        self._trip(now)

    def _trip(self, now: float) -> None:
        self._open = True
        self.opened_at = now
        self._failure_streak = 0
        self.trips += 1

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({'open' if self._open else 'closed'}, "
            f"trips={self.trips})"
        )


# ---------------------------------------------------------------------------
# stats


@dataclass
class ReplicaStats(MetricSet):
    """Per-replica serving accounting."""

    serves: int = 0
    failures: int = 0
    sheds: int = 0
    probes: int = 0
    probe_failures: int = 0


@dataclass
class HAStats(MetricSet):
    """Client-side HA policy accounting (fleet-wide, shared by clients)."""

    fetches: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    #: Loser completed in the same instant the winner did — too late to
    #: cancel; its full response bytes were transferred.
    hedge_late: int = 0
    cancels: int = 0
    wasted_hedge_bytes: int = 0
    failovers: int = 0
    backoffs: int = 0
    giveups: int = 0
    sheds_seen: int = 0
    #: Replicas filtered out of selection because their breaker was open.
    breaker_skips: int = 0
    demotions: int = 0


# ---------------------------------------------------------------------------
# replicas


class Replica:
    """One Gear registry instance behind its own link and transport."""

    def __init__(
        self,
        name: str,
        index: int,
        registry: Any,
        link: Link,
        transport: RpcTransport,
        *,
        admission: Optional[AdmissionGate] = None,
    ) -> None:
        self.name = name
        self.index = index
        self.registry = registry
        self.link = link
        self.transport = transport
        self.breaker = CircuitBreaker()
        self.admission = admission if admission is not None else AdmissionGate()
        self.stats = ReplicaStats()

    def __repr__(self) -> str:
        return f"Replica({self.name!r}, serves={self.stats.serves})"


class ReplicaSet:
    """N replicated Gear registries presenting one logical registry.

    Duck-types the in-process ``GearRegistry`` surface (the converter
    and benches hold the registry object directly): writes fan out to
    every replica, reads delegate to the primary.
    """

    ENDPOINT_NAME = GEAR_ENDPOINT

    def __init__(self, clock: SimClock, replicas: Sequence[Replica]) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.clock = clock
        self.replicas = list(replicas)

    @property
    def primary(self) -> Replica:
        return self.replicas[0]

    @property
    def breaker_trips(self) -> int:
        return sum(r.breaker.trips for r in self.replicas)

    # -- GearRegistry duck surface (in-process, registry side) -------------

    def upload(self, gear_file: Any) -> bool:
        results = [r.registry.upload(gear_file) for r in self.replicas]
        return results[0]

    @property
    def file_count(self) -> int:
        return self.primary.registry.file_count

    @property
    def stored_bytes(self) -> int:
        return self.primary.registry.stored_bytes

    def __repr__(self) -> str:
        return f"ReplicaSet({len(self.replicas)} replicas)"


# ---------------------------------------------------------------------------
# health probing


class HealthMonitor:
    """A scheduler process probing replicas and driving their breakers.

    Runs as a *generator* process: its probes are ordinary RPCs stepped
    through ``call_gen``, so it contends for the replica links like any
    client and owns no thread.  Each round probes every replica whose
    breaker is not hard-open — half-open replicas get their trial
    request here, so recovery does not depend on client traffic — then
    sleeps :attr:`INTERVAL_S` of virtual time.  :meth:`stop` makes the loop
    exit at its next wake-up; the caller drains the scheduler afterwards.
    """

    PROBE_IDENTITY = "__gear_ha_probe__"
    #: Virtual seconds between probe rounds.
    INTERVAL_S = 0.5

    def __init__(self, replica_set: ReplicaSet) -> None:
        self.replica_set = replica_set
        self.clock = replica_set.clock
        self._stop = True
        self.process: Optional[Process] = None

    def start(self, scheduler: Any) -> Process:
        self._stop = False
        self.process = scheduler.spawn(self._run, name="ha-health-monitor")
        return self.process

    def stop(self) -> None:
        self._stop = True

    def _run(self):
        while not self._stop:
            yield from self.probe_all()
            if self._stop:
                break
            yield from self.clock.advance_gen(self.INTERVAL_S, "ha-probe-wait")

    def probe_all(self):
        now = self.clock.now
        for replica in self.replica_set.replicas:
            if replica.breaker.state(now) is BreakerState.OPEN:
                continue  # cooling down; leave it alone until half-open
            yield from self.probe(replica)

    def probe(self, replica: Replica):
        """One health-check round trip (a generator); returns True when
        it succeeded."""
        replica.stats.probes += 1
        try:
            yield from replica.transport.call_gen(
                GEAR_ENDPOINT,
                "query",
                self.PROBE_IDENTITY,
                label=f"ha-probe:{replica.name}",
            )
        except RETRYABLE_ERRORS:
            replica.stats.probe_failures += 1
            replica.breaker.record_failure(self.clock.now)
            return False
        replica.breaker.record_success(self.clock.now)
        return True


# ---------------------------------------------------------------------------
# hedging


class HedgeEstimator:
    """Learns the fleet's fetch slowdown and sets the hedge deadline.

    Tracks the ratio of observed fetch time to the uncontended nominal
    cost over the last :attr:`WINDOW` fetches; the hedge deadline for a
    new fetch is::

        nominal_s * max(percentile(ratios, QUANTILE), 1.0) * MULTIPLIER

    using the shared nearest-rank :func:`repro.common.stats.percentile`
    (same tiny-sample semantics as the wave reports).  Until
    :attr:`MIN_SAMPLES` observations exist, a conservative
    :attr:`COLD_RATIO` stands in, so a lone healthy client (ratio 1)
    never hedges.
    """

    QUANTILE = 95.0
    MULTIPLIER = 1.25
    COLD_RATIO = 3.0
    MIN_SAMPLES = 4
    WINDOW = 128

    def __init__(self) -> None:
        self._ratios: List[float] = []

    def observe(self, ratio: float) -> None:
        if ratio <= 0:
            return
        self._ratios.append(ratio)
        if len(self._ratios) > self.WINDOW:
            del self._ratios[0]

    def slowdown_ratio(self) -> float:
        if len(self._ratios) < self.MIN_SAMPLES:
            return self.COLD_RATIO
        return max(percentile(self._ratios, self.QUANTILE), 1.0)

    def deadline_s(self, nominal_s: float) -> float:
        return nominal_s * self.slowdown_ratio() * self.MULTIPLIER


# ---------------------------------------------------------------------------
# the client-side fetch policy


#: Replica-selection strategies.
STRATEGIES = ("primary-first", "p2c")


class _ReplicaSource(Source):
    """One replica in a pass: ``fetch`` is one call to it (a write's
    fan-out makes one per replica, a hedged pair races two)."""

    def __init__(
        self, policy: "HAFetchPolicy", replica: Replica, request: Tuple
    ) -> None:
        self.policy = policy
        self.replica = replica
        #: The call: ``(method, args, kwargs, request_payload_bytes)``.
        self.request = request

    def nominal_s(self) -> float:
        """Uncontended cost estimate of the call (client-side: the index
        entry tells the client the file size up front)."""
        method, args = self.request[:2]
        link, wire_bytes = self.replica.link, 0
        if method == "download" and args:
            try:
                wire_bytes = int(self.replica.registry.stat(args[0]).stored_size)
            except NotFoundError:
                wire_bytes = 0
        return link.transfer_time(
            RpcTransport.REQUEST_FRAME_BYTES
        ) + link.transfer_time(wire_bytes)

    def fetch(
        self, identity: str, tag: str, label: Optional[str], *, observe: bool = False
    ):
        policy, replica = self.policy, self.replica
        method, args, kwargs, payload_bytes = self.request
        clock = policy.clock
        if not replica.admission.try_enter():
            # A typed 503, not a health signal: the breaker stays out of
            # it (tripping every breaker under fleet-wide overload would
            # turn congestion into an outage).  The caller's contract is
            # failover within the round, then RetryPolicy backoff.
            replica.stats.sheds += 1
            policy.stats.sheds_seen += 1
            # The rejected request still crossed the wire: charge the
            # request frame for the fast typed 503.
            yield from replica.link.transfer_gen(
                RpcTransport.REQUEST_FRAME_BYTES, f"{tag}:shed"
            )
            raise RegistryOverloadedError(
                f"replica {replica.name!r} shed {tag!r} "
                f"(admission queue full at {replica.admission.capacity})"
            )
        nominal = self.nominal_s() if observe else 0.0
        begun = clock.now
        try:
            value = yield from replica.transport.call_gen(
                GEAR_ENDPOINT,
                method,
                *args,
                request_payload_bytes=payload_bytes,
                label=label,
                **kwargs,
            )
        except FetchCancelledError:
            raise  # initiator's own doing; says nothing about health
        except TransportError:
            replica.stats.failures += 1
            replica.breaker.record_failure(clock.now)
            raise
        finally:
            replica.admission.exit()
        replica.stats.serves += 1
        replica.breaker.record_success(clock.now)
        if observe and nominal > 0:
            policy.estimator.observe((clock.now - begun) / nominal)
        if method == "download" and args:
            policy.served[args[0]] = replica
        return value

    def missed(self, error: BaseException) -> BaseException:
        if not isinstance(error, NotFoundError):
            self.policy.stats.failovers += 1
        return error


class _HedgedPair(Source):
    """The first two replicas of a download under a scheduler, raced.

    The first is asked at once, the second only if the first has not
    answered by the hedge deadline.  Both attempts run as generator
    processes and report here with ``yield from``, so waking the
    initiator can settle the attempt's debt first.  The loser is
    cancelled the moment the winner lands and is charged only the bytes
    its flow actually moved.  Raises the last attempt error when every
    launched attempt failed.
    """

    def __init__(self, first: _ReplicaSource, second: _ReplicaSource) -> None:
        self.first = first
        self.second = second
        self.event = SimEvent(first.policy.clock)
        self.launched = self.finished = 0
        self.winner: Optional[Replica] = None
        self.value: Any = None
        self.last_error: Optional[BaseException] = None

    def _succeeded(self, replica: Replica, value: Any):
        self.finished += 1
        if self.winner is None:
            self.winner = replica
            self.value = value
            yield from self.event.fire_gen()
        else:
            # Completed in the same instant as the winner — too late to
            # cancel; the full response crossed the wire.
            self.first.policy.stats.hedge_late += 1

    def _failed(self, error: BaseException):
        self.finished += 1
        self.last_error = error
        if self.winner is None and self.finished >= self.launched:
            yield from self.event.fire_gen()

    def fetch(self, identity: str, tag: str, label: Optional[str]):
        policy = self.first.policy
        clock, stats = policy.clock, policy.stats
        primary, mate = self.first.replica, self.second.replica
        scheduler = clock.scheduler
        procs: Dict[str, Process] = {}

        def attempt(source: _ReplicaSource):
            replica = source.replica
            proc = scheduler.current_process()
            try:
                with clock.span("hedge_attempt", replica=replica.name):
                    value = yield from source.fetch(
                        identity, tag, label, observe=True
                    )
            except FetchCancelledError as error:
                # The initiator cancelled this loser; only the bytes its
                # flow actually moved were wasted.  Not a failover — the
                # replica was healthy, just slower.
                stats.wasted_hedge_bytes += error.bytes_transferred
                self.finished += 1
                return
            except NotFoundError as error:
                yield from self._failed(error)
                return
            except RETRYABLE_ERRORS as error:
                # A hedged attempt that *failed* (not merely lost the
                # race) is a failover: its work was — or already had
                # been — picked up by another replica.  Counted here
                # because the error may land after the race is decided
                # (e.g. an outage stall outliving the winner).
                stats.failovers += 1
                yield from self._failed(error)
                return
            finally:
                replica.link.clear_cancel(proc)
            yield from self._succeeded(replica, value)

        with clock.span("hedge", tag=tag) as hedge_span:
            self.launched = 1
            # ``spawn`` starts children at settled time and
            # ``cancel_flows`` cuts them at settled time, both by
            # blocking: from a step the debt is paid first, by yielding.
            yield from clock.settle_gen()
            procs[primary.name] = scheduler.spawn(
                attempt, self.first, name=f"hedge0:{tag}"
            )
            deadline = policy.estimator.deadline_s(self.first.nominal_s())

            def fire_hedge() -> None:
                if self.winner is not None or procs[primary.name].done:
                    return
                stats.hedges += 1
                self.launched += 1
                procs[mate.name] = scheduler.spawn(
                    attempt, self.second, name=f"hedge1:{tag}"
                )

            timer = scheduler.schedule(deadline, fire_hedge)
            yield from self.event.wait_gen()
            timer.cancel()
            if self.winner is not None:
                hedge_span.annotate(winner=self.winner.name)
                if self.winner is mate:
                    stats.hedge_wins += 1
                loser = mate if self.winner is primary else primary
                loser_proc = procs.get(loser.name)
                if loser_proc is not None and not loser_proc.done:
                    stats.cancels += 1
                    yield from clock.settle_gen()
                    loser.link.cancel_flows(loser_proc)
                return self.value
            if self.last_error is not None:
                raise self.last_error
            raise UnavailableError(
                f"hedged fetch {tag!r} failed on both replicas"
            )

    def missed(self, error: BaseException) -> BaseException:
        # Each attempt counted its own failover: its error may land
        # after the race is decided.
        return error


class HAFetchPolicy:
    """The client read/write path over a :class:`ReplicaSet`.

    A read walks the replicas (:func:`~repro.net.resilience.walk`): each
    pass lists the breaker-available replicas in the configured
    strategy's order — the first two of a ``download`` raced as a hedged
    pair when a scheduler is active — and tries them one by one; a 404
    is deferred until no replica contradicted it.  When a whole pass
    fails, it backs off under the HA
    :class:`~repro.net.resilience.RetryPolicy` and walks again — only
    when that gives up does the error surface (and the degraded
    Docker-pull mode takes over).  Writes fan out over the wire to every replica.  The
    whole path is generators (:meth:`call` is what
    :meth:`HATransport.route` steps); hedge attempts are generator
    processes.

    All bookkeeping is zero virtual time; the only costs are real wire
    transfers, backoff sleeps, and shed rejections.
    """

    def __init__(
        self,
        replica_set: ReplicaSet,
        *,
        strategy: str = "primary-first",
        seed: str = "ha",
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.replica_set = replica_set
        self.clock = replica_set.clock
        self.strategy = strategy
        # The HA default is more patient than the transport-level one:
        # an "attempt" here is a whole round over every available
        # replica, and the policy is shared by the entire client fleet,
        # so a cross-call budget would let one client's bad luck starve
        # the others.  The per-call deadline stays as the hard bound.
        self.retry_policy = RetryPolicy(
            max_attempts=6,
            budget_s=None,
            seed=f"{seed}-retry",
            rng=rng_for("ha-retry", seed),
        )
        self.estimator = HedgeEstimator()
        self.stats = HAStats()
        self._rng = rng_for("ha-select", seed)
        #: identity → replica that served the last download of it, for
        #: byzantine demotion attribution.
        self.served: Dict[str, Replica] = {}

    # -- selection ---------------------------------------------------------

    def select(self) -> List[Replica]:
        """Breaker-available replicas in preference order (pure-ish:
        only the seeded selection stream and skip counter advance)."""
        now = self.clock.now
        replicas = self.replica_set.replicas
        avail = [r for r in replicas if r.breaker.available(now)]
        self.stats.breaker_skips += len(replicas) - len(avail)
        if self.strategy == "p2c" and len(avail) >= 2:
            first, second = self._rng.sample(range(len(avail)), 2)
            a, b = avail[first], avail[second]
            if (b.admission.inflight, b.index) < (a.admission.inflight, a.index):
                a, b = b, a
            rest = [r for r in avail if r is not a and r is not b]
            return [a, b] + rest
        return avail

    # -- the public call surface -------------------------------------------

    def call(
        self,
        method: str,
        *args: Any,
        request_payload_bytes: int = 0,
        label: Optional[str] = None,
        **kwargs: Any,
    ):
        request = (method, args, kwargs, request_payload_bytes)
        tag = label or f"{GEAR_ENDPOINT}.{method}"
        if method == "upload":
            return (yield from self._fan_out_write(request, tag, label))
        hedge = method == "download"

        def sources() -> List[Source]:
            replicas: List[Source] = [
                _ReplicaSource(self, replica, request) for replica in self.select()
            ]
            if hedge and len(replicas) > 1 and self.clock.scheduler is not None:
                replicas[:2] = [_HedgedPair(*replicas[:2])]
            return replicas

        return (yield from walk(
            self, sources, args[0] if args else "", tag, label, "ha-backoff",
            nobody=f"no replica available for {tag!r}: all circuit breakers open",
        ))

    def report_corrupt_payload(self, identity: str) -> bool:
        """End-to-end verification failed: demote the serving replica.

        The viewer's fingerprint check caught bytes the transport-level
        checksum did not (a byzantine replica).  Trip its breaker so the
        inevitable re-fetch — and everyone else's traffic — goes
        elsewhere.
        Returns whether a replica was on record as the server.
        """
        replica = self.served.pop(identity, None)
        if replica is None:
            return False
        replica.breaker.force_open(self.clock.now)
        self.stats.demotions += 1
        return True

    def _fan_out_write(self, request: Tuple, tag: str, label: Optional[str]):
        result: Any = None
        succeeded = False
        last_error: Optional[BaseException] = None
        for replica in self.replica_set.replicas:
            try:
                value = yield from _ReplicaSource(self, replica, request).fetch(
                    "", tag, label
                )
            except RETRYABLE_ERRORS as error:
                last_error = error
                continue
            if not succeeded:
                result = value
                succeeded = True
        if not succeeded:
            raise last_error if last_error is not None else UnavailableError(
                f"write fan-out of {request[0]!r} reached no replica"
            )
        return result


# ---------------------------------------------------------------------------
# the transport facade


class _AggregateEndpoint:
    """Read-only stats view summing the replica endpoints.

    Presents the same ``.name``/``.stats`` surface the
    benchmark accounting reads, so fleet reports see one logical
    ``gear-registry`` regardless of replica count.  HA-level backoff
    rounds and giveups fold into ``retries``/``giveups`` so resilience
    accounting stays comparable with the single-registry path.
    """

    def __init__(self, replica_set: ReplicaSet, policy: HAFetchPolicy) -> None:
        self.name = GEAR_ENDPOINT
        self._replica_set = replica_set
        self._policy = policy

    @property
    def stats(self) -> RpcStats:
        total = RpcStats()
        for replica in self._replica_set.replicas:
            endpoint = replica.transport.endpoint(GEAR_ENDPOINT)
            for f in dataclasses.fields(RpcStats):
                setattr(
                    total,
                    f.name,
                    getattr(total, f.name) + getattr(endpoint.stats, f.name),
                )
        total.retries += self._policy.stats.backoffs
        total.giveups += self._policy.stats.giveups
        return total


class HATransport(TransportDecorator, Tier):
    """The replica tier's link in the download chain.

    Claims every ``gear-registry`` call for the :class:`HAFetchPolicy`;
    everything else (the Docker registry lives on the base node) goes to
    the base transport unchanged.  Drivers, daemons, and benches keep
    calling ``transport.call(...)`` exactly as before.  As a
    :class:`~repro.net.resilience.Tier` it adds the replica links to the
    registry side, and the health monitor to every wave.
    """

    def __init__(
        self,
        base: RpcTransport,
        policy: HAFetchPolicy,
        monitor: Optional[HealthMonitor] = None,
    ) -> None:
        super().__init__(base)
        self.policy = policy
        self.monitor = monitor
        self.replica_set = policy.replica_set
        self._aggregate = _AggregateEndpoint(self.replica_set, policy)

    def has_endpoint(self, name: str) -> bool:
        return name == GEAR_ENDPOINT or self.base.has_endpoint(name)

    def endpoint(self, name: str) -> Any:
        if name == GEAR_ENDPOINT:
            return self._aggregate
        return self.base.endpoint(name)

    def claims(self, endpoint_name: str, method: str) -> bool:
        return endpoint_name == GEAR_ENDPOINT

    def route(self, method: str, *args: Any, **kwargs: Any):
        return (yield from self.policy.call(method, *args, **kwargs))

    def blame(self, identity: str) -> bool:
        return self.policy.report_corrupt_payload(identity)

    # -- the tier's wiring -------------------------------------------------

    def registry_links(self) -> List[Link]:
        return [replica.link for replica in self.replica_set.replicas]

    def instrument(self, metrics: Any) -> None:
        replica_set = self.replica_set
        for index, replica in enumerate(replica_set.replicas):
            metrics.register(
                "rpc",
                replica.transport.endpoint(GEAR_ENDPOINT).stats,
                endpoint=GEAR_ENDPOINT,
                replica=replica.name,
            )
            metrics.register("replica", replica.stats, replica=replica.name)
            register_faults(metrics, replica.link, f"replica-{index}")
        metrics.register("ha", self.policy.stats)
        # Breaker trips are derived from the breakers: read at snapshot.
        metrics.register_callback(
            "breaker", lambda: {"trips": replica_set.breaker_trips}
        )
        self.policy.retry_policy.register(metrics, "retry", scope="ha")

    def add_probes(self, sampler: Any) -> None:
        clock = self.replica_set.clock
        for replica in self.replica_set.replicas:
            sampler.add_probe(
                f"breaker_open:{replica.name}",
                lambda bound=replica: float(
                    bound.breaker.state(clock.now) is BreakerState.OPEN
                ),
            )
            sampler.add_probe(
                f"gate_depth:{replica.name}",
                lambda bound=replica: float(bound.admission.inflight),
            )

    def services(self) -> List[Service]:
        monitor = self.monitor
        return [(monitor.start, monitor.stop)] if monitor is not None else []

    def wave_counters(self) -> Dict[str, float]:
        stats = self.policy.stats
        return {
            **stats.metrics(),
            "sheds": stats.sheds_seen,
            "breaker_trips": self.replica_set.breaker_trips,
            "probes": sum(r.stats.probes for r in self.replica_set.replicas),
        }

    def __repr__(self) -> str:
        return (
            f"HATransport({len(self.replica_set.replicas)} replicas, "
            f"strategy={self.policy.strategy!r})"
        )
