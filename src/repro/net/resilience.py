"""Shared resilience primitives: retry/backoff, admission control, and
the download chain every distribution fabric is built from.

Client side, :class:`RetryPolicy` follows what production on-demand
loaders converged on (AWS's "Exponential Backoff And Jitter"): capped
exponential backoff with *decorrelated jitter*, bounded by both a
per-call deadline and a cross-call retry budget so a dying registry
cannot absorb unbounded client time.  Backoff sleeps advance the shared
virtual clock, so resilience costs are visible in deploy timings.

Server side, :class:`AdmissionGate` is the one bounded-in-flight
implementation every serving tier shares — the HA registry replicas
(:mod:`repro.net.ha`) and the FaaS shared cache tier
(:mod:`repro.net.faas`) both gate requests through it, shedding excess
load with a typed :class:`~repro.common.errors.TierOverloadedError`
subclass rather than queueing toward collapse.  Sheds are deliberate
load control, not failures: they back off under a retry policy but never
trip circuit breakers.  Beside it, :class:`SingleFlight` is the one
table of fetches in flight: the node pool, each partial big file and the
shared tier coalesce identical concurrent fetches through it.

Jitter is drawn from a seeded :func:`repro.common.rng.rng_for` stream:
the same policy seed and the same failure sequence back off identically
on every run, keeping experiments reproducible.

The download chain (DESIGN.md §10) is said once here and configured by
the fabrics: :class:`TransportDecorator` is the transport-shaped link a
tier adds to the chain (:class:`FabricTransport` the one an edge or FaaS
node gets), :func:`walk` is the one pass over a list of
:class:`Source`\\ s that :func:`retry_rounds` repeats with backoff,
and :class:`Tier` is what a tier wires into its testbed and its waves.
What a tier may cache is decided by the one integrity predicate,
:func:`repro.gear.gearfile.verified`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.common.clock import SimClock, SimEvent
from repro.common.errors import (
    CorruptPayloadError,
    NotFoundError,
    TimeoutError,
    UnavailableError,
)
from repro.common.rng import rng_for

#: Transport failures a retry can plausibly fix.  A plain
#: ``TransportError`` (unknown endpoint/method) is a programming error
#: and is never retried.
RETRYABLE_ERRORS = (TimeoutError, UnavailableError, CorruptPayloadError)
#: What a source of the download chain may miss with: a 404, or a
#: failure a retry could fix (:meth:`Source.missed`).
MISSES = (NotFoundError,) + RETRYABLE_ERRORS

#: The endpoint name every Gear registry binds (mirrors
#: ``GearRegistry.ENDPOINT_NAME`` without importing the gear layer).
GEAR_ENDPOINT = "gear-registry"


@dataclass
class RetryPolicy:
    """Decorrelated-jitter retry for RPC calls.

    * ``max_attempts`` — total tries per call (first attempt included);
    * ``base_backoff_s`` / ``max_backoff_s`` — backoff bounds; each sleep
      is ``uniform(base, 3 * previous)`` capped at the maximum
      (decorrelated jitter);
    * ``deadline_s`` — per-call wall limit: once a call has burned this
      much virtual time across attempts, it gives up;
    * ``budget_s`` — cross-call budget of backoff seconds this policy
      may spend in total; exhausted budget turns every failure into an
      immediate give-up (protects experiments from pathological plans).
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    deadline_s: Optional[float] = 30.0
    budget_s: Optional[float] = 120.0
    seed: str = "retry"
    #: Injected jitter stream.  Defaults to a fresh seeded stream derived
    #: from ``seed``; pass an explicit ``random.Random`` to share one
    #: deterministic stream across several policies (the HA layer does
    #: this so backoff draws interleave reproducibly across replicas).
    rng: Optional[random.Random] = field(
        default=None, repr=False, compare=False
    )
    #: Backoff seconds spent so far (across all calls using this policy).
    spent_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_s <= 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("backoff bounds must satisfy 0 < base <= max")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline must be positive when set")
        if self.budget_s is not None and self.budget_s < 0:
            raise ValueError("budget must be non-negative when set")
        self._rng = self.rng if self.rng is not None else rng_for(
            "net-retry", self.seed
        )

    @staticmethod
    def is_retryable(error: BaseException) -> bool:
        return isinstance(error, RETRYABLE_ERRORS)

    def next_backoff(self, previous_s: Optional[float]) -> float:
        """Draw the next decorrelated-jitter sleep."""
        anchor = previous_s if previous_s is not None else self.base_backoff_s
        sleep = self._rng.uniform(self.base_backoff_s, anchor * 3.0)
        return min(self.max_backoff_s, sleep)

    def should_retry(
        self,
        error: BaseException,
        *,
        attempt: int,
        elapsed_s: float,
    ) -> bool:
        """May attempt ``attempt`` (1-based) be followed by another try?"""
        if not self.is_retryable(error):
            return False
        if attempt >= self.max_attempts:
            return False
        if self.deadline_s is not None and elapsed_s >= self.deadline_s:
            return False
        if self.budget_s is not None and self.spent_s >= self.budget_s:
            return False
        return True

    def charge(self, backoff_s: float) -> None:
        self.spent_s += backoff_s

    def metrics(self) -> "dict[str, float]":
        """Registry-callback view of the policy's running spend."""
        return {"spent_s": self.spent_s}

    def register(self, registry: Any, name: str, **labels: Any) -> None:
        """Register the spend with a metrics registry."""
        registry.register_callback(name, self.metrics, **labels)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.max_attempts}, "
            f"backoff=[{self.base_backoff_s:g}, {self.max_backoff_s:g}]s, "
            f"deadline={self.deadline_s}, budget={self.budget_s}, "
            f"spent={self.spent_s:.3f}s)"
        )


# ---------------------------------------------------------------------------
# admission control


class AdmissionGate:
    """A bounded in-flight request gate: a serving tier's admission queue.

    ``capacity=None`` admits everything (the single-registry behaviour).
    A full gate sheds the request — the caller raises a
    :class:`~repro.common.errors.TierOverloadedError` subclass
    (:class:`~repro.common.errors.RegistryOverloadedError` for registry
    replicas) — instead of queueing unboundedly, so overload degrades by
    fast typed rejection rather than by collapse.  Both the HA registry
    replicas and the FaaS shared cache tier bound themselves with this
    one implementation.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("admission capacity must be at least 1")
        self.capacity = capacity
        self.inflight = 0
        self.peak_inflight = 0

    def try_enter(self) -> bool:
        if self.capacity is not None and self.inflight >= self.capacity:
            return False
        self.inflight += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        return True

    def exit(self) -> None:
        if self.inflight <= 0:
            raise RuntimeError("admission gate exit without matching enter")
        self.inflight -= 1


class SingleFlight:
    """Who is fetching what right now, so an identical fetch can wait.

    A leader registers its key with :meth:`claim` before it starts and
    hands it back with :meth:`release` in a ``finally``; anyone who finds
    the key :meth:`pending` waits on that event (``yield from
    event.wait_gen()``) instead of paying the wire again, and wakes at
    the release instant, the leader's deferred costs settled first.
    What a waiter does next is its own business — look again, loop, or
    fetch for itself after a failed leader — and stays at the call site.
    Nothing is registered without a scheduler: sequential code cannot
    overlap a fetch with itself.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: Dict[Hashable, SimEvent] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._pending)

    def pending(self, key: Hashable) -> Optional[SimEvent]:
        """The event of the fetch in flight for ``key``, if there is one."""
        return self._pending.get(key)

    def claim(self, key: Hashable, clock: Optional[SimClock]) -> Optional[SimEvent]:
        """Register the caller as ``key``'s leader; the token to
        :meth:`release` (``None`` when there is no scheduler to wait on)."""
        if clock is None or clock.scheduler is None:
            return None
        event = self._pending[key] = SimEvent(clock)
        return event

    def release(self, key: Hashable, event: Optional[SimEvent]):
        """The leader is done, whatever the outcome: ``yield from`` this
        in its ``finally``.  Unregisters ``key`` only if it is still this
        leader's — a later claim (a waiter refilling after a failure) or
        :meth:`abandon` may own the slot by now — then wakes the waiters."""
        if event is not None:
            if self._pending.get(key) is event:
                del self._pending[key]
            yield from event.fire_gen()

    def abandon(self) -> int:
        """Every fetch in flight died with its node (crash recovery,
        ``pool.clear()``): wake the waiters so they look again instead of
        waiting for ever, forget the flights, and say how many."""
        flights = list(self._pending.values())
        for event in flights:
            event.fire()
        self._pending.clear()
        return len(flights)


# ---------------------------------------------------------------------------
# the download chain


def retry_rounds(
    clock: Any,
    policy: RetryPolicy,
    stats: Any,
    label: str,
    one_pass: Callable[[], Any],
):
    """Run ``one_pass`` until it returns, backing off between rounds
    (a generator, like the generator ``one_pass()`` makes).

    ``one_pass`` (a :func:`walk` pass) tries the caller's sources once
    and returns the payload or raises: a retryable error means every
    source failed this round, anything else (an authoritative
    ``NotFoundError``) is final.  A failed
    round sleeps one jittered backoff under ``policy`` on the virtual
    clock (``stats.backoffs``); when the policy says stop, the round's
    error surfaces (``stats.giveups``).

    The round counter is bumped before the policy is asked, so
    ``max_attempts=N`` makes N-1 passes here (1 for N=1), not the N
    tries ``RetryPolicy`` promises a single RPC.
    """
    start = clock.now
    rounds = 1
    previous: Optional[float] = None
    while True:
        try:
            return (yield from one_pass())
        except RETRYABLE_ERRORS as error:
            rounds += 1
            if not policy.should_retry(
                error, attempt=rounds, elapsed_s=clock.now - start
            ):
                stats.giveups += 1
                raise
        backoff = policy.next_backoff(previous)
        policy.charge(backoff)
        yield from clock.advance_gen(backoff, label)
        stats.backoffs += 1
        previous = backoff


class Source:
    """One place a download may be served from: an entry in the list a
    :func:`walk` pass goes down (a replica, a peer, a cache, the
    transport below; DESIGN.md §10).

    :meth:`fetch` does the source's success bookkeeping (breaker, hit
    counters, write-through, its spans) and :meth:`missed` its failure
    bookkeeping; the default :meth:`missed` ends the pass.
    """

    def missed(self, error: BaseException) -> Optional[BaseException]:
        """:meth:`fetch` raised ``error``, a 404 or a retryable failure:
        return it for the pass to remember, ``None`` to forget it, or
        re-raise it to end the pass now."""
        raise error


def walk(
    owner: Any,
    sources: Callable[[], List[Source]],
    identity: str,
    tag: str,
    label: Optional[str],
    backoff: str,
    nobody: str = "no source available",
):
    """Fetch ``identity`` from the first of ``sources()`` that has it,
    pass after pass: the :func:`retry_rounds` generator to ``yield
    from``, under ``owner``'s clock, retry policy and stats (its
    ``fetches``, ``backoffs`` and ``giveups``).

    ``sources()`` lists one pass's sources in order, as the pass begins,
    so candidates are filtered and ordered then.  A miss is what its
    source's :meth:`~Source.missed` makes of it.  A pass that found
    nothing raises what it remembers: a 404 beats any retryable error
    (no source contradicted it), otherwise the last retryable error
    wins; remembering nothing, it raises ``UnavailableError(nobody)``.
    Backoffs sleep under the label ``"{tag}:{backoff}"``.
    """
    owner.stats.fetches += 1

    def one_pass():
        not_found: Optional[BaseException] = None
        last_error: Optional[BaseException] = None
        for source in sources():
            try:
                value = yield from source.fetch(identity, tag, label)
            except MISSES as error:
                kept = source.missed(error)
                if isinstance(kept, NotFoundError):
                    not_found = kept
                elif kept is not None:
                    last_error = kept
                continue
            if value is not None:
                return value
        if not_found is not None:
            raise not_found
        raise last_error if last_error is not None else UnavailableError(nobody)

    return retry_rounds(
        owner.clock, owner.retry_policy, owner.stats, f"{tag}:{backoff}", one_pass
    )


class TransportDecorator:
    """A transport stacked on another: one tier's link in the chain.

    Presents the :class:`~repro.net.transport.RpcTransport` surface.  The
    calls a tier :meth:`claims` (by default the Gear file download) are
    served by :meth:`route`, the tier's own chain — a generator, like
    everything above the wire — which ends in ``base``, the wire
    transport or another tier; every other call goes to ``base``
    unchanged.  A corrupt-payload report travels the same
    way: a tier takes the :meth:`blame` for bytes it served itself and
    passes any other report down, so the demotion lands on whoever lied.
    """

    def __init__(self, base: Any) -> None:
        self.base = base

    @property
    def link(self) -> Any:
        return self.base.link

    def has_endpoint(self, name: str) -> bool:
        return self.base.has_endpoint(name)

    def endpoint(self, name: str) -> Any:
        return self.base.endpoint(name)

    def claims(self, endpoint_name: str, method: str) -> bool:
        return endpoint_name == GEAR_ENDPOINT and method == "download"

    def call(self, endpoint_name: str, method: str, *args: Any, **kwargs: Any) -> Any:
        return self.link.clock.drive(
            self.call_gen(endpoint_name, method, *args, **kwargs)
        )

    def call_gen(self, endpoint_name: str, method: str, *args: Any, **kwargs: Any):
        """:meth:`call` as a generator: ``yield from`` it in a process.
        A claimed call is stepped through this tier's :meth:`route`."""
        if self.claims(endpoint_name, method):
            return (yield from self.route(method, *args, **kwargs))
        return (yield from self.base.call_gen(endpoint_name, method, *args, **kwargs))

    def report_corrupt_payload(self, identity: str) -> None:
        """Viewer hook: wrong bytes that passed the wire checksum."""
        if self.blame(identity):
            return
        forward = getattr(self.base, "report_corrupt_payload", None)
        if forward is not None:
            forward(identity)


class FabricTransport(TransportDecorator):
    """One node's link in an edge site's or a FaaS fabric's chain.

    Only the Gear file download takes the ``chain`` (an
    :class:`~repro.net.edge.EdgeSite` or a
    :class:`~repro.net.faas.FaasFabric`): ``chain.fetch(identity, node,
    label)`` walks its sources for ``node``, and ``chain.report_corrupt``
    takes the blame for bytes one of them served.  Uploads, queries,
    chunk fetches and the Docker registry go to ``chain.base`` (the WAN)
    unchanged.
    """

    def __init__(self, chain: Any, node: Any) -> None:
        super().__init__(chain.base)
        self.chain = chain
        self.node = node

    def route(
        self, method: str, identity: str, *, label: Optional[str] = None, **_: Any
    ):
        return (yield from self.chain.fetch(identity, self.node, label))

    def blame(self, identity: str) -> bool:
        return self.chain.report_corrupt(identity)

    def __repr__(self) -> str:
        return f"FabricTransport({self.node!r})"


#: One background process of a wave: ``start(scheduler)`` spawns it,
#: ``stop()`` makes it exit at its next wake-up.
Service = Tuple[Callable[[Any], Any], Callable[[], None]]


class Tier:
    """What one tier of the chain wires into its testbed and its waves.

    A testbed lists its tiers origin outward (``Testbed.tiers``) and
    loops over them for its links, metrics and timeline probes; a
    cluster's wave runs the root's tier services and reports the delta
    of their counters; the invariant catalogue audits its stores.  Every
    hook defaults to nothing.
    """

    def registry_links(self) -> List[Any]:
        """Registry-side wires: retuned with the base link."""
        return []

    def links(self) -> List[Any]:
        """The tier's own wires: they keep their own speed."""
        return []

    def services(self) -> List[Service]:
        """The background processes a wave runs beside its clients."""
        return []

    def wave_counters(self) -> Dict[str, float]:
        """Running totals a wave report is the delta of, by field name."""
        return {}

    def stores(self) -> List[Tuple[str, Any]]:
        """What the tier keeps, ``(where, store)``: node pools and caches."""
        return []

    def audit_integrity(self) -> List[str]:
        """The tier's stored copies that fail their name
        (:func:`repro.invariants.poisoned_commits` over this tier)."""
        from repro.invariants import World, poisoned_commits

        return poisoned_commits(World({}, [self]))
