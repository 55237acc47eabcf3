"""Overload-robust FaaS tier: three-tier Gear cache for cold starts.

The paper motivates Gear with serverless cold-start latency (§I); the
On-demand Container Loading in AWS Lambda paper (PAPERS.md) shows the
production topology: every invocation's read path walks

    per-node SharedFilePool → shared intermediate cache tier → registry

This module builds that tier and — the headline — the robustness
machinery that keeps cold-start tails bounded when a 10x invocation
burst, a shared-tier outage, or a cache stampede hits:

* **Single-flight request coalescing** at the shared tier: a burst of
  identical cold starts finds one upstream fetch in flight and waits on
  its :class:`~repro.common.clock.SimEvent` instead of stampeding the
  registry — upstream fetches per unique fingerprint stay ≤ 1 while the
  tier is healthy (tracked by ``duplicate_upstream_fetches``, which the
  CLI gates at zero).
* **Typed backpressure**: the tier bounds *upstream* concurrency with a
  shared :class:`~repro.net.resilience.AdmissionGate` and sheds excess
  misses with :class:`~repro.common.errors.TierOverloadedError`.  A shed
  is deliberate load control, not a health signal — the chain falls
  through to the registry (and backs off under the fabric
  :class:`~repro.net.resilience.RetryPolicy` only when *every* tier
  failed) but never counts a shed against a circuit breaker.  Cache hits
  and coalesced waiters bypass the gate entirely: admission bounds the
  expensive upstream path, not the cheap served-from-memory one.
* **Per-tier circuit breaking**: outages/brownouts on the tier link
  (seeded :class:`~repro.net.faults.FaultPlan` windows, scoped to the
  ``faas-tier`` pseudo-endpoint) trip the tier's
  :class:`~repro.net.ha.CircuitBreaker` after repeated failures, so
  mid-spike outages degrade to direct registry fetches without paying
  the tier's stall on every call; half-open probes re-admit the tier
  when the window passes.
* **Graceful degradation with byte-identical results**: nodes commit
  only viewer-verified bytes (the PR 1 fingerprint/quarantine path), so
  container filesystems are byte-identical whether bytes came from the
  node pool, the shared tier, or the registry.  A *byzantine* shared
  tier (well-formed wrong bytes) is caught by that same check; the
  fabric's ``report_corrupt_payload`` hook demotes the tier permanently
  (breaker forced open + blacklist) and the refetch takes the registry.
  Bytes the tier only passed through from a lying upstream are not its
  fault: that report travels on down the chain
  (:class:`~repro.net.resilience.TransportDecorator`).

Determinism: arrival schedules, placement, and backoff jitter all come
from seeded streams (:func:`~repro.common.rng.rng_for`,
:func:`~repro.common.hashing.stable_u64`); tier bookkeeping charges zero
virtual time, so with the tier disabled the chain is byte- and
time-identical to the single-tier registry call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import NotFoundError, TierOverloadedError
from repro.common.hashing import stable_u64
from repro.common.stats import percentile
from repro.net.faults import junk_payload, register_faults
from repro.net.ha import BreakerState, CircuitBreaker
from repro.net.link import Link
from repro.net.resilience import (
    GEAR_ENDPOINT,
    AdmissionGate,
    FabricTransport,
    RetryPolicy,
    SingleFlight,
    Source,
    Tier,
    poisoned,
    verified,
    walk,
)
from repro.net.transport import RpcTransport
from repro.obs.metrics import MetricSet
from repro.obs.timeline import TimelineSampler
from repro.workloads.schedule import ScheduledInvocation
from repro.workloads.tasks import task_for_category

#: Pseudo-endpoint name tier transfers are scoped under, so a
#: :class:`~repro.net.faults.FaultPlan` with ``targets=("faas-tier",)``
#: injects outages/brownouts on the shared tier and nothing else.
FAAS_TIER_ENDPOINT = "faas-tier"


@dataclass
class FaasStats(MetricSet):
    """Fleet-wide accounting for the FaaS distribution fabric.

    One shared instance per fabric (like :class:`~repro.net.edge.
    EdgeStats`); run reports diff :meth:`metrics` snapshots.
    """

    #: Gear-file fetches that reached the fabric chain (node pool misses).
    fetches: int = 0
    #: Fetches served from the shared tier's cache (including coalesced
    #: waiters served after their leader's fill landed).
    tier_hits: int = 0
    #: Fetches that found an identical fetch in flight and waited on it
    #: instead of going upstream — the suppressed stampede.
    tier_coalesced: int = 0
    #: Upstream (tier → registry) fetches the tier performed on miss.
    tier_upstream_fetches: int = 0
    #: Upstream fetches for an identity the tier had already fetched and
    #: not evicted/expired/invalidated since.  Must stay 0 while the
    #: tier is healthy: the stampede-suppression invariant.
    duplicate_upstream_fetches: int = 0
    #: Misses the tier's admission gate shed (TierOverloadedError).
    tier_sheds: int = 0
    #: Sheds observed by the client chain (== tier_sheds unless a shed
    #: surfaced through a coalesced path).
    sheds_seen: int = 0
    #: Tier attempts that failed retryably (outage, timeout) and fell
    #: over to the registry.
    tier_failovers: int = 0
    #: Chain calls that skipped the tier because its breaker was open.
    breaker_skips: int = 0
    #: Fetches served by direct registry fallback (tier missing, shed,
    #: failed, skipped, or demoted).
    registry_fallbacks: int = 0
    #: Payload bytes served from the tier cache over the tier link.
    tier_bytes: int = 0
    #: Registry egress the tier absorbed (bytes served from its cache
    #: that a tierless topology would have pulled over the WAN).
    egress_saved_bytes: int = 0
    #: Cache entries evicted for capacity (LRU).
    tier_evictions: int = 0
    #: Cache entries dropped because their TTL lapsed.
    tier_expirations: int = 0
    #: Whole-chain retry rounds that slept under the fabric RetryPolicy.
    backoffs: int = 0
    #: Chains that exhausted the retry policy.
    giveups: int = 0
    #: Times the tier was demoted for serving wrong bytes (byzantine).
    demotions: int = 0


class _TierEntry:
    """One cached Gear file in the shared tier."""

    __slots__ = ("gear_file", "stored_at", "wire_bytes")

    def __init__(self, gear_file: Any, stored_at: float) -> None:
        self.gear_file = gear_file
        self.stored_at = stored_at
        self.wire_bytes = gear_file.compressed_size


class SharedCacheTier:
    """The capacity-bounded intermediate cache between nodes and registry.

    Owns its own :class:`~repro.net.link.Link` (separate
    :class:`~repro.net.link.TransferLog`, so ``testbed.link.log`` keeps
    counting registry WAN egress only), an LRU cache bounded by
    ``capacity_bytes`` with optional ``ttl_s`` expiry, an
    :class:`~repro.net.resilience.AdmissionGate` bounding concurrent
    *upstream* fills, and the single-flight table that coalesces
    identical concurrent misses.  Cache bookkeeping charges zero virtual
    time; only tier-link transfers and upstream WAN calls advance the
    clock.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        link: Link,
        *,
        stats: FaasStats,
        capacity_bytes: Optional[int] = None,
        ttl_s: Optional[float] = None,
        admission: Optional[AdmissionGate] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("tier capacity must be positive when set")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("tier TTL must be positive when set")
        self.name = name
        self.clock = clock
        self.link = link
        self.stats = stats
        self.capacity_bytes = capacity_bytes
        self.ttl_s = ttl_s
        self.admission = admission if admission is not None else AdmissionGate()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.byzantine = False
        #: identity → cache entry, LRU order (oldest first).
        self.cache: "OrderedDict[str, _TierEntry]" = OrderedDict()
        #: Fills in flight, by identity (single-flight coalescing).
        self.inflight = SingleFlight()
        #: Identities upstream-fetched and still *valid* (not evicted,
        #: expired, or quarantined).  A second upstream fetch for a
        #: member is a suppression failure (``duplicate_upstream_fetches``).
        self._fetched: Set[str] = set()
        #: Identities whose last delivery the tier answers for: served
        #: from its cache, or a fill that passed the write-through gate.
        #: A fill it could not verify only passed through — the bytes
        #: (and the blame) belong to the transport below.
        self.vouched: Set[str] = set()
        self.used_bytes = 0

    # -- cache maintenance (zero virtual time) -------------------------

    def _invalidate(self, identity: str) -> None:
        entry = self.cache.pop(identity, None)
        if entry is not None:
            self.used_bytes -= entry.wire_bytes
        self._fetched.discard(identity)

    def _lookup(self, identity: str) -> Optional[_TierEntry]:
        """Fresh cache entry for ``identity``, LRU-touched; None on miss.

        A TTL-lapsed entry is dropped here — and leaves ``_fetched`` —
        so its eventual refill is a legitimate new upstream fetch, not a
        suppression failure.
        """
        entry = self.cache.get(identity)
        if entry is None:
            return None
        if self.ttl_s is not None and (
            self.clock.now - entry.stored_at >= self.ttl_s
        ):
            self._invalidate(identity)
            self.stats.tier_expirations += 1
            return None
        self.cache.move_to_end(identity)
        return entry

    def _insert(self, identity: str, gear_file: Any) -> None:
        entry = _TierEntry(gear_file, self.clock.now)
        if self.capacity_bytes is not None:
            if entry.wire_bytes > self.capacity_bytes:
                return  # larger than the whole tier: serve-through only
            while self.used_bytes + entry.wire_bytes > self.capacity_bytes:
                victim, _ = next(iter(self.cache.items()))
                self._invalidate(victim)
                self.stats.tier_evictions += 1
        self.cache[identity] = entry
        self.used_bytes += entry.wire_bytes
        self._fetched.add(identity)

    def evict(self, identity: str) -> bool:
        """Drop ``identity`` (quarantine/corruption path); returns
        whether the tier had vouched for its last delivery."""
        self._invalidate(identity)
        vouched = identity in self.vouched
        self.vouched.discard(identity)
        return vouched

    # -- serving -------------------------------------------------------

    def _deliver(
        self, identity: str, gear_file: Any, tag: str, vouch: bool = True
    ):
        """Pay the tier-link payload transfer and record whether the
        tier vouches for the bytes; junk them if byzantine."""
        yield from self.link.scoped(FAAS_TIER_ENDPOINT).transfer_gen(
            gear_file.compressed_size, label=f"{tag}:tier-payload"
        )
        if vouch:
            self.vouched.add(identity)
        else:
            self.vouched.discard(identity)
        if self.byzantine:
            return junk_payload(identity, f"byzantine:{self.name}:{identity}")
        return gear_file

    def _hit(self, identity: str, entry: _TierEntry, tag: str):
        self.stats.tier_hits += 1
        self.stats.tier_bytes += entry.wire_bytes
        self.stats.egress_saved_bytes += entry.wire_bytes
        return (yield from self._deliver(identity, entry.gear_file, tag))

    def fetch(self, identity: str, base: Any, label: Optional[str] = None):
        """Serve ``identity`` from cache, a coalesced fill, or upstream
        (a generator, like the fabric pass that steps it).

        Raises :class:`TierOverloadedError` when the miss path is full
        (never counted against the breaker by callers), retryable
        transport errors when the tier link is in an outage window, and
        re-raises upstream :class:`NotFoundError` as authoritative.
        """
        tag = label or f"{GEAR_ENDPOINT}.download"
        # The request frame is where an outage window rejects us (a
        # fault plan on the tier link targets the tier by name).
        yield from self.link.scoped(FAAS_TIER_ENDPOINT).transfer_gen(
            RpcTransport.REQUEST_FRAME_BYTES, label=f"{tag}:tier-request"
        )
        entry = self._lookup(identity)
        if entry is not None:
            return (yield from self._hit(identity, entry, tag))
        leader = self.inflight.pending(identity)
        if leader is not None:
            # Single-flight: wait for the identical fill in flight.
            self.stats.tier_coalesced += 1
            with self.clock.span("tier_wait", fp=identity[:12]):
                yield from leader.wait_gen()
            entry = self._lookup(identity)
            if entry is not None:
                return (yield from self._hit(identity, entry, tag))
            # Leader failed or the entry was too big to cache: fall
            # through to our own (gated) fill.
        return (yield from self._fill(identity, base, tag, label))

    def _fill(self, identity: str, base: Any, tag: str, label: Optional[str]):
        stats = self.stats
        if not self.admission.try_enter():
            stats.tier_sheds += 1
            raise TierOverloadedError(
                f"shared tier {self.name!r} admission queue full "
                f"(capacity {self.admission.capacity})"
            )
        event = self.inflight.claim(identity, self.clock)
        try:
            with self.clock.span("tier_fill", tier=self.name, fp=identity[:12]):
                value = yield from base.call_gen(
                    GEAR_ENDPOINT, "download", identity, label=label
                )
            stats.tier_upstream_fetches += 1
            if identity in self._fetched:
                stats.duplicate_upstream_fetches += 1
            # Write-through gated on verification, exactly like the edge
            # site cache: a corrupt WAN payload never poisons the tier.
            checked = verified(identity, value)
            if checked:
                self._insert(identity, value)
            return (yield from self._deliver(identity, value, tag, vouch=checked))
        finally:
            self.admission.exit()
            yield from self.inflight.release(identity, event)

    def __repr__(self) -> str:
        return (
            f"SharedCacheTier({self.name}, cached={len(self.cache)}, "
            f"used={self.used_bytes}B, inflight={len(self.inflight)})"
        )


class _SharedTier(Source):
    """The shared cache tier.  A shed is deliberate load control and a
    failure a breaker failure: both fall through to the registry in the
    same round.  A 404 is authoritative (the tier asked upstream)."""

    def __init__(self, fabric: "FaasFabric") -> None:
        self.fabric = fabric

    def fetch(self, identity: str, tag: str, label: Optional[str]):
        fabric, tier = self.fabric, self.fabric.tier
        with fabric.clock.span("tier_fetch", tier=tier.name, fp=identity[:12]):
            value = yield from tier.fetch(identity, fabric.base, label=label)
        tier.breaker.record_success(fabric.clock.now)
        return value

    def missed(self, error: BaseException) -> None:
        fabric = self.fabric
        if isinstance(error, TierOverloadedError):
            fabric.stats.sheds_seen += 1  # the breaker stays out of it
        elif isinstance(error, NotFoundError):
            raise error
        else:
            fabric.stats.tier_failovers += 1
            fabric.tier.breaker.record_failure(fabric.clock.now)
        return None


class _Registry(Source):
    """The transport below, over the WAN: a 404 or a failure here ends
    the pass."""

    def __init__(self, fabric: "FaasFabric") -> None:
        self.fabric = fabric

    def fetch(self, identity: str, tag: str, label: Optional[str]):
        fabric = self.fabric
        with fabric.clock.span("registry_fallback", fp=identity[:12]):
            value = yield from fabric.base.call_gen(
                GEAR_ENDPOINT, "download", identity, label=label
            )
        fabric.stats.registry_fallbacks += 1
        fabric.tier.vouched.discard(identity)
        return value


class FaasFabric(Tier):
    """The fleet-wide FaaS distribution fabric.

    Owns the shared tier, the :class:`FaasStats`, and the fabric-level
    :class:`RetryPolicy` governing whole-chain backoff rounds.  Node
    testbeds are minted by :meth:`client`, each wired over a
    :class:`~repro.net.resilience.FabricTransport` into it.  As a
    :class:`~repro.net.resilience.Tier` it adds the tier link to its
    testbed's wires; it runs no wave service.
    """

    def __init__(
        self,
        root: Any,
        tier: SharedCacheTier,
        *,
        stats: FaasStats,
        seed: str = "faas",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.root = root
        self.base = root.transport
        self.tier = tier
        self.stats = stats
        self.seed = seed
        self.retry_policy = retry_policy
        #: Permanently demoted tier (served wrong bytes).  Breakers heal;
        #: a byzantine tier does not.
        self.blacklisted = False
        self.nodes: List[Tuple[str, Any]] = []
        self._next_index = 0
        self._chain: List[Source] = [_SharedTier(self), _Registry(self)]

    @property
    def clock(self) -> SimClock:
        return self.root.clock

    def client(self, name: Optional[str] = None) -> Any:
        """Mint one FaaS node: the root's
        :meth:`~repro.bench.environment.Testbed.fresh_client` behind a
        :class:`~repro.net.resilience.FabricTransport` into this fabric."""
        index = self._next_index
        self._next_index += 1
        node_name = name if name is not None else f"faas-node-{index:03d}"
        bed = self.root.fresh_client(transport=FabricTransport(self, node_name))
        self.nodes.append((node_name, bed.gear_driver.pool))
        return bed

    # -- the tier's wiring ---------------------------------------------

    def links(self) -> List[Link]:
        return [self.tier.link]

    def instrument(self, metrics: Any) -> None:
        metrics.register("faas", self.stats)
        register_faults(metrics, self.tier.link, "faas-tier")
        if self.retry_policy is not None:
            self.retry_policy.register(metrics, "faas_retry")

    def add_probes(self, sampler: Any) -> None:
        tier, clock = self.tier, self.clock
        sampler.add_probe("tier_used_bytes", lambda: float(tier.used_bytes))
        sampler.add_probe(
            "tier_gate_depth", lambda: float(tier.admission.inflight)
        )
        sampler.add_probe(
            "tier_breaker_open",
            lambda: float(tier.breaker.state(clock.now) is BreakerState.OPEN),
        )

    # -- the degradation ladder ----------------------------------------

    def fetch(self, identity: str, node: Any, label: Optional[str] = None):
        """Resolve ``identity`` through shared tier → registry for any
        ``node`` alike (a generator: what a node's
        :class:`~repro.net.resilience.FabricTransport` steps).

        A demoted tier, or one whose breaker is open, is left out of the
        pass; a tier shed falls through to the registry in the same
        round and is never recorded against the tier's breaker.  Only a
        round where every source failed sleeps under the fabric retry
        policy before walking again (:func:`~repro.net.resilience.walk`).
        """
        tag = label or f"{GEAR_ENDPOINT}.download"
        return (yield from walk(
            self, self._sources, identity, tag, label, "faas-backoff"
        ))

    def _sources(self) -> List[Source]:
        if self.blacklisted:
            return self._chain[1:]
        if not self.tier.breaker.available(self.clock.now):
            self.stats.breaker_skips += 1
            return self._chain[1:]
        return self._chain

    # -- quarantine ----------------------------------------------------

    def report_corrupt(self, identity: str) -> bool:
        """The viewer verified ``identity`` and it hashed wrong.

        If the tier vouched for those bytes (a cache hit or a verified
        fill it then junked), demote it permanently: force its breaker
        open, blacklist it, and evict the entry.  The viewer's refetch
        then takes the registry.  Returns whether the tier was to blame;
        False sends the report on to the transport below.
        """
        if not self.tier.evict(identity):
            return False
        if not self.blacklisted:
            self.blacklisted = True
            self.tier.breaker.force_open(self.clock.now)
            self.stats.demotions += 1
        return True

    def audit_integrity(self) -> List[str]:
        """Every committed/cached payload that fails fingerprint naming.

        An empty list is the "zero poisoned commits" invariant: nothing
        a byzantine tier served ever reached a node pool, and nothing
        corrupt sits in the tier cache.
        """
        problems = [
            f"tier:{self.tier.name}:{identity}"
            for identity in sorted(self.tier.cache)
            if not verified(identity, self.tier.cache[identity].gear_file)
        ]
        for node_name, pool in self.nodes:
            problems += [
                f"node:{node_name}:{identity}" for identity in poisoned(pool)
            ]
        return problems

    def __repr__(self) -> str:
        return (
            f"FaasFabric(nodes={len(self.nodes)}, "
            f"tier={self.tier.name!r}, blacklisted={self.blacklisted})"
        )


# ---------------------------------------------------------------------------
# the platform: invocations over nodes


class _Resident:
    """One warm container on a node."""

    __slots__ = ("reference", "container", "fs_digest", "last_used_at")

    def __init__(
        self, reference: str, container: Any, fs_digest: str, last_used_at: float
    ) -> None:
        self.reference = reference
        self.container = container
        self.fs_digest = fs_digest
        self.last_used_at = last_used_at


@dataclass(frozen=True)
class InvocationResult:
    """One function invocation, as the platform measured it."""

    position: int
    function: str
    node: str
    reference: str
    kind: str  # "cold" | "warm" | "failed"
    latency_s: float
    fs_digest: str = ""
    degraded: bool = False
    error: str = ""
    #: Seconds from invocation start until the function's startup read
    #: set was satisfied (the service is *ready*) — always
    #: ``<= latency_s``.  Warm invocations are ready at dispatch.
    ready_s: float = 0.0


@dataclass(frozen=True)
class FaasRunReport:
    """One invocation-stream run: latency tails plus fabric accounting."""

    invocations: int
    cold_starts: int
    warm_starts: int
    failures: int
    #: Containers this run reaped after their keep-warm lapsed.
    reaped: int
    cold_p50_s: float
    cold_p99_s: float
    cold_p999_s: float
    #: Time-to-ready tails over cold starts (startup read set satisfied;
    #: each sample is ``<=`` its invocation's full cold latency).
    cold_ready_p50_s: float
    cold_ready_p99_s: float
    cold_ready_p999_s: float
    warm_p50_s: float
    warm_p999_s: float
    makespan_s: float
    wan_egress_bytes: int
    degraded: int
    #: Cold starts whose fs digest disagreed with an earlier cold start
    #: of the same reference — must be 0 (byte-identical guarantee).
    digest_conflicts: int
    #: reference → container fs digest (first cold start's).
    fs_digests: Dict[str, str]
    fabric: Dict[str, int]

    def as_dict(self) -> Dict[str, object]:
        """Every field by name; the two mappings in sorted key order."""
        summary: Dict[str, object] = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, dict):
                value = dict(sorted(value.items()))
            summary[field.name] = value
        return summary


def _tail(values: Sequence[float], q: float) -> float:
    """Percentile with the wave-report empty sentinel (0.0)."""
    return percentile(values, q) if values else 0.0


class FaasPlatform:
    """Thousands of functions over a handful of nodes, invoked on time.

    Each function maps to a fixed node
    (:func:`~repro.common.hashing.stable_u64` placement).  The first
    invocation on its node is a *cold start*: a full Gear deployment
    (index pull, container create/start, startup trace) whose file
    fetches walk pool → shared tier → registry.  Later invocations find
    the container resident and are *warm* — unless ``keep_warm_s``
    lapsed and the container was reaped, which makes the next one cold
    again (the recycling that turns traffic spikes into cold-start
    storms).
    """

    #: Virtual cost of dispatching into an already-warm container.
    WARM_INVOKE_S = 0.0005

    def __init__(
        self,
        root: Any,
        fabric: FaasFabric,
        *,
        nodes: int = 4,
        keep_warm_s: Optional[float] = None,
        seed: str = "faas",
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        if keep_warm_s is not None and keep_warm_s <= 0:
            raise ValueError("keep_warm_s must be positive when set")
        self.root = root
        self.fabric = fabric
        self.keep_warm_s = keep_warm_s
        self.seed = seed
        self.node_names = [f"faas-node-{index:02d}" for index in range(nodes)]
        self.node_beds = [fabric.client(name) for name in self.node_names]
        self._residents: List[Dict[str, _Resident]] = [{} for _ in range(nodes)]
        self.reaped = 0

    def _node_for(self, function: str) -> int:
        return stable_u64("faas-place", self.seed, function) % len(
            self.node_beds
        )

    # -- one invocation ------------------------------------------------

    def _invoke(self, invocation: ScheduledInvocation) -> InvocationResult:
        node_index = self._node_for(invocation.function)
        bed = self.node_beds[node_index]
        node_name = self.node_names[node_index]
        clock = bed.clock
        generated = invocation.image
        reference = generated.gear_reference
        residents = self._residents[node_index]
        resident = residents.get(invocation.function)
        now = clock.now
        if resident is not None and (
            self.keep_warm_s is None
            or now - resident.last_used_at < self.keep_warm_s
        ):
            with clock.span(
                "faas_invoke",
                fn=invocation.function,
                node=node_name,
                kind="warm",
            ):
                clock.advance(self.WARM_INVOKE_S, "faas-warm-invoke")
            resident.last_used_at = clock.now
            return InvocationResult(
                position=invocation.position,
                function=invocation.function,
                node=node_name,
                reference=generated.reference,
                kind="warm",
                latency_s=self.WARM_INVOKE_S,
                fs_digest=resident.fs_digest,
                ready_s=self.WARM_INVOKE_S,
            )
        if resident is not None:
            # Idled past keep-warm: reap, then cold-start below.
            residents.pop(invocation.function, None)
            bed.gear_driver.destroy_container(resident.container)
            self.reaped += 1
        try:
            with clock.span(
                "faas_invoke",
                fn=invocation.function,
                node=node_name,
                kind="cold",
            ):
                timer = clock.timer()
                report = bed.gear_driver.pull_index(reference)
                container = bed.gear_driver.create_container(reference)
                bed.gear_driver.start_container(container)
                task = task_for_category(generated.category)
                pre_task_s = timer.elapsed()
                with clock.span("task", category=generated.category):
                    task_result = task.run(
                        clock, container.mount, generated.trace
                    )
                ready_s = pre_task_s + task_result.ready_s
                latency = timer.elapsed()
        except Exception as error:  # the zero-failed-invocations gate
            return InvocationResult(
                position=invocation.position,
                function=invocation.function,
                node=node_name,
                reference=generated.reference,
                kind="failed",
                latency_s=0.0,
                error=f"{type(error).__name__}: {error}",
            )
        degraded = report.degraded or container.mount.fault_stats.degraded_fetches > 0
        digest = container.mount.fs_digest()
        residents[invocation.function] = _Resident(
            reference, container, digest, clock.now
        )
        return InvocationResult(
            position=invocation.position,
            function=invocation.function,
            node=node_name,
            reference=generated.reference,
            kind="cold",
            latency_s=latency,
            fs_digest=digest,
            degraded=degraded,
            ready_s=ready_s,
        )

    # -- the run -------------------------------------------------------

    def run(
        self,
        stream: Sequence[ScheduledInvocation],
        *,
        sampler: Optional[TimelineSampler] = None,
    ) -> FaasRunReport:
        """Replay ``stream`` on the virtual clock and report the tails.

        An arrival-driver generator process sleeps to each arrival
        instant and spawns the invocation as its own process, so
        concurrent cold starts contend for links, coalesce in flight,
        and shed under the gate exactly as the burst demands.

        The run has the wave runner's shape (DESIGN.md §8): start the
        ``sampler`` process if one is attached, await the arrival driver
        and then every invocation it spawned, stop the sampler, drain.
        The makespan is measured to the last invocation finish, so the
        sampler's wakes never extend it.
        """
        clock = self.root.clock
        stats = self.fabric.stats
        fabric_before = stats.metrics()
        egress_before = self.root.link.log.total_bytes
        reaped_before = self.reaped
        self.root.arm_faults()
        start = clock.now
        results: List[InvocationResult] = []
        finished: List[float] = []
        pending: List[Any] = []

        def invoke(invocation: ScheduledInvocation) -> None:
            begun = clock.now
            result = self._invoke(invocation)
            results.append(result)
            finished.append(clock.now)
            if sampler is not None and result.kind == "cold":
                sampler.record(
                    "cold_ready_s", begun + result.ready_s, result.ready_s
                )

        def arrivals() -> Iterator[float]:
            for invocation in stream:
                delay = start + invocation.at_s - clock.now
                if delay > 0:
                    yield delay
                    clock.note("faas-arrival-wait")
                pending.append(
                    scheduler.spawn(
                        invoke,
                        invocation,
                        name=f"faas-inv:{invocation.position:05d}",
                    )
                )

        with clock.span("faas_run", invocations=len(stream)):
            with SimScheduler(clock) as scheduler:
                if sampler is not None:
                    scheduler.spawn(sampler.run, name="timeline")
                if stream:
                    scheduler.run_until(
                        scheduler.spawn(arrivals, name="faas-arrivals")
                    )
                for process in pending:
                    scheduler.run_until(process)
                if sampler is not None:
                    sampler.stop()
                scheduler.run()

        ordered = sorted(results, key=lambda r: r.position)
        cold = [r.latency_s for r in ordered if r.kind == "cold"]
        cold_ready = [r.ready_s for r in ordered if r.kind == "cold"]
        warm = [r.latency_s for r in ordered if r.kind == "warm"]
        failures = [r for r in ordered if r.kind == "failed"]
        digests: Dict[str, str] = {}
        conflicts = 0
        for result in ordered:
            if result.kind != "cold":
                continue
            seen = digests.setdefault(result.reference, result.fs_digest)
            if seen != result.fs_digest:
                conflicts += 1
        fabric_after = stats.metrics()
        return FaasRunReport(
            invocations=len(ordered),
            cold_starts=len(cold),
            warm_starts=len(warm),
            failures=len(failures),
            reaped=self.reaped - reaped_before,
            cold_p50_s=_tail(cold, 50),
            cold_p99_s=_tail(cold, 99),
            cold_p999_s=_tail(cold, 99.9),
            cold_ready_p50_s=_tail(cold_ready, 50),
            cold_ready_p99_s=_tail(cold_ready, 99),
            cold_ready_p999_s=_tail(cold_ready, 99.9),
            warm_p50_s=_tail(warm, 50),
            warm_p999_s=_tail(warm, 99.9),
            makespan_s=(max(finished) - start) if finished else 0.0,
            wan_egress_bytes=self.root.link.log.total_bytes - egress_before,
            degraded=sum(1 for r in ordered if r.degraded),
            digest_conflicts=conflicts,
            fs_digests=digests,
            fabric={
                key: fabric_after[key] - fabric_before[key]
                for key in fabric_after
            },
        )
