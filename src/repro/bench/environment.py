"""Testbed assembly.

The paper's testbed (§V-A): two identical servers, one running the
registries (Docker Registry + Gear Registry on the same node) and one
running the Docker daemon, connected by a measured 904 Mbps link.
:func:`make_testbed` wires the same topology out of simulated parts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.common.clock import SimClock
from repro.docker.daemon import DockerDaemon
from repro.docker.registry import DockerRegistry
from repro.gear.converter import GearConverter
from repro.gear.driver import GearDriver
from repro.gear.pool import EvictionPolicy, SharedFilePool
from repro.gear.registry import GearRegistry
from repro.net.edge import EdgeFabric, EdgeSite, EdgeStats
from repro.net.faas import FaasFabric, FaasStats, SharedCacheTier
from repro.net.faults import FaultPlan, FaultyLink, register_faults
from repro.net.ha import (
    GEAR_ENDPOINT,
    HAFetchPolicy,
    HATransport,
    HealthMonitor,
    Replica,
    ReplicaSet,
)
from repro.net.link import Link
from repro.net.resilience import AdmissionGate, RetryPolicy, Tier
from repro.net.transport import RpcTransport
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineSampler, TimelineStats
from repro.obs.trace import SpanTracer
from repro.storage.disk import Disk, DiskProfile, HDD
from repro.workloads.corpus import GeneratedImage


@dataclass
class Testbed:
    """One client + one registry node over a configurable link."""

    #: Not a test class, whatever pytest's ``Test*`` collection rule says.
    __test__ = False

    clock: SimClock
    link: Link
    transport: RpcTransport
    docker_registry: DockerRegistry
    gear_registry: GearRegistry
    converter: GearConverter
    daemon: DockerDaemon
    gear_driver: GearDriver
    fault_plan: Optional[FaultPlan] = None
    #: The HA transport facade when this testbed has a replicated
    #: registry tier (same object as ``transport`` then).
    ha: Optional[HATransport] = None
    #: The unified metrics registry every stats group is registered
    #: with; ``metrics.snapshot()`` reads the whole testbed at once.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: The edge distribution fabric when this testbed has a peer-serving
    #: site tier (mint nodes with ``edge.client()``).
    edge: Optional[EdgeFabric] = None
    #: The FaaS distribution fabric when this testbed has a shared
    #: intermediate cache tier (mint nodes with ``faas.client()``).
    faas: Optional[FaasFabric] = None
    #: Sampler accounting shared by every :func:`make_timeline_sampler`
    #: built from this testbed; registered as the ``timeline`` metrics
    #: group, so the snapshot carries it too.
    timeline_stats: TimelineStats = field(default_factory=TimelineStats)

    def attach_tracer(self, tracer: Optional[SpanTracer] = None) -> SpanTracer:
        """Attach (or create) a span tracer on the testbed clock."""
        return self.clock.attach_tracer(tracer)

    @property
    def tiers(self) -> "list[Tier]":
        """The attached tiers, origin outward.  Each wires its own links,
        metrics, probes and wave services
        (:class:`~repro.net.resilience.Tier`)."""
        tiers = (self.ha, self.edge, self.faas)
        return [tier for tier in tiers if tier is not None]

    def registry_links(self) -> "list[Link]":
        """The registry-side wires: the base link, then the tiers' (every
        HA replica's)."""
        return [self.link] + [
            link for tier in self.tiers for link in tier.registry_links()
        ]

    def all_links(self) -> "list[Link]":
        """Every simulated wire: the registry side, then the tiers' own."""
        return self.registry_links() + [
            link for tier in self.tiers for link in tier.links()
        ]

    def set_bandwidth(self, bandwidth_mbps: float) -> None:
        """Change the client↔registry link speed in place (a FaaS tier's
        own link keeps its ``tier_mbps``)."""
        for link in self.registry_links():
            link.bandwidth_mbps = bandwidth_mbps

    def arm_faults(self) -> None:
        """Anchor the fault plans' outage windows at the current time.

        Call after publishing/converting so outage offsets are relative
        to deployment start, not corpus-construction time.
        """
        for link in self.all_links():
            if isinstance(link, FaultyLink):
                link.arm()

    def disarm_faults(self) -> None:
        """Suspend outage windows (drops/corruption stay live)."""
        for link in self.all_links():
            if isinstance(link, FaultyLink):
                link.disarm()

    def fresh_client(
        self,
        *,
        transport: Optional[RpcTransport] = None,
        pool: Optional[SharedFilePool] = None,
    ) -> "Testbed":
        """Mint a client node: new, empty client-side state (daemon,
        driver, cache) against this testbed's registries and clock.

        Sweeps use it to measure each image from a cold client without
        re-converting; clusters and fabrics mint every node with it.  The
        node is built like this testbed's own client: same disk profile,
        same pool capacity and policy.  A fabric passes the node's
        ``transport`` (its link in the download chain) and, when an edge
        peer must serve from the same cache, the ``pool``.
        """
        if transport is None:
            transport = self.transport
        if pool is None:
            pool = self.gear_driver.pool.empty_copy()
        daemon = DockerDaemon(
            self.clock, transport, disk=Disk(self.clock, self.daemon.disk.profile)
        )
        bed = dataclasses.replace(
            self,
            transport=transport,
            daemon=daemon,
            gear_driver=GearDriver(self.clock, daemon, transport, pool=pool),
        )
        # Replace-by-key: the new client's pool and journal take over the
        # old ones' registry slots.
        _register_client_metrics(bed)
        return bed


def _register_client_metrics(testbed: Testbed) -> None:
    """(Re-)register the client-side stat groups (pool, journal, mounts).

    Registration replaces by key, so a :meth:`Testbed.fresh_client` swap
    points the registry at the new client's groups instead of leaking
    the old ones.
    """
    testbed.metrics.register("pool", testbed.gear_driver.pool.stats)
    testbed.metrics.register("journal", testbed.gear_driver.journal.stats)
    testbed.metrics.register("chunk", testbed.gear_driver.chunk_stats)


def _instrument(testbed: Testbed, base: RpcTransport) -> None:
    """Wire every stats group in the testbed into its one registry.

    After this, ``testbed.metrics.snapshot()`` reads RPC endpoints on
    the ``base`` wire, fault injectors, retry spend, what the tiers
    register, the shared pool, and the journal.  Nothing resets them: a
    reader that wants one epoch diffs two reads.
    """
    metrics = testbed.metrics
    metrics.register("timeline", testbed.timeline_stats)
    for name in ("docker-registry", GEAR_ENDPOINT):
        if base.has_endpoint(name):
            metrics.register("rpc", base.endpoint(name).stats, endpoint=name)
    register_faults(metrics, testbed.link, "base")
    if base.retry_policy is not None:
        base.retry_policy.register(metrics, "retry", scope="base")
    for tier in testbed.tiers:
        tier.instrument(metrics)
    _register_client_metrics(testbed)


def _link(clock: SimClock, plan: Optional[FaultPlan], bandwidth_mbps: float) -> Link:
    """A plain link, or a :class:`FaultyLink` when ``plan`` injects faults."""
    if plan is None:
        return Link(clock, bandwidth_mbps=bandwidth_mbps)
    return FaultyLink(clock, plan, bandwidth_mbps=bandwidth_mbps)


def _with_client(
    base: RpcTransport,
    transport: RpcTransport,
    docker_registry: DockerRegistry,
    gear_registry,
    registry_disk: DiskProfile,
    client_disk: DiskProfile,
    pool_capacity_bytes: Optional[int],
    pool_policy: EvictionPolicy,
    fault_plan: Optional[FaultPlan],
) -> Testbed:
    """What every registry side is finished with: the converter, one
    client node (daemon, pool, driver) over ``transport`` (a tier over
    the ``base`` wire transport, or that transport), the metrics."""
    clock = base.link.clock
    daemon = DockerDaemon(clock, transport, disk=Disk(clock, client_disk))
    pool = SharedFilePool(capacity_bytes=pool_capacity_bytes, policy=pool_policy)
    testbed = Testbed(
        clock=clock,
        link=base.link,
        transport=transport,
        docker_registry=docker_registry,
        gear_registry=gear_registry,
        converter=GearConverter(
            clock, docker_registry, gear_registry, disk=Disk(clock, registry_disk)
        ),
        daemon=daemon,
        gear_driver=GearDriver(clock, daemon, transport, pool=pool),
        fault_plan=fault_plan,
        ha=transport if isinstance(transport, HATransport) else None,
    )
    _instrument(testbed, base)
    return testbed


def make_testbed(
    *,
    bandwidth_mbps: float = 904.0,
    registry_disk: DiskProfile = HDD,
    client_disk: DiskProfile = HDD,
    pool_capacity_bytes: Optional[int] = None,
    pool_policy: EvictionPolicy = EvictionPolicy.LRU,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> Testbed:
    """Assemble the two-node testbed of §V-A.

    A ``fault_plan`` swaps the link for a :class:`FaultyLink` and (unless
    an explicit ``retry_policy`` is given) equips the transport with the
    default :class:`RetryPolicy`.  Without a plan the wiring is exactly
    the seed topology — same link, no retry state, byte-identical logs.
    """
    link = _link(SimClock(), fault_plan, bandwidth_mbps)
    if fault_plan is not None and retry_policy is None:
        retry_policy = RetryPolicy()
    transport = RpcTransport(link, retry_policy=retry_policy)
    docker_registry = DockerRegistry()
    gear_registry = GearRegistry()
    transport.bind(docker_registry.endpoint())
    transport.bind(gear_registry.endpoint())
    return _with_client(
        transport, transport, docker_registry, gear_registry, registry_disk,
        client_disk, pool_capacity_bytes, pool_policy, fault_plan,
    )


def make_ha_testbed(
    *,
    replicas: int = 3,
    bandwidth_mbps: float = 904.0,
    registry_disk: DiskProfile = HDD,
    client_disk: DiskProfile = HDD,
    pool_capacity_bytes: Optional[int] = None,
    pool_policy: EvictionPolicy = EvictionPolicy.LRU,
    fault_plan: Optional[FaultPlan] = None,
    replica_fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    strategy: str = "primary-first",
    hedging: bool = True,
    admission_capacity: Optional[int] = None,
    seed: str = "ha",
) -> Testbed:
    """Assemble the testbed with a replicated Gear registry tier.

    ``replicas`` Gear registries each sit behind their own link and
    transport; the Docker registry stays on the base link (``fault_plan``
    applies there).  ``replica_fault_plans[i]`` swaps replica *i*'s link
    for a :class:`FaultyLink` — outages, brownouts, byzantine corruption
    per replica.  Every replica link shares the base link's
    :class:`~repro.net.link.TransferLog`, so byte accounting
    (``testbed.link.log``) stays fleet-wide exactly as in the
    single-registry testbed.

    The HA-level ``retry_policy`` governs failover backoff rounds;
    replica transports carry no per-call retry — a failed attempt fails
    over to the next replica instead of hammering the same one.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    clock = SimClock()
    base_link = _link(clock, fault_plan, bandwidth_mbps)
    base_retry = (
        RetryPolicy(seed=f"{seed}-docker") if fault_plan is not None else None
    )
    base_transport = RpcTransport(base_link, retry_policy=base_retry)
    docker_registry = DockerRegistry()
    base_transport.bind(docker_registry.endpoint())

    plans = list(replica_fault_plans) if replica_fault_plans else []
    members = []
    for index in range(replicas):
        plan = plans[index] if index < len(plans) else None
        replica_link = _link(clock, plan, bandwidth_mbps)
        replica_link.log = base_link.log
        replica_transport = RpcTransport(replica_link)
        registry = GearRegistry()
        replica_transport.bind(registry.endpoint())
        members.append(
            Replica(
                f"replica-{index}",
                index,
                registry,
                replica_link,
                replica_transport,
                admission=AdmissionGate(admission_capacity),
            )
        )
    replica_set = ReplicaSet(clock, members, seed=seed)
    policy = HAFetchPolicy(
        replica_set,
        strategy=strategy,
        retry_policy=retry_policy,
        hedging=hedging,
        seed=seed,
    )
    monitor = HealthMonitor(replica_set)
    return _with_client(
        base_transport, HATransport(base_transport, policy, monitor),
        docker_registry, replica_set, registry_disk, client_disk,
        pool_capacity_bytes, pool_policy, fault_plan,
    )


def attach_edge(
    testbed: Testbed,
    *,
    sites: int = 1,
    lan_mbps: float = 904.0,
    edge_retry_policy: Optional[RetryPolicy] = None,
    gossip_interval_s: float = 0.25,
    seed: str = "edge",
) -> Testbed:
    """Attach an edge/P2P tier to any registry side; returns ``testbed``.

    ``sites`` :class:`~repro.net.edge.EdgeSite`\\ s are attached, each
    with its own LAN link and :class:`~repro.net.link.TransferLog` — so
    ``testbed.link.log`` keeps counting *registry egress only* and the
    peer/site traffic shows up on the site links.  Mint nodes with
    ``testbed.edge.client()``; each gets a
    :class:`~repro.net.resilience.FabricTransport` into its site, walking
    the peer → site cache → ``testbed.transport`` chain.  With no peers
    holding a file and an
    empty site cache, that chain is byte- and time-identical to the
    bare testbed's registry call.  ``edge_retry_policy`` governs
    whole-chain backoff rounds (defaults to a fabric-seeded
    :class:`RetryPolicy`).
    """
    if sites < 1:
        raise ValueError("need at least one edge site")
    stats = EdgeStats()
    if edge_retry_policy is None:
        edge_retry_policy = RetryPolicy(seed=f"{seed}-fabric")
    site_list = [
        EdgeSite(
            f"site-{index}",
            testbed.clock,
            Link(testbed.clock, bandwidth_mbps=lan_mbps),
            stats=stats,
            base=testbed.transport,
            retry_policy=edge_retry_policy,
            seed=seed,
            gossip_interval_s=gossip_interval_s,
        )
        for index in range(sites)
    ]
    testbed.edge = EdgeFabric(
        testbed, site_list, stats=stats, seed=seed, retry_policy=edge_retry_policy
    )
    testbed.edge.instrument(testbed.metrics)
    return testbed


def attach_faas(
    testbed: Testbed,
    *,
    tier_mbps: float = 904.0,
    tier_fault_plan: Optional[FaultPlan] = None,
    faas_retry_policy: Optional[RetryPolicy] = None,
    tier_capacity_bytes: Optional[int] = None,
    tier_ttl_s: Optional[float] = None,
    tier_admission_capacity: Optional[int] = None,
    seed: str = "faas",
) -> Testbed:
    """Attach a shared cache tier to any registry side; returns ``testbed``.

    One :class:`~repro.net.faas.SharedCacheTier` is attached on its own
    link with its own :class:`~repro.net.link.TransferLog`, so
    ``testbed.link.log`` keeps counting *registry WAN egress only* and
    tier-served traffic shows up on the tier link.  Mint nodes with
    ``testbed.faas.client()``; each walks pool → tier →
    ``testbed.transport``.

    ``tier_fault_plan`` swaps the tier link for a
    :class:`~repro.net.faults.FaultyLink`; scope its windows to the tier
    with ``targets=("faas-tier",)`` (see
    :data:`~repro.net.faas.FAAS_TIER_ENDPOINT`).  ``faas_retry_policy``
    governs whole-chain backoff rounds (defaults to a fabric-seeded
    policy).
    """
    stats = FaasStats()
    tier_link = _link(testbed.clock, tier_fault_plan, tier_mbps)
    tier = SharedCacheTier(
        "shared-tier",
        testbed.clock,
        tier_link,
        stats=stats,
        capacity_bytes=tier_capacity_bytes,
        ttl_s=tier_ttl_s,
        admission=AdmissionGate(tier_admission_capacity),
    )
    if faas_retry_policy is None:
        faas_retry_policy = RetryPolicy(seed=f"{seed}-fabric")
    testbed.faas = FaasFabric(
        testbed, tier, stats=stats, seed=seed, retry_policy=faas_retry_policy
    )
    testbed.faas.instrument(testbed.metrics)
    return testbed


def make_faas_testbed(
    *,
    tier_mbps: float = 904.0,
    tier_fault_plan: Optional[FaultPlan] = None,
    faas_retry_policy: Optional[RetryPolicy] = None,
    tier_capacity_bytes: Optional[int] = None,
    tier_ttl_s: Optional[float] = None,
    tier_admission_capacity: Optional[int] = None,
    ha_replicas: int = 0,
    seed: str = "faas",
    **registry_side: Any,
) -> Testbed:
    """The three-tier FaaS testbed, nodes ↔ tier ↔ registry:
    :func:`make_testbed`'s registry side (or :func:`make_ha_testbed`'s
    when ``ha_replicas > 0`` — the Lambda-paper shape, a replicated store
    behind the shared cache) built from ``registry_side`` (its
    ``retry_policy`` and ``fault_plan`` apply to the WAN either way),
    then :func:`attach_faas`."""
    if ha_replicas > 0:
        testbed = make_ha_testbed(
            replicas=ha_replicas, seed=f"{seed}-ha", **registry_side
        )
    else:
        testbed = make_testbed(**registry_side)
    return attach_faas(
        testbed,
        tier_mbps=tier_mbps,
        tier_fault_plan=tier_fault_plan,
        faas_retry_policy=faas_retry_policy,
        tier_capacity_bytes=tier_capacity_bytes,
        tier_ttl_s=tier_ttl_s,
        tier_admission_capacity=tier_admission_capacity,
        seed=seed,
    )


def make_timeline_sampler(
    testbed: Testbed,
    *,
    period_s: float = 0.25,
    jitter: float = 0.2,
    seed: str = "timeline",
) -> TimelineSampler:
    """Build a :class:`TimelineSampler` wired with the standard probes.

    The probe set adapts to the testbed's tiers: the client pool and
    journal, every link's active flows / busy seconds / transferred
    bytes, then each tier's own gauges (replica breaker state and
    admission-gate depth under HA, LAN aggregates on edge fabrics, the
    shared FaaS tier's occupancy/gate/breaker).  All probes are pure
    reads — sampling never advances the clock or touches another
    component's RNG stream.  Pass the result to a wave helper's
    ``sampler=`` to attach it; detached runs spawn nothing and stay
    byte-identical.
    """
    sampler = TimelineSampler(
        testbed.clock,
        period_s=period_s,
        jitter=jitter,
        seed=seed,
        stats=testbed.timeline_stats,
    )
    pool = testbed.gear_driver.pool
    sampler.add_probe("pool_inflight", lambda: float(len(pool.inflight)))
    sampler.add_probe("pool_used_bytes", lambda: float(pool.used_bytes))
    journal = testbed.gear_driver.journal
    sampler.add_probe("journal_records", lambda: float(len(journal)))
    for index, link in enumerate(testbed.all_links()):
        scope = "base" if index == 0 else f"link-{index}"
        sampler.add_probe(
            f"link_active_flows:{scope}",
            lambda bound=link: float(bound.active_flows),
        )
        sampler.add_probe(
            f"link_busy_s:{scope}",
            lambda bound=link: float(bound.busy_seconds),
        )
        sampler.add_probe(
            f"link_bytes:{scope}",
            lambda bound=link: float(bound.log.total_bytes),
        )
    for tier in testbed.tiers:
        tier.add_probes(sampler)
    return sampler


def publish_images(
    testbed: Testbed,
    images: Iterable[GeneratedImage],
    *,
    convert: bool = True,
) -> list:
    """Push corpus images into the registries; optionally convert each.

    Returns the conversion reports (empty when ``convert=False``).
    """
    reports = []
    for generated in images:
        testbed.docker_registry.push_image(generated.image)
        if convert:
            _, report = testbed.converter.convert(generated.reference)
            reports.append(report)
    return reports
