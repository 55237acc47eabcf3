"""Multi-client topologies.

The paper's testbed is one client and one registry node.  Its motivation,
though, is fleet-scale: "the surge in the number of images puts high
pressure on the registry in terms of bandwidth" (§I).  This module models
that pressure point: N clients share the registry node's finite uplink,
so every byte a deployment downloads also consumes registry capacity.

Two deployment disciplines are supported:

* :meth:`Cluster.each_node` — the seed model: clients act in sequence (a
  rolling deployment) and the registry uplink accumulates utilization.
  Deterministic and byte-identical to the original sequential clock.
* :meth:`Cluster.deploy_wave` — concurrent waves: up to ``concurrency``
  clients deploy simultaneously under a discrete-event scheduler, their
  transfers fair-sharing the registry uplink.  The wave report carries
  the numbers an operator provisions for — per-client deployment
  latency percentiles (p50/p95/p99), fleet makespan, and registry-uplink
  utilization over virtual time.  Runs are deterministic: the same
  cluster and action produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type

from repro.bench.environment import (
    Testbed,
    attach_edge,
    make_ha_testbed,
    make_testbed,
)
from repro.common.clock import SimClock, SimScheduler

# The single nearest-rank implementation lives in repro.common.stats so
# wave reports and the HA hedging deadline estimator cannot disagree on
# tiny-sample semantics; re-exported here for existing callers.
from repro.common.stats import percentile
from repro.net.edge import ChurnDriver, ChurnSchedule
from repro.net.faults import CrashPlan, CrashPoint
from repro.net.resilience import Service
from repro.obs.timeline import TimelineSampler


def _outcome_ready_s(outcome: Any) -> Optional[float]:
    """Extract a wave action's time-to-ready, if it reported one."""
    ready = getattr(outcome, "ready_s", None)
    if isinstance(ready, (int, float)) and not isinstance(ready, bool):
        return float(ready)
    return None


def _ready_tuple(
    readiness: Dict[str, float], nodes: "List[ClientNode]"
) -> Tuple[float, ...]:
    """Per-node readiness in node order (empty unless every node
    reported one — a mixed wave would silently skew the tails)."""
    if len(readiness) != len(nodes):
        return ()
    return tuple(readiness[node.name] for node in nodes)


@dataclass
class ClientNode:
    """One deployment node in the cluster."""

    name: str
    testbed: Testbed


@dataclass(frozen=True)
class WaveReport:
    """What one concurrent deployment wave cost, fleet-wide."""

    concurrency: int
    #: Per-node deployment latency, in node order.
    latencies_s: Tuple[float, ...]
    #: Virtual time from first wave start to last client completion.
    makespan_s: float
    #: Registry bytes served during the wave (all clients).
    egress_bytes: int
    #: Seconds the registry uplink spent carrying ≥1 transfer.
    uplink_busy_s: float
    #: Per-node time-to-ready (startup read set satisfied), in node
    #: order.  Empty when the wave action returns no readiness (plain
    #: callables); populated whenever it returns a
    #: :class:`~repro.bench.deploy.DeploymentResult`-shaped object.
    ready_s: Tuple[float, ...] = ()

    def _latency_percentile(self, q: float) -> float:
        """Empty-wave sentinel: a wave that deployed nothing (zero
        clients, or every client shed) reports 0.0 rather than raising
        :class:`~repro.common.stats.EmptySampleError` mid-report."""
        if not self.latencies_s:
            return 0.0
        return percentile(self.latencies_s, q)

    def _ready_percentile(self, q: float) -> float:
        if not self.ready_s:
            return 0.0
        return percentile(self.ready_s, q)

    @property
    def p50_s(self) -> float:
        return self._latency_percentile(50)

    @property
    def p95_s(self) -> float:
        return self._latency_percentile(95)

    @property
    def p99_s(self) -> float:
        return self._latency_percentile(99)

    @property
    def mean_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    @property
    def ready_p50_s(self) -> float:
        return self._ready_percentile(50)

    @property
    def ready_p99_s(self) -> float:
        return self._ready_percentile(99)

    @property
    def ready_p999_s(self) -> float:
        return self._ready_percentile(99.9)

    @property
    def utilization(self) -> float:
        """Fraction of the wave the registry uplink was transmitting."""
        if self.makespan_s <= 0:
            return 0.0
        return self.uplink_busy_s / self.makespan_s

    #: Derived rates a subclass reports after its counters.
    RATES: ClassVar[Tuple[str, ...]] = ()

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready summary (used by the CLI determinism gate): the
        wave's tails and totals, then every counter field a subclass
        declares and its :attr:`RATES`, by name."""
        summary: Dict[str, object] = {
            "concurrency": self.concurrency,
            "clients": len(self.latencies_s),
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
            "ready_p50_s": self.ready_p50_s,
            "ready_p99_s": self.ready_p99_s,
            "ready_p999_s": self.ready_p999_s,
            "makespan_s": self.makespan_s,
            "egress_bytes": self.egress_bytes,
            "uplink_busy_s": self.uplink_busy_s,
            "utilization": self.utilization,
        }
        counters = [f.name for f in fields(self)[len(fields(WaveReport)):]]
        for name in (*counters, *self.RATES):
            summary[name] = getattr(self, name)
        return summary


class Cluster:
    """N client nodes against one registry pair.

    Every node gets its own daemon/driver/cache (its own machine) but all
    traffic crosses the shared registry endpoints, so registry-side
    accounting (egress bytes, requests served) is fleet-wide.  The shared
    link *is* the registry uplink: concurrent flows fair-share its
    ``bandwidth_mbps``.  A wave runs the root testbed's tier services and
    reports the delta of their counters in a :attr:`REPORT`.
    """

    #: The report class :meth:`deploy_wave` fills, field by field.
    REPORT: ClassVar[Type[WaveReport]] = WaveReport

    def __init__(
        self,
        node_count: int,
        *,
        bandwidth_mbps: float = 904.0,
        root: Optional[Testbed] = None,
    ) -> None:
        if node_count <= 0:
            raise ValueError("a cluster needs at least one node")
        self._root = root if root is not None else make_testbed(
            bandwidth_mbps=bandwidth_mbps
        )
        #: Scheduler events executed by the most recent ``deploy_wave``
        #: (the numerator of events/sec in the speed harness).
        self.last_wave_events = 0
        #: The cluster's own wave services, started after the tiers'.
        self.services: List[Service] = []
        self.nodes: List[ClientNode] = []
        for index in range(node_count):
            self.nodes.append(self._build_node(index))

    def _build_node(self, index: int) -> ClientNode:
        """Mint node ``index`` (subclasses swap in edge-aware clients)."""
        testbed = self._root.fresh_client()
        return ClientNode(name=f"node-{index:03d}", testbed=testbed)

    @property
    def clock(self) -> SimClock:
        return self._root.clock

    @property
    def registry_testbed(self) -> Testbed:
        return self._root

    @property
    def registry_egress_bytes(self) -> int:
        """All bytes the registry node served (every client shares the
        link log because they share the simulated wire)."""
        return self._root.link.log.total_bytes

    def each_node(
        self, action: Callable[[ClientNode], None]
    ) -> Dict[str, int]:
        """Run ``action`` on every node in sequence (a rolling deploy).

        Returns per-node download volume for the action.
        """
        per_node: Dict[str, int] = {}
        for node in self.nodes:
            before = self.registry_egress_bytes
            action(node)
            per_node[node.name] = self.registry_egress_bytes - before
        return per_node

    def _wave_counters(self) -> Dict[str, float]:
        """Running totals a wave report is the before/after delta of,
        keyed by report field name: the registry side's, then each
        tier's."""
        counters = {
            "egress_bytes": self.registry_egress_bytes,
            "uplink_busy_s": sum(
                link.busy_seconds for link in self._root.registry_links()
            ),
        }
        for tier in self._root.tiers:
            counters.update(tier.wave_counters())
        return counters

    def deploy_wave(
        self,
        action: Callable[[ClientNode], Any],
        *,
        concurrency: Optional[int] = None,
        sampler: Optional[TimelineSampler] = None,
    ) -> WaveReport:
        """Run ``action`` on every node in concurrent waves.

        ``concurrency`` clients start simultaneously; each wave waits for
        the previous one to finish (a staged rollout).  The default is
        all nodes at once.  Transfers from concurrent clients fair-share
        the registry uplink, so per-client latency degrades with load —
        the contention regime the sequential model cannot measure.

        Background services run beside the clients: a
        :class:`~repro.obs.timeline.TimelineSampler`, when one is passed,
        then the root's tier services origin outward (the HA health
        monitor, each edge site's gossip), then the cluster's own
        :attr:`services`.  They are stopped after the last client and the
        heap is drained, so attaching the sampler moves no client's
        virtual timing.  The makespan runs to the last *client*
        completion, and an action's exception surfaces only after the
        stop and the drain (DESIGN.md §8 states both rules).  The
        :attr:`REPORT` fields are filled by name from the
        :meth:`_wave_counters` delta, plus ``degraded``: the actions
        whose outcome carries a true ``degraded`` flag.
        """
        if concurrency is None:
            concurrency = len(self.nodes)
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        clock = self.clock
        services: List[Service] = [] if sampler is None else [
            (lambda s: s.spawn(sampler.run, name="timeline"), sampler.stop)
        ]
        for tier in self._root.tiers:
            services += tier.services()
        services += self.services
        before = self._wave_counters()
        start = clock.now
        latencies: Dict[str, float] = {}
        readiness: Dict[str, float] = {}
        finished_at: List[float] = []
        degraded = 0

        def client(node: ClientNode) -> None:
            nonlocal degraded
            begun = clock.now
            with clock.span("client_deploy", node=node.name):
                outcome = action(node)
            latencies[node.name] = clock.now - begun
            finished_at.append(clock.now)
            if getattr(outcome, "degraded", False):
                degraded += 1
            ready = _outcome_ready_s(outcome)
            if ready is not None:
                readiness[node.name] = ready
                if sampler is not None:
                    sampler.record("ready_s", begun + ready, ready)

        with clock.span("wave", concurrency=concurrency):
            with SimScheduler(clock) as scheduler:
                for begin, _ in services:
                    begin(scheduler)
                try:
                    for offset in range(0, len(self.nodes), concurrency):
                        batch = [
                            scheduler.spawn(client, node, name=node.name)
                            for node in self.nodes[offset:offset + concurrency]
                        ]
                        for process in batch:
                            scheduler.run_until(process)
                finally:
                    for _, stop in services:
                        stop()
                    scheduler.run()
                self.last_wave_events = scheduler.events_processed

        after = self._wave_counters()
        delta = {key: after[key] - before[key] for key in after}
        delta["degraded"] = degraded
        wanted = {f.name for f in fields(self.REPORT)}
        return self.REPORT(
            concurrency=concurrency,
            latencies_s=tuple(latencies[node.name] for node in self.nodes),
            makespan_s=(max(finished_at) - start) if finished_at else 0.0,
            ready_s=_ready_tuple(readiness, self.nodes),
            **{key: delta[key] for key in delta if key in wanted},
        )


@dataclass(frozen=True)
class HAWaveReport(WaveReport):
    """A wave against a replicated registry tier: failover accounting."""

    fetches: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    cancels: int = 0
    wasted_hedge_bytes: int = 0
    sheds: int = 0
    failovers: int = 0
    backoffs: int = 0
    breaker_trips: int = 0
    demotions: int = 0
    #: Deployments that fell back to degraded Docker-pull mode (counted
    #: when the wave action returns a result with a ``degraded`` flag).
    degraded: int = 0
    probes: int = 0

    RATES: ClassVar[Tuple[str, ...]] = ("hedge_rate", "shed_rate")

    @property
    def hedge_rate(self) -> float:
        return self.hedges / self.fetches if self.fetches else 0.0

    @property
    def shed_rate(self) -> float:
        return self.sheds / self.fetches if self.fetches else 0.0


class HACluster(Cluster):
    """A cluster whose registry tier is a :class:`~repro.net.ha.ReplicaSet`.

    Same node model as :class:`Cluster`, but the root testbed carries N
    replicated Gear registries behind the :class:`~repro.net.ha.
    HATransport`, whose health monitor runs alongside the clients of
    every wave; the report carries the HA accounting deltas.
    """

    REPORT = HAWaveReport

    def __init__(
        self, node_count: int, *, bandwidth_mbps: float = 904.0, **ha_kwargs: Any
    ) -> None:
        root = make_ha_testbed(bandwidth_mbps=bandwidth_mbps, **ha_kwargs)
        super().__init__(node_count, root=root)


@dataclass(frozen=True)
class EdgeWaveReport(WaveReport):
    """A wave over the edge fabric: peer-tier and adversity accounting.

    ``egress_bytes`` (inherited) counts *registry* egress only — site
    links keep their own transfer logs — so the WAN savings the peer tier
    buys are directly visible.  ``lan_bytes``/``lan_busy_s`` account the
    intra-site traffic that replaced it.
    """

    fetches: int = 0
    peer_hits: int = 0
    site_hits: int = 0
    registry_fetches: int = 0
    peer_bytes: int = 0
    site_bytes: int = 0
    egress_saved_bytes: int = 0
    stale_resolutions: int = 0
    failovers: int = 0
    backoffs: int = 0
    giveups: int = 0
    breaker_skips: int = 0
    blacklists: int = 0
    peer_crashes: int = 0
    joins: int = 0
    leaves: int = 0
    gossip_rounds: int = 0
    #: Deployments that fell back to degraded Docker-pull mode.
    degraded: int = 0
    #: Intra-site (LAN) traffic during the wave, across all sites.
    lan_bytes: int = 0
    lan_busy_s: float = 0.0

    RATES: ClassVar[Tuple[str, ...]] = ("peer_hit_rate", "offload_rate")

    @property
    def peer_hit_rate(self) -> float:
        return self.peer_hits / self.fetches if self.fetches else 0.0

    @property
    def offload_rate(self) -> float:
        """Fraction of chain fetches the registry never saw."""
        if not self.fetches:
            return 0.0
        return (self.peer_hits + self.site_hits) / self.fetches


class EdgeCluster(Cluster):
    """A cluster whose nodes peer-serve Gear files within edge sites.

    Nodes are minted through the fabric (each joins a site round-robin
    and gets a :class:`~repro.net.resilience.FabricTransport` into it),
    so node ``i``'s peer name is its node name.  The adversity menu is
    declared up front and injected deterministically during
    :meth:`deploy_wave`, where each site's gossip loop and then the churn
    driver run alongside the clients:

    * ``churn_rate_per_s`` — seeded join/leave schedule over
      ``churn_horizon_s`` (at least one peer always stays online);
    * ``byzantine`` — node indices that serve corrupt bytes;
    * ``crash_node`` — node index whose peer crashes mid-serve on its
      ``crash_op_index``-th serve (a :class:`~repro.net.faults.CrashPlan`
      at ``MID_FETCH``).

    ``edge_kwargs`` go to :func:`~repro.bench.environment.attach_edge`.
    """

    REPORT = EdgeWaveReport

    def __init__(
        self,
        node_count: int,
        *,
        bandwidth_mbps: float = 904.0,
        churn_rate_per_s: float = 0.0,
        churn_horizon_s: float = 10.0,
        byzantine: Tuple[int, ...] = (),
        crash_node: Optional[int] = None,
        crash_op_index: int = 0,
        seed: str = "edge",
        **edge_kwargs: Any,
    ) -> None:
        root = attach_edge(
            make_testbed(bandwidth_mbps=bandwidth_mbps), seed=seed, **edge_kwargs
        )
        super().__init__(node_count, root=root)
        fabric = self.fabric = root.edge
        self.seed = seed
        for index in byzantine:
            fabric.peers[index].byzantine = True
        if crash_node is not None:
            fabric.peers[crash_node].arm_crash(
                root.clock,
                CrashPlan(
                    point=CrashPoint.MID_FETCH, seed=seed, op_index=crash_op_index
                ),
            )
        schedule = ChurnSchedule.generate(
            [node.name for node in self.nodes],
            seed=seed,
            rate_per_s=churn_rate_per_s,
            horizon_s=churn_horizon_s,
        )
        self.churn = ChurnDriver(fabric, schedule)
        self.services.append((self.churn.start, self.churn.stop))

    def _build_node(self, index: int) -> ClientNode:
        name = f"node-{index:03d}"
        return ClientNode(name=name, testbed=self._root.edge.client(name))
