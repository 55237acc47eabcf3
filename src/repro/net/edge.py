"""Multi-tier edge/P2P distribution of Gear files.

Gear's lazy file-granular pull concentrates every fetch on the registry
tier.  This module models the topology edge deployments actually use
(EdgePier-style P2P across sites, Lambda-style multi-tier caches):

    registry ←WAN→ edge site ←LAN→ nodes

Nodes that already hold a Gear file serve it to site neighbours over the
LAN.  A per-site **tracker** maps fingerprints to the peers that held
them at the last gossip round; fetch resolution walks a failover chain —

    seeded peer selection → site shared cache → registry fallback

— under per-peer :class:`~repro.net.ha.CircuitBreaker`\\ s and the fabric
:class:`~repro.net.resilience.RetryPolicy`, so a dead, stale, or slow
peer costs one bounded round, never a failed deploy.  The chain's shape
(transport decorator, round loop, corrupt-report forwarding) is the
shared one in :mod:`repro.net.resilience`; this module supplies the
sources and what their failures mean.

Robustness semantics:

* **Stale tracker entries** (peer departed or evicted the file after the
  last gossip) are discovered on contact, demoted immediately, and the
  chain falls over to the next tier.
* **Churn** is a seeded join/leave schedule (:class:`ChurnSchedule`)
  replayed by a :class:`ChurnDriver` process during waves.
* **Peer crash mid-serve** reuses :class:`~repro.net.faults.CrashPlan`:
  the in-flight LAN transfer aborts after a partial payload, the peer
  goes offline, and the requester fails over.
* **Byzantine peers** serve well-formed but wrong bytes.  The viewer's
  fingerprint verification quarantines the payload and calls the
  transport's ``report_corrupt_payload`` hook; the fabric attributes the
  payload to the serving peer, blacklists it (breaker forced open,
  tracker entries dropped), and the refetch takes the next tier —
  committed bytes are never poisoned.

Determinism: peer selection, gossip jitter, and churn schedules all draw
from :func:`~repro.common.rng.rng_for` streams, and tracker/cache
bookkeeping charges zero virtual time — with no peers and an empty site
cache the chain degenerates to exactly the single-tier registry call,
byte- and time-identical to :func:`repro.bench.environment.make_testbed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.clock import Process, SimClock
from repro.common.errors import (
    ClientCrash,
    NotFoundError,
    UnavailableError,
)
from repro.common.rng import rng_for
from repro.net.faults import CrashInjector, CrashPlan, CrashPoint, junk_payload
from repro.net.ha import CircuitBreaker
from repro.net.link import Link
from repro.net.resilience import (
    GEAR_ENDPOINT,
    FabricTransport,
    RetryPolicy,
    Service,
    Source,
    Tier,
    walk,
)
from repro.net.transport import RpcTransport
from repro.obs.metrics import MetricSet

#: Each site's tracker refresh period in virtual seconds, before its
#: seeded jitter of ±25 %.
GOSSIP_INTERVAL_S = 0.25


@dataclass
class EdgeStats(MetricSet):
    """Fleet-wide accounting for the edge distribution fabric.

    One shared instance per fabric (like :class:`~repro.net.ha.HAStats`):
    wave reports diff :meth:`metrics` snapshots taken before/after.
    """

    #: Gear-file fetches that reached the edge chain (viewer pool misses).
    fetches: int = 0
    #: Fetches served by a site neighbour over the LAN.
    peer_hits: int = 0
    #: Fetches served from the site shared cache.
    site_hits: int = 0
    #: Fetches that fell through to the registry over the WAN.
    registry_fetches: int = 0
    #: Compressed bytes served by peers.
    peer_bytes: int = 0
    #: Compressed bytes served from site caches.
    site_bytes: int = 0
    #: WAN bytes the peer/site tiers absorbed (the egress the registry
    #: would have served in a single-tier topology).
    egress_saved_bytes: int = 0
    #: Tracker entries that turned out wrong on contact (peer gone or
    #: file evicted since the last gossip); each is demoted on the spot.
    stale_resolutions: int = 0
    #: Peer attempts that failed and fell over to the next candidate/tier.
    failovers: int = 0
    #: Whole-chain retry rounds that slept under the fabric RetryPolicy.
    backoffs: int = 0
    #: Chains that exhausted the retry policy.
    giveups: int = 0
    #: Candidates skipped because their breaker was open.
    breaker_skips: int = 0
    #: Peers blacklisted for serving corrupt bytes.
    blacklists: int = 0
    #: Peers that crashed mid-serve (CrashPlan fired).
    peer_crashes: int = 0
    #: Churn events applied.
    joins: int = 0
    leaves: int = 0
    #: Tracker refresh rounds across all sites.
    gossip_rounds: int = 0


class EdgePeer:
    """One node's serving side: its shared file pool, exported to the site.

    ``online`` flips with churn; ``byzantine`` makes the peer serve
    deterministic junk under the requested identity; an armed
    :class:`~repro.net.faults.CrashInjector` (``MID_FETCH``) kills the
    peer partway through its *n*-th serve.
    """

    def __init__(self, name: str, pool: Any) -> None:
        self.name = name
        self.pool = pool
        self.online = True
        self.byzantine = False
        self.breaker = CircuitBreaker()
        self.crash: Optional[CrashInjector] = None
        #: Shared fabric stats, wired in by :meth:`EdgeSite.add_peer`.
        self.stats: Optional[EdgeStats] = None
        self.serves = 0

    def arm_crash(self, clock: SimClock, plan: CrashPlan) -> CrashInjector:
        self.crash = CrashInjector(clock, plan)
        return self.crash

    def serve(self, identity: str, link: Link, tag: str):
        """Serve ``identity`` over ``link`` (a generator); returns
        ``(gear_file, wire)``.

        Raises :class:`UnavailableError` when the peer is offline (the
        probe frame still crosses the LAN) or crashes mid-serve, and
        :class:`NotFoundError` when the tracker entry is stale (the file
        was evicted since registration).
        """
        yield from link.transfer_gen(
            RpcTransport.REQUEST_FRAME_BYTES, label=f"{tag}:peer-request"
        )
        if not self.online:
            raise UnavailableError(f"peer {self.name!r} is offline")
        inode = self.pool.peek(identity)
        if inode is None or inode.blob is None:
            raise NotFoundError(f"peer {self.name!r} no longer holds {identity!r}")
        from repro.gear.gearfile import GearFile

        gear_file = GearFile(identity=identity, blob=inode.blob)
        wire = gear_file.compressed_size
        if self.crash is not None and self.crash.take(CrashPoint.MID_FETCH):
            partial = int(wire * self.crash.plan.partial_fraction)
            if partial > 0:
                yield from link.transfer_gen(partial, label=f"{tag}:peer-aborted")
            self.online = False
            if self.stats is not None:
                self.stats.peer_crashes += 1
            try:
                self.crash.fire(CrashPoint.MID_FETCH)
            except ClientCrash:
                pass  # the *peer* died; the requester sees an aborted serve
            raise UnavailableError(f"peer {self.name!r} crashed mid-serve")
        yield from link.transfer_gen(wire, label=f"{tag}:peer-payload")
        if self.byzantine:
            return junk_payload(identity, f"byzantine:{self.name}:{identity}"), wire
        self.serves += 1
        return gear_file, wire

    def __repr__(self) -> str:
        state = "online" if self.online else "offline"
        return f"EdgePeer({self.name}, {state}, serves={self.serves})"


class SiteTracker:
    """Fingerprint → peer-names map, refreshed by gossip rounds.

    The published view is only as fresh as the last round: peers that
    departed or evicted files since then leave *stale* entries behind,
    which the fetch path discovers on contact and demotes immediately.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[str, ...]] = {}

    def publish(self, holdings: Dict[str, Sequence[str]]) -> int:
        """Replace the view with ``peer → identities`` announcements."""
        entries: Dict[str, List[str]] = {}
        for peer_name, identities in holdings.items():
            for identity in identities:
                entries.setdefault(identity, []).append(peer_name)
        self._entries = {
            identity: tuple(names) for identity, names in entries.items()
        }
        return len(self._entries)

    def resolve(self, identity: str) -> Tuple[str, ...]:
        return self._entries.get(identity, ())

    def drop_entry(self, identity: str, peer_name: str) -> None:
        names = self._entries.get(identity)
        if not names or peer_name not in names:
            return
        remaining = tuple(name for name in names if name != peer_name)
        if remaining:
            self._entries[identity] = remaining
        else:
            del self._entries[identity]

    def drop_peer(self, peer_name: str) -> None:
        for identity in list(self._entries):
            self.drop_entry(identity, peer_name)


class _Peer(Source):
    """A site neighbour the tracker names for the file: ``fetch`` is its
    serve over the LAN; a miss demotes it and the pass walks on."""

    def __init__(self, site: "EdgeSite", peer: EdgePeer, identity: str) -> None:
        self.site = site
        self.peer = peer
        self.identity = identity

    def fetch(self, identity: str, tag: str, label: Optional[str]):
        site, peer = self.site, self.peer
        # Read at the try, not at list-build time: an earlier source's
        # serve may have taken a while.
        self.was_online = peer.online
        with site.clock.span("peer_fetch", peer=peer.name, fp=identity[:12]):
            gear_file, wire = yield from peer.serve(identity, site.link, tag)
        peer.breaker.record_success(site.clock.now)
        stats = site.stats
        stats.peer_hits += 1
        stats.peer_bytes += wire
        stats.egress_saved_bytes += wire
        site.served[identity] = peer
        return gear_file

    def missed(self, error: BaseException) -> None:
        site, peer, stats = self.site, self.peer, self.site.stats
        if isinstance(error, NotFoundError):
            # Stale entry: the peer evicted the file after the last
            # gossip round.
            stats.stale_resolutions += 1
            site.tracker.drop_entry(self.identity, peer.name)
        else:
            stats.failovers += 1
            if not self.was_online:
                # Departed peer still in the tracker: stale.
                stats.stale_resolutions += 1
            site.tracker.drop_peer(peer.name)
        peer.breaker.record_failure(site.clock.now)
        return None


class _SiteCache(Source):
    """The site's shared cache: a copy served over the LAN, or none."""

    def __init__(self, site: "EdgeSite") -> None:
        self.site = site

    def fetch(self, identity: str, tag: str, label: Optional[str]):
        site = self.site
        cached = site.cache.get(identity)
        if cached is None:
            return None
        wire = cached.compressed_size
        yield from site.link.transfer_gen(
            RpcTransport.REQUEST_FRAME_BYTES, label=f"{tag}:site-request"
        )
        yield from site.link.transfer_gen(wire, label=f"{tag}:site-payload")
        site.stats.site_hits += 1
        site.stats.site_bytes += wire
        site.stats.egress_saved_bytes += wire
        site.served.pop(identity, None)
        return cached


class _Registry(Source):
    """The transport below, over the WAN.  A 404 is authoritative (no
    tier can have the file) and a failure fails the round: both end the
    pass."""

    def __init__(self, site: "EdgeSite") -> None:
        self.site = site

    def fetch(self, identity: str, tag: str, label: Optional[str]):
        from repro.gear.gearfile import verified  # gear imports net: late

        site = self.site
        with site.clock.span("fallback", site=site.name, fp=identity[:12]):
            value = yield from site.base.call_gen(
                GEAR_ENDPOINT, "download", identity, label=label
            )
        site.stats.registry_fetches += 1
        # Write-through, gated on verification so a corrupt WAN
        # payload can never poison the shared tier.
        if verified(identity, value):
            site.cache[identity] = value
        site.served.pop(identity, None)
        return value


class EdgeSite:
    """One edge site: a LAN, its peers, a shared cache, and a tracker.

    The site cache is write-through for *verified* registry fetches only
    (peer-served bytes never enter it, so a byzantine peer cannot poison
    the shared tier).  Tracker and cache bookkeeping charge zero virtual
    time; only LAN transfers and WAN calls advance the clock.  ``base``
    is the transport below (the WAN), ``retry_policy`` governs the
    backoff between failed passes.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        link: Link,
        *,
        stats: EdgeStats,
        base: Any,
        retry_policy: RetryPolicy,
        seed: str = "edge",
    ) -> None:
        self.name = name
        self.clock = clock
        self.link = link
        self.stats = stats
        self.base = base
        self.retry_policy = retry_policy
        self.peers: List[EdgePeer] = []
        self.cache: Dict[str, Any] = {}
        self.tracker = SiteTracker()
        self.blacklisted: Set[str] = set()
        self._peers_by_name: Dict[str, EdgePeer] = {}
        self._select_rng = rng_for("edge-select", seed, name)
        self._gossip_rng = rng_for("edge-gossip", seed, name)
        #: identity → the peer that served its last fetch here, for
        #: blame (a site-cache or registry serve clears it).
        self.served: Dict[str, EdgePeer] = {}
        #: What every pass tries after the peers.
        self._behind_peers: List[Source] = [_SiteCache(self), _Registry(self)]
        self._stop = True
        self.gossip_process: Optional[Process] = None

    # -- membership ----------------------------------------------------

    def add_peer(self, peer: EdgePeer) -> EdgePeer:
        if peer.name in self._peers_by_name:
            raise ValueError(f"peer {peer.name!r} already on site {self.name!r}")
        peer.stats = self.stats
        self.peers.append(peer)
        self._peers_by_name[peer.name] = peer
        return peer

    def peer(self, name: str) -> EdgePeer:
        return self._peers_by_name[name]

    # -- gossip --------------------------------------------------------

    def gossip(self) -> int:
        """One tracker refresh: online peers re-announce their holdings.

        Full re-announce keeps the protocol trivially deterministic; a
        freshly fetched file becomes peer-servable only after the next
        round, and entries for departed/evicted holdings are pruned here
        (until then they are the *stale* entries the chain demotes).
        """
        holdings = {
            peer.name: tuple(peer.pool.identities())
            for peer in self.peers
            if peer.online and peer.name not in self.blacklisted
        }
        published = self.tracker.publish(holdings)
        self.stats.gossip_rounds += 1
        return published

    def start_gossip(self, scheduler: Any) -> Process:
        """Run periodic gossip as a scheduler process (wave mode)."""
        self._stop = False
        self.gossip_process = scheduler.spawn(
            self._gossip_loop, name=f"edge-gossip:{self.name}"
        )
        return self.gossip_process

    def stop_gossip(self) -> None:
        self._stop = True

    def _gossip_loop(self) -> Iterator[float]:
        # A generator process: each ``yield`` parks the loop on the
        # scheduler heap directly, with no worker-thread handoff per
        # round.  The schedule is (time, seq)-identical to the former
        # thread-backed loop — one transient event per sleep, label
        # noted on resume — so traces and tie-breaking are unchanged.
        while not self._stop:
            self.gossip()
            # Seeded jitter keeps rounds from phase-locking with waves
            # while staying reproducible run-to-run.
            jitter = GOSSIP_INTERVAL_S * (
                0.75 + 0.5 * self._gossip_rng.random()
            )
            yield jitter
            self.clock.note("edge-gossip-wait")

    # -- the failover chain --------------------------------------------

    def candidates(self, identity: str, requester: EdgePeer) -> List[EdgePeer]:
        """Live-looking candidates for ``identity``, in seeded order."""
        now = self.clock.now
        picked: List[EdgePeer] = []
        for name in self.tracker.resolve(identity):
            if name == requester.name or name in self.blacklisted:
                continue
            peer = self._peers_by_name.get(name)
            if peer is None:
                continue
            if not peer.breaker.available(now):
                self.stats.breaker_skips += 1
                continue
            picked.append(peer)
        if len(picked) > 1:
            self._select_rng.shuffle(picked)
        return picked

    def fetch(
        self, identity: str, requester: EdgePeer, label: Optional[str] = None
    ):
        """Resolve ``identity`` for ``requester`` through peers → site
        cache → registry (a generator: what its node's
        :class:`~repro.net.resilience.FabricTransport` steps).

        Each pass resolves the tracker's candidates afresh and walks
        them, then the site cache and the registry
        (:func:`~repro.net.resilience.walk`); only a round where every
        source failed sleeps under the site's retry policy.
        """

        def sources() -> List[Source]:
            with self.clock.span("tracker_resolve", site=self.name, fp=identity[:12]):
                candidates = self.candidates(identity, requester)
            return [_Peer(self, peer, identity) for peer in candidates] + (
                self._behind_peers
            )

        tag = label or f"{GEAR_ENDPOINT}.download"
        return (yield from walk(self, sources, identity, tag, label, "edge-backoff"))

    # -- quarantine ----------------------------------------------------

    def report_corrupt(self, identity: str) -> bool:
        """The viewer verified ``identity`` and it hashed wrong.

        Attribute the payload to the last server: a peer gets
        blacklisted; the site cache entry (if any) is evicted either way.
        Returns whether a peer was responsible; False sends the report on
        to the transport below.
        """
        self.cache.pop(identity, None)
        peer = self.served.pop(identity, None)
        if peer is None:
            return False
        self.blacklist(peer)
        return True

    def blacklist(self, peer: EdgePeer) -> None:
        if peer.name in self.blacklisted:
            return
        self.blacklisted.add(peer.name)
        peer.breaker.force_open(self.clock.now)
        self.tracker.drop_peer(peer.name)
        self.stats.blacklists += 1

    def __repr__(self) -> str:
        return (
            f"EdgeSite({self.name}, peers={len(self.peers)}, "
            f"tracked={len(self.tracker._entries)}, cached={len(self.cache)})"
        )


class EdgeFabric(Tier):
    """The fleet-wide edge distribution fabric.

    Owns the sites, the shared :class:`EdgeStats`, and the fabric-level
    :class:`RetryPolicy` governing whole-chain backoff rounds (each site
    holds it too).  Client nodes are minted by :meth:`client`, which
    assigns each one to a site round-robin and wires its daemon/driver
    over a :class:`~repro.net.resilience.FabricTransport` into that site.
    As a :class:`~repro.net.resilience.Tier` it adds LAN gauges to the
    timeline and each site's gossip loop to every wave.
    """

    def __init__(
        self,
        root: Any,
        sites: Sequence[EdgeSite],
        *,
        stats: EdgeStats,
        seed: str = "edge",
        retry_policy: RetryPolicy,
    ) -> None:
        if not sites:
            raise ValueError("an edge fabric needs at least one site")
        self.root = root
        self.sites = list(sites)
        self.stats = stats
        self.seed = seed
        self.retry_policy = retry_policy
        self._next_index = 0

    @property
    def clock(self) -> SimClock:
        return self.root.clock

    @property
    def peers(self) -> List[EdgePeer]:
        return [peer for site in self.sites for peer in site.peers]

    def peer(self, name: str) -> EdgePeer:
        return self.site_of(name).peer(name)

    def site_of(self, peer_name: str) -> EdgeSite:
        for site in self.sites:
            if peer_name in site._peers_by_name:
                return site
        raise KeyError(f"no peer named {peer_name!r} in the fabric")

    def lan_links(self) -> List[Link]:
        return [site.link for site in self.sites]

    def client(self, name: Optional[str] = None) -> Any:
        """Mint one edge node: the root's
        :meth:`~repro.bench.environment.Testbed.fresh_client` behind a
        :class:`~repro.net.resilience.FabricTransport` into its site, its
        pool shared with its site peer."""
        index = self._next_index
        self._next_index += 1
        peer_name = name if name is not None else f"edge-{index:03d}"
        site = self.sites[index % len(self.sites)]
        pool = self.root.gear_driver.pool.empty_copy()
        peer = site.add_peer(EdgePeer(peer_name, pool))
        return self.root.fresh_client(
            transport=FabricTransport(site, peer), pool=pool
        )

    def gossip(self) -> int:
        """Manual tracker refresh across every site (sequential mode)."""
        return sum(site.gossip() for site in self.sites)

    # -- the tier's wiring -------------------------------------------------

    def instrument(self, metrics: Any) -> None:
        metrics.register("edge", self.stats)
        self.retry_policy.register(metrics, "edge_retry")

    def add_probes(self, sampler: Any) -> None:
        sampler.add_probe(
            "lan_bytes",
            lambda: float(sum(link.log.total_bytes for link in self.lan_links())),
        )
        sampler.add_probe(
            "lan_active_flows",
            lambda: float(sum(link.active_flows for link in self.lan_links())),
        )

    def services(self) -> List[Service]:
        return [(site.start_gossip, site.stop_gossip) for site in self.sites]

    def wave_counters(self) -> Dict[str, float]:
        lan_links = self.lan_links()
        return {
            **self.stats.metrics(),
            "lan_bytes": sum(link.log.total_bytes for link in lan_links),
            "lan_busy_s": sum(link.busy_seconds for link in lan_links),
        }

    def stores(self) -> List[Tuple[str, Any]]:
        stores: List[Tuple[str, Any]] = []
        for site in self.sites:
            stores.append((f"site:{site.name}", site))
            stores += [(f"peer:{peer.name}", peer.pool) for peer in site.peers]
        return stores

    def __repr__(self) -> str:
        return (
            f"EdgeFabric(sites={len(self.sites)}, peers={len(self.peers)}, "
            f"stats={self.stats.metrics()})"
        )


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, at an offset from the wave start."""

    at_s: float
    kind: str  # "leave" | "join"
    peer: str


class ChurnSchedule:
    """A deterministic join/leave schedule drawn from a seeded stream."""

    def __init__(self, events: Sequence[ChurnEvent]) -> None:
        self.events: Tuple[ChurnEvent, ...] = tuple(
            sorted(events, key=lambda event: (event.at_s, event.peer))
        )

    @classmethod
    def generate(
        cls,
        peer_names: Sequence[str],
        *,
        seed: str = "edge",
        rate_per_s: float = 1.0,
        horizon_s: float = 10.0,
    ) -> "ChurnSchedule":
        """Poisson-spaced churn: leaves and rejoins over ``horizon_s``.

        At least one peer stays up at all times, so churn can degrade the
        peer tier but never empty it.
        """
        if rate_per_s <= 0 or not peer_names:
            return cls(())
        rng = rng_for("edge-churn", seed)
        online = list(peer_names)
        offline: List[str] = []
        events: List[ChurnEvent] = []
        now = 0.0
        while True:
            now += rng.expovariate(rate_per_s)
            if now >= horizon_s:
                break
            rejoin = offline and (
                len(online) <= 1 or rng.random() < 0.5
            )
            if rejoin:
                peer = offline.pop(rng.randrange(len(offline)))
                online.append(peer)
                events.append(ChurnEvent(now, "join", peer))
            elif len(online) > 1:
                peer = online.pop(rng.randrange(len(online)))
                offline.append(peer)
                events.append(ChurnEvent(now, "leave", peer))
        return cls(events)


class ChurnDriver:
    """Replays a :class:`ChurnSchedule` as a scheduler process.

    A *leave* flips the peer offline but leaves its tracker entries in
    place — they are exactly the stale entries the fetch chain must
    survive until the next gossip round prunes them.  A *join* brings the
    peer back; its holdings become servable again at the next round.
    """

    def __init__(self, fabric: EdgeFabric, schedule: ChurnSchedule) -> None:
        self.fabric = fabric
        self.schedule = schedule
        self._stop = True
        self.process: Optional[Process] = None

    def start(self, scheduler: Any) -> Optional[Process]:
        if not self.schedule.events:
            return None
        self._stop = False
        self.process = scheduler.spawn(self._run, name="edge-churn")
        return self.process

    def stop(self) -> None:
        self._stop = True

    def _run(self) -> Iterator[float]:
        # Generator process (see ``EdgeSite._gossip_loop``): yields
        # replace thread-handoff sleeps, schedule unchanged.
        clock = self.fabric.clock
        stats = self.fabric.stats
        started = clock.now
        for event in self.schedule.events:
            if self._stop:
                return
            delay = started + event.at_s - clock.now
            if delay > 0:
                yield delay
                clock.note("edge-churn-wait")
            if self._stop:
                return
            peer = self.fabric.peer(event.peer)
            if event.kind == "leave":
                if peer.online:
                    peer.online = False
                    stats.leaves += 1
            else:
                if not peer.online:
                    peer.online = True
                    stats.joins += 1
