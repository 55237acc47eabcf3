"""The invariant catalogue: what a finished world must hold, written once.

A file's name is its fingerprint, so nothing poisoned means every stored
copy re-hashes to its name; and a finished run leaves no fetch in flight
and no partial file behind.  Each check reads a :class:`World` and
returns its violations as ``"<where>:<identity>"`` strings (none: it
holds).  Every ``repro.cli`` sweep runs :func:`audit` on each cell's
world after the cell's run.  A store is a node pool or a tier cache (an
edge site, the FaaS tier): a ``cache`` of identity → what holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.gear.gearfile import verified
from repro.gear.pool import SharedFilePool
from repro.net.faas import SharedCacheTier
from repro.net.resilience import Tier


@dataclass(frozen=True)
class World:
    """The pools and tiers a run leaves behind: node pools by node name,
    and the tiers whose :meth:`~repro.net.resilience.Tier.stores` list
    the rest."""

    pools: Mapping[str, SharedFilePool]
    tiers: Sequence[Tier] = ()

    @classmethod
    def of(cls, cluster: Any) -> "World":
        """What a cluster's waves leave: its nodes' pools, its root's tiers."""
        pools = {node.name: node.testbed.gear_driver.pool for node in cluster.nodes}
        return cls(pools, cluster.registry_testbed.tiers)

    def stores(self) -> List[Tuple[str, Any]]:
        """``(where, store)``, each store once under the first name it is
        listed by: an edge peer's pool is its node's pool."""
        listed = [(f"node:{name}", pool) for name, pool in self.pools.items()]
        listed += [pair for tier in self.tiers for pair in tier.stores()]
        unique: Dict[int, Tuple[str, Any]] = {}
        for where, store in listed:
            unique.setdefault(id(store), (where, store))
        return list(unique.values())


def poisoned_commits(world: World) -> List[str]:
    """Committed pool inodes and tier cache entries that fail their name."""
    found = []
    for where, store in world.stores():
        if isinstance(store, SharedFilePool):
            held = [(identity, store.peek(identity)) for identity in store.identities()]
        else:
            held = sorted(store.cache.items())
        found += [f"{where}:{identity}" for identity, holder in held
                  if not verified(identity, holder)]
    return found


def flights_left(world: World) -> List[str]:
    """Keys still claimed in a pool's, a partial file's (``<where>:
    <identity>:<chunk>``) or the FaaS tier's single-flight table."""
    tables = []
    for where, store in world.stores():
        if isinstance(store, (SharedFilePool, SharedCacheTier)):
            tables.append((where, store.inflight))
        if isinstance(store, SharedFilePool):
            tables += [(f"{where}:{identity}", partial.inflight)
                       for identity, partial in store.partials.items()]
    return [f"{where}:{key}" for where, table in tables for key in table]


def partials_leaked(world: World) -> List[str]:
    """Partial files a pool still holds: a finished read lands its file."""
    return [f"{where}:{identity}" for where, store in world.stores()
            if isinstance(store, SharedFilePool) for identity in store.partials]


#: The catalogue, by the name a gate prints a violation under.
CATALOGUE = {check.__name__: check for check in (poisoned_commits, flights_left, partials_leaked)}


def audit(world: World) -> Dict[str, List[str]]:
    """The checks ``world`` breaks, each with its violations."""
    return {name: found for name, check in CATALOGUE.items() if (found := check(world))}
