"""Metric names, units and bounds — the single table ``BENCHMARK.json``
is checked against — plus the order statistics the reports use.

Two clocks, named in every metric: *host* metrics (``setup_s``,
``wall_s``, ``peak_rss_mb``, every ``*.busy_s``) say what the Python
process costs; ``virt*`` metrics say what the modelled Gear system does.
A host-only change must leave every ``virt*`` value bit-identical at a
given seed (``compare.py`` enforces that); the bounds below are what the
driver gates on across seeds.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected; the
#: driver also requires the spread of ten runs at ten seeds (quartile
#: range over median) to stay inside it, and asks for a third of it.
#: Each bound is three times the widest spread measured on any workload
#: (README.md, "Where the bounds come from"), rounded up, or the
#: contract's maximum of 0.25 where that is smaller:
#:
#: * host times spread by 3-8% run to run on the 2-core build box even
#:   relative to the calibration loop (``run.py``), 8-17% raw on a busy
#:   hour;
#: * resident memory spreads by 2% at most;
#: * virtual metrics repeat exactly at a fixed seed and spread only
#:   because the seed redraws the schedule and the fault streams:
#:   makespan by 3%, the median op by 1.2%, and the p99 op by 9% on
#:   ``chunkreads``, where it is the unluckiest of 96 readers.
#:
#: ``compare.py`` (``run.py --baseline``) is the exact gate on virtual
#: metrics between two commits at one seed.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", LOWER, 0.25),
    ("wall_s", "s", LOWER, 0.25),
    ("peak_rss_mb", "MB", LOWER, 0.10),
    ("virt_makespan_s", "s", LOWER, 0.10),
    ("virt_op_p50_s", "s", LOWER, 0.05),
    ("virt_op_p99_s", "s", LOWER, 0.25),
)

#: End-to-end metrics the ledger also reports and ``compare.py`` gates
#: exactly, but that are zero on some workload (no registry in
#: ``microflows``, no network in ``convert``, no failing op anywhere), so
#: the driver's relative bounds cannot hold them.  They reappear below as
#: ``virt.net_bytes`` / ``virt.store_bytes`` and as ``failed``/``attempted``.
EXACT_ONLY: Tuple[Tuple[str, str, str], ...] = (
    ("virt_net_bytes", "B", LOWER),
    ("virt_store_bytes", "B", LOWER),
    ("ops_failed_share", "share", LOWER),
)

#: Layers with a traced boundary: each reports ``busy_s`` and ``calls``.
TRACED_LAYERS: Tuple[str, ...] = (
    "common.clock", "net.link", "net.transport", "net.topology", "net.ha",
    "net.edge", "net.faas", "gear.driver", "gear.index", "gear.viewer",
    "gear.pool", "gear.journal", "gear.bigfile", "gear.converter",
    "gear.registry", "docker.registry", "docker.daemon", "vfs.tree",
    "vfs.tar", "vfs.overlay", "blob", "common.hashing", "storage.disk",
    "workloads.corpus", "bench.deploy", "host.gc",
)

#: Extra per-layer metrics: counts the program already keeps, and ratios
#: derived from them.  (name, unit, better)
EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    ("common.clock.events", "count", LOWER),
    ("common.clock.events_per_s", "1/s", HIGHER),
    ("common.clock.unpinned_wall_ratio", "ratio", LOWER),
    ("net.link.transfers", "count", LOWER),
    ("net.link.bytes", "B", LOWER),
    ("net.link.virt_busy_share", "share", LOWER),
    ("net.transport.retries", "count", LOWER),
    ("net.transport.giveups", "count", LOWER),
    ("net.topology.clients", "count", HIGHER),
    ("net.ha.failovers", "count", LOWER),
    ("net.ha.hedges", "count", LOWER),
    ("net.ha.wasted_hedge_bytes", "B", LOWER),
    ("net.ha.sheds", "count", LOWER),
    ("net.ha.virt_ready_p99_s", "s", LOWER),
    ("net.edge.peer_hits", "count", HIGHER),
    ("net.edge.site_hits", "count", HIGHER),
    ("net.edge.registry_fetches", "count", LOWER),
    ("net.edge.blacklisted", "count", LOWER),
    ("net.edge.virt_ready_p99_s", "s", LOWER),
    ("net.faas.cold_starts", "count", LOWER),
    ("net.faas.warm_starts", "count", HIGHER),
    ("net.faas.tier_hits", "count", HIGHER),
    ("net.faas.coalesced", "count", HIGHER),
    ("net.faas.duplicate_upstream_fetches", "count", LOWER),
    ("net.faas.virt_cold_p99_s", "s", LOWER),
    ("net.faults.drops", "count", LOWER),
    ("net.faults.corruptions", "count", LOWER),
    ("net.resilience.backoff_virt_s", "s", LOWER),
    ("gear.driver.deploys", "count", HIGHER),
    ("gear.driver.degraded", "count", LOWER),
    ("gear.viewer.fetches", "count", LOWER),
    ("gear.viewer.cache_hits", "count", HIGHER),
    ("gear.viewer.hit_ratio", "ratio", HIGHER),
    ("gear.pool.hits", "count", HIGHER),
    ("gear.pool.misses", "count", LOWER),
    ("gear.pool.evictions", "count", LOWER),
    ("gear.journal.records", "count", LOWER),
    ("gear.bigfile.chunks_fetched", "count", LOWER),
    ("gear.bigfile.refetches", "count", LOWER),
    ("gear.bigfile.coalesced_waits", "count", HIGHER),
    ("gear.bigfile.duplicate_chunk_fetches", "count", LOWER),
    ("gear.bigfile.sequential_fallbacks", "count", LOWER),
    ("gear.converter.files_seen", "count", LOWER),
    ("gear.converter.files_uploaded", "count", LOWER),
    ("gear.converter.dedup_ratio", "ratio", LOWER),
    ("gear.registry.objects", "count", LOWER),
    ("gear.registry.stored_bytes", "B", LOWER),
    ("gear.registry.bytes_served", "B", LOWER),
    ("docker.registry.layers", "count", LOWER),
    ("docker.registry.stored_bytes", "B", LOWER),
    ("docker.daemon.pulls", "count", HIGHER),
    ("docker.daemon.layers_extracted", "count", LOWER),
    ("vfs.overlay.copy_ups", "count", LOWER),
    ("storage.disk.virt_s", "s", LOWER),
    ("workloads.corpus.images", "count", HIGHER),
    ("virt.phase.pull_index_s", "s", LOWER),
    ("virt.phase.fetch_s", "s", LOWER),
    ("virt.phase.link_s", "s", LOWER),
    ("virt.phase.start_s", "s", LOWER),
    ("virt.phase.coverage", "share", HIGHER),
    ("virt.net_bytes", "B", LOWER),
    ("virt.store_bytes", "B", LOWER),
    ("host.calib_s", "s", LOWER),
    ("host.cpu_s", "s", LOWER),
    ("host.untraced_share", "share", LOWER),
    ("trace.overhead_ratio", "ratio", LOWER),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    entry
    for layer in TRACED_LAYERS
    for entry in ((f"{layer}.busy_s", "s", LOWER), (f"{layer}.calls", "count", LOWER))
) + EXTRAS

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _ in EXACT_ONLY},
    **{name: unit for name, unit, _ in PER_LAYER},
}


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``, as the driver
    computes them), extremes and sample count."""
    ordered: List[float] = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }
