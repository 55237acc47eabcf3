"""Simulated networking.

The paper's evaluation sweeps link bandwidth (904 / 100 / 20 / 5 Mbps,
§V-E) and attributes Slacker's collapse at low bandwidth to per-object
request overhead (many blocks vs few files, §V-E2).  The simulator models
exactly those effects: each transfer pays a round-trip plus payload bytes
divided by bandwidth, on the shared virtual clock.

Beyond the paper, :mod:`repro.net.faults` injects deterministic wire
faults (drops, corruption, latency spikes, outages, brownouts),
:mod:`repro.net.resilience` supplies the retry/backoff machinery the
transport applies against them, and :mod:`repro.net.ha` adds the
replicated serving tier: replica sets with failover, hedged fetches,
circuit breakers, and load shedding.  :mod:`repro.net.edge` stacks the
multi-tier edge topology on top: per-site peer serving with a gossip-fed
tracker, churn/crash/byzantine adversity, and registry fallback.
:mod:`repro.net.faas` builds the serverless three-tier chain: a
capacity-bounded shared cache tier with single-flight coalescing, typed
load shedding, per-tier breakers, and an invocation-driven platform.
"""

from repro.net.edge import (
    ChurnDriver,
    ChurnEvent,
    ChurnSchedule,
    EdgeFabric,
    EdgePeer,
    EdgeSite,
    EdgeStats,
    SiteTracker,
)
from repro.net.faas import (
    FAAS_TIER_ENDPOINT,
    FaasFabric,
    FaasPlatform,
    FaasRunReport,
    FaasStats,
    InvocationResult,
    SharedCacheTier,
)
from repro.net.faults import (
    BrownoutWindow,
    FaultPlan,
    FaultyLink,
    OutageWindow,
    byzantine_plan,
    lossy_plan,
)
from repro.net.ha import (
    BreakerState,
    CircuitBreaker,
    HAFetchPolicy,
    HATransport,
    HealthMonitor,
    HedgeEstimator,
    Replica,
    ReplicaSet,
    ScrubReport,
)
from repro.net.link import Link, TransferLog
from repro.net.resilience import AdmissionGate, FabricTransport, RetryPolicy
from repro.net.transport import RpcEndpoint, RpcTransport

__all__ = [
    "AdmissionGate",
    "BreakerState",
    "BrownoutWindow",
    "ChurnDriver",
    "ChurnEvent",
    "ChurnSchedule",
    "CircuitBreaker",
    "EdgeFabric",
    "EdgePeer",
    "EdgeSite",
    "EdgeStats",
    "FAAS_TIER_ENDPOINT",
    "FabricTransport",
    "FaasFabric",
    "FaasPlatform",
    "FaasRunReport",
    "FaasStats",
    "FaultPlan",
    "FaultyLink",
    "InvocationResult",
    "SharedCacheTier",
    "HAFetchPolicy",
    "HATransport",
    "HealthMonitor",
    "HedgeEstimator",
    "Link",
    "OutageWindow",
    "Replica",
    "ReplicaSet",
    "RetryPolicy",
    "RpcEndpoint",
    "RpcTransport",
    "ScrubReport",
    "SiteTracker",
    "TransferLog",
    "byzantine_plan",
    "lossy_plan",
]
