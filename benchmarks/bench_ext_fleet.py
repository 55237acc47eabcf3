"""Extension: registry load when a fleet of nodes deploys the same image.

§I motivates Gear with registry pressure ("the surge in the number of
images puts high pressure on the registry in terms of bandwidth").  This
extension quantifies it twice over:

* the *rolling* experiment (seed): N nodes deploy in sequence; registry
  egress and uplink busy-time are what an operator provisions for, and
  Gear's per-deployment byte reduction translates 1:1 into fleet
  capacity;
* the *contention* sweep: N clients pull **simultaneously**, their
  transfers fair-sharing the registry uplink under the discrete-event
  scheduler.  Per-client deployment latency degrades with N much faster
  for Docker (whole images cross the saturated wire) than for Gear
  (only necessary files travel; with a warm cache almost nothing does).
"""

from repro.bench.deploy import deploy_with_docker, deploy_with_gear
from repro.bench.environment import publish_images
from repro.bench.reporting import format_table
from repro.net.topology import Cluster

from conftest import QUICK, run_once

NODES = 4 if QUICK else 8

#: Concurrent-client counts for the contention sweep (1 → 1024).  The
#: top count exercises the incremental fair-share link model and the
#: generator/handoff scheduler at fleet scale; the perf ledger's ``wave``
#: workload (``benchmarks/ledger``) keeps the wall cost of that bounded.
CONTENTION_CLIENTS = (1, 4, 16) if QUICK else (1, 4, 16, 64, 1024)

#: The sweep runs where pulling matters; at the testbed's 904 Mbps the
#: run phase dominates and contention barely registers (§V-E1).
CONTENTION_BANDWIDTH = 100


def test_ext_fleet_registry_load(benchmark, corpus):
    generated = corpus.by_series["nginx"][0]

    def sweep():
        loads = {}
        for system, deploy in (
            ("docker", lambda node: deploy_with_docker(node.testbed, generated)),
            ("gear", lambda node: deploy_with_gear(node.testbed, generated)),
        ):
            cluster = Cluster(NODES, bandwidth_mbps=904)
            publish_images(
                cluster.registry_testbed, [generated], convert=True
            )
            publish_bytes = cluster.registry_egress_bytes
            cluster.each_node(lambda node: deploy(node) and None)
            loads[system] = (
                cluster.registry_egress_bytes - publish_bytes,
                cluster.registry_busy_seconds(),
            )
        return loads

    loads = run_once(benchmark, sweep)

    print(f"\nExtension — registry load for a {NODES}-node rollout")
    print(
        format_table(
            ["System", "Registry egress (MB)", "Uplink busy (s)"],
            [
                (system, f"{egress / 1e6:.1f}", f"{busy:.2f}")
                for system, (egress, busy) in loads.items()
            ],
        )
    )
    docker_egress, _ = loads["docker"]
    gear_egress, _ = loads["gear"]
    # Fig. 8's per-deployment reduction (~70%) shows up fleet-wide: every
    # node downloads only its necessary files.
    assert gear_egress < docker_egress * 0.5
    # Docker's egress scales linearly with nodes (no cross-node sharing
    # in either system at the registry).
    per_node = docker_egress / NODES
    assert per_node > generated.image.compressed_size * 0.9


def test_ext_fleet_contention_sweep(benchmark, corpus):
    """1 → 1024 clients pulling the same image at once on a shared uplink.

    Three systems per client count: Docker, Gear with the local cache
    cleared ("gear_nc"), and Gear with a cache warmed by a previous
    version of the image ("gear_cache", the cross-version sharing of
    Fig. 9).  Reported per system: p50/p95/p99 per-client latency,
    makespan, and registry-uplink utilization.
    """
    target = corpus.by_series["nginx"][0]
    prev = corpus.by_series["nginx"][1]

    def measure(system: str, clients: int):
        cluster = Cluster(clients, bandwidth_mbps=CONTENTION_BANDWIDTH)
        publish_images(cluster.registry_testbed, [target, prev], convert=True)
        if system == "gear_cache":
            # Warm every node's shared pool with the *previous* version;
            # the measured wave then shares files across versions.
            cluster.deploy_wave(
                lambda node: deploy_with_gear(node.testbed, prev) and None
            )
        actions = {
            "docker": lambda node: deploy_with_docker(node.testbed, target),
            "gear_nc": lambda node: deploy_with_gear(
                node.testbed, target, clear_cache=True
            ),
            "gear_cache": lambda node: deploy_with_gear(node.testbed, target),
        }
        return cluster.deploy_wave(actions[system])

    def sweep():
        return {
            (system, clients): measure(system, clients)
            for system in ("docker", "gear_nc", "gear_cache")
            for clients in CONTENTION_CLIENTS
        }

    grid = run_once(benchmark, sweep)

    print(
        f"\nExtension — shared-uplink contention @ "
        f"{CONTENTION_BANDWIDTH:g} Mbps (per-client latency, s)"
    )
    print(
        format_table(
            ["System", "Clients", "p50", "p95", "p99", "Makespan", "Util"],
            [
                (
                    system,
                    str(clients),
                    f"{wave.p50_s:.2f}",
                    f"{wave.p95_s:.2f}",
                    f"{wave.p99_s:.2f}",
                    f"{wave.makespan_s:.2f}",
                    f"{wave.utilization:.2f}",
                )
                for (system, clients), wave in grid.items()
            ],
        )
    )

    lo, hi = CONTENTION_CLIENTS[0], CONTENTION_CLIENTS[-1]
    ratio = {
        system: grid[(system, hi)].p95_s / grid[(system, lo)].p95_s
        for system in ("docker", "gear_nc", "gear_cache")
    }
    # Docker ships whole images through the saturated wire, so its
    # per-client latency degrades markedly faster than Gear's (§I).
    assert ratio["docker"] > ratio["gear_nc"] * 1.3
    # A warm cross-version cache pulls almost nothing: near-flat scaling.
    assert ratio["gear_cache"] < ratio["gear_nc"] * 0.6
    for system in ("docker", "gear_nc", "gear_cache"):
        p95s = [grid[(system, n)].p95_s for n in CONTENTION_CLIENTS]
        # Latency never improves as contention grows.
        assert all(b >= a for a, b in zip(p95s, p95s[1:]))
        for clients in CONTENTION_CLIENTS:
            assert 0.0 <= grid[(system, clients)].utilization <= 1.0 + 1e-9
    # More concurrent pullers keep the uplink busier.
    assert (
        grid[("docker", hi)].utilization > grid[("docker", lo)].utilization
    )
    # Determinism: an identical cluster replays to identical latencies.
    again = measure("docker", CONTENTION_CLIENTS[1])
    assert again.latencies_s == grid[("docker", CONTENTION_CLIENTS[1])].latencies_s
