"""The process model's cost, counted in worker parks rather than seconds.

DESIGN.md §5 promises that a call process parks its worker thread once
per blocking *stretch* (``SimScheduler.drive``), not once per blocking
call, and that doing so adds, drops and reorders no scheduler event.  A
clock cannot hold the code to that on a noisy box; ``SimScheduler.handoffs``
and ``SimScheduler.escapes`` can (the ``tests/test_vfs_cost.py`` rule).

The event and park counts quoted as "before" were measured on the commit
before ``drive`` existed, same corpus, same clusters, every park counted
in ``SimScheduler._suspend``.
"""

from __future__ import annotations

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import publish_images
from repro.common.clock import SimClock, SimScheduler
from repro.net.link import Link
from repro.net.topology import Cluster, HACluster

CLIENTS = 16


def _wave(cluster, image):
    """Deploy ``image`` on every node at once; the wave's scheduler (for
    its counters) and the files each client faulted in."""
    publish_images(cluster.registry_testbed, [image], convert=True)
    schedulers, faults = set(), []

    def action(node):
        schedulers.add(cluster.clock.scheduler)
        result = deploy_with_gear(node.testbed, image)
        faults.append(result.files_fetched + result.cache_hits)
        return result

    cluster.deploy_wave(action)
    (scheduler,) = schedulers
    return scheduler, sum(faults)


@pytest.fixture(scope="module")
def nginx(small_corpus):
    return small_corpus.by_series["nginx"][0]


def test_plain_wave_parks_once_per_stretch_and_never_escapes(nginx):
    scheduler, faults = _wave(Cluster(CLIENTS, bandwidth_mbps=100.0), nginx)
    assert faults == 44 * CLIENTS
    # Before: 141 parks a client (three per fault — request leg, response
    # leg, the task-read advance — plus the index pull), 2256 in all.
    assert scheduler.handoffs <= 8 * CLIENTS
    assert scheduler.escapes == 0
    assert scheduler.events_processed == 2364  # the parent's, exactly


def test_ha_wave_escapes_once_per_fault_and_parks_no_more(nginx):
    scheduler, faults = _wave(HACluster(CLIENTS, bandwidth_mbps=100.0), nginx)
    # The replica tier's route still blocks the old way: every fault
    # reaches it through the counted seam, and nothing else does.
    assert scheduler.escapes == faults == 44 * CLIENTS
    # Before: 3083.  Two parks per fault now (the replica RPC, the
    # task-read advance) where there were three.
    assert scheduler.handoffs <= 3083 - faults // 2
    assert scheduler.events_processed == 4007  # the parent's, exactly


def test_generator_clients_never_park():
    """The ``microflows`` shape: think, transfer, repeat — no thread."""
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=200.0)

    def client(index):
        for step in range(8):
            yield 0.01 * ((index + step) % 5)
            yield from link.transfer_gen(50_000 + 1_000 * index)

    with SimScheduler(clock) as scheduler:
        for index in range(64):
            scheduler.spawn(client, index, name=f"flow-{index}")
        scheduler.run()
        assert scheduler.handoffs == 0 and scheduler.escapes == 0
    assert link.log.total_requests == 64 * 8
