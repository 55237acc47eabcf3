"""The process model's cost, counted in worker parks rather than seconds.

DESIGN.md §5 promises that a call process parks its worker thread once
per blocking *stretch* (``SimScheduler.drive``), not once per blocking
call, that doing so adds, drops and reorders no scheduler event, and
that only a whole deploy / invocation / reader still owns a thread:
everything a tier or the chunk pipeline spawns is a generator process.
A clock cannot hold the code to that on a noisy box;
``SimScheduler.handoffs``, ``SimScheduler.escapes`` and a count of the
thread processes spawned can (the ``tests/test_vfs_cost.py`` rule).

The event counts asserted exactly were measured on the commit before
each conversion, same corpus, same clusters; the park counts quoted as
"before" likewise, every park counted in ``SimScheduler._suspend``.
"""

from __future__ import annotations

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_faas_testbed, publish_images
from repro.blob import DEFAULT_CHUNK_SIZE
from repro.common.clock import SimClock, SimScheduler
from repro.net.faas import FaasPlatform
from repro.net.link import Link
from repro.net.topology import Cluster, EdgeCluster, HACluster
from repro.workloads.schedule import ScheduledInvocation
from tests.test_gear_chunks import BIG_PATH, SMALL_PATH, build_env

CLIENTS = 16


class Spawned:
    """Every process spawned while a test ran, and the schedulers that
    spawned them.  ``SimScheduler._finish`` clears ``Process._resume``,
    so whether a process owns a thread is read at spawn time."""

    def __init__(self) -> None:
        self.schedulers = []
        self.threads = []
        self.generators = []

    def total(self, counter: str) -> int:
        return sum(getattr(scheduler, counter) for scheduler in self.schedulers)


@pytest.fixture
def spawned(monkeypatch):
    seen = Spawned()
    spawn = SimScheduler.spawn

    def recording(self, target, *args, **kwargs):
        process = spawn(self, target, *args, **kwargs)
        if self not in seen.schedulers:
            seen.schedulers.append(self)
        kind = seen.generators if process._resume is None else seen.threads
        kind.append(process.name)
        return process

    monkeypatch.setattr(SimScheduler, "spawn", recording)
    return seen


def _wave(cluster, image, **wave_kwargs):
    """Deploy ``image`` on every node; the files each client faulted in
    and the wave report."""
    publish_images(cluster.registry_testbed, [image], convert=True)
    faults = []

    def action(node):
        result = deploy_with_gear(node.testbed, image)
        faults.append(result.files_fetched + result.cache_hits)
        return result

    report = cluster.deploy_wave(action, **wave_kwargs)
    return sum(faults), report


@pytest.fixture(scope="module")
def nginx(small_corpus):
    return small_corpus.by_series["nginx"][0]


def test_plain_wave_parks_once_per_stretch_and_never_escapes(nginx, spawned):
    faults, _ = _wave(Cluster(CLIENTS, bandwidth_mbps=100.0), nginx)
    assert faults == 44 * CLIENTS
    # Before: 141 parks a client (three per fault — request leg, response
    # leg, the task-read advance — plus the index pull), 2256 in all.
    assert spawned.total("handoffs") <= 8 * CLIENTS
    assert spawned.total("escapes") == 0
    assert spawned.total("events_processed") == 2364  # the parent's, exactly
    assert len(spawned.threads) == CLIENTS


def test_ha_wave_parks_like_a_plain_wave_and_never_escapes(nginx, spawned):
    faults, _ = _wave(HACluster(CLIENTS, bandwidth_mbps=100.0), nginx)
    assert faults == 44 * CLIENTS
    # Before the replica tier's route was a generator: one escape per
    # fault (704), 2260 parks and 737 threads (720 hedge attempts and
    # the health monitor); before ``drive``: 3083 parks.
    assert spawned.total("escapes") == 0
    assert spawned.total("handoffs") <= 8 * CLIENTS
    assert spawned.total("events_processed") == 4007  # the parent's, exactly
    # Hedge attempts and the health monitor own no thread.
    assert len(spawned.threads) == CLIENTS
    assert "ha-health-monitor" in spawned.generators


def test_edge_wave_with_peers_owns_one_thread_a_client(nginx, spawned):
    # Four at a time: later batches find the earlier ones' files at
    # their site peers, so the peer and site sources all serve.
    faults, report = _wave(
        EdgeCluster(CLIENTS, bandwidth_mbps=100.0), nginx, concurrency=4
    )
    assert faults == 44 * CLIENTS
    assert report.peer_hits > 0 and report.registry_fetches > 0
    # Before: one escape per fault (704) and 2016 parks.
    assert spawned.total("escapes") == 0
    assert spawned.total("handoffs") <= 8 * CLIENTS
    assert spawned.total("events_processed") == EDGE_EVENTS  # the parent's
    assert len(spawned.threads) == CLIENTS


def test_faas_stream_through_the_tier_owns_one_thread_an_invocation(
    small_corpus, spawned
):
    images = small_corpus.by_series["nginx"][:2]
    bed = make_faas_testbed()
    publish_images(bed, images, convert=True)
    platform = FaasPlatform(bed, bed.faas, nodes=2, seed="cost")
    stream = [
        ScheduledInvocation(
            position=index,
            at_s=0.05 * index,
            function=f"fn-{index % 4:04d}",
            image=images[index % 2],
            is_repeat=index >= 4,
        )
        for index in range(8)
    ]
    run = platform.run(stream)
    assert run.failures == 0
    assert run.fabric["tier_coalesced"] > 0 and run.fabric["tier_hits"] > 0
    # Before: 124 escapes (one per fault that reached the fabric).
    assert spawned.total("escapes") == 0
    assert spawned.total("events_processed") == FAAS_EVENTS  # the parent's
    assert len(spawned.threads) == len(stream)


def test_chunked_readers_park_once_a_read_and_workers_own_no_thread(spawned):
    viewer, env = build_env()
    readers = 8
    reads = []

    def reader(index):
        # Overlapping four-chunk windows: claims, coalesced waits and
        # parallel workers all happen.
        reads.append(viewer.read_range(
            BIG_PATH, index * 2 * DEFAULT_CHUNK_SIZE, 4 * DEFAULT_CHUNK_SIZE
        ))
        reads.append(viewer.read_range(SMALL_PATH, 0, 4))

    with SimScheduler(env["clock"]) as scheduler:
        for index in range(readers):
            scheduler.spawn(reader, index, name=f"reader-{index}")
        scheduler.run()
    stats = viewer.chunk_stats
    assert len(reads) == 2 * readers
    assert stats.parallel_fetches > 0 and stats.coalesced_waits > 0
    assert stats.duplicate_chunk_fetches == 0
    assert spawned.total("escapes") == 0
    # Before: 48 parks and 20 threads (12 of them chunk workers).
    assert spawned.total("handoffs") <= 2 * readers
    assert spawned.total("events_processed") == CHUNK_EVENTS  # the parent's
    assert len(spawned.threads) == readers
    assert len(spawned.generators) == stats.parallel_fetches


#: ``events_processed`` of the three scenarios above at the parent commit.
EDGE_EVENTS = 2693
FAAS_EVENTS = 1448
CHUNK_EVENTS = 114


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
