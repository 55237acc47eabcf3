"""The one download chain behind the HA, edge and FaaS fabrics.

The three fabrics share a transport decorator, a whole-round backoff
loop, a node mint and a wave runner (:mod:`repro.net.resilience`,
:meth:`repro.bench.environment.Testbed.fresh_client`,
:meth:`repro.net.topology.Cluster.deploy_wave`).  These tests drive the
shared parts through every fabric: backoff rounds outside HA, corrupt
reports travelling down a stacked chain, a chain stacked tier by tier
(``attach_faas`` over ``attach_edge`` over an HA registry side), a
client with no thread faulting through each of them, and the wave
runner's error rule.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import (
    attach_edge,
    attach_faas,
    make_faas_testbed,
    make_ha_testbed,
    make_testbed,
    publish_images,
)
from repro.common import clock as clock_module
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import UnavailableError
from repro.net.edge import EdgeStats
from repro.net.faas import FAAS_TIER_ENDPOINT
from repro.net.faults import FaultPlan, FaultyLink, OutageWindow, byzantine_plan
from repro.net.resilience import GEAR_ENDPOINT, RetryPolicy, retry_rounds
from repro.net.topology import Cluster, EdgeCluster, HACluster
from repro.workloads.tasks import task_for_category

BACKOFF_S = 0.5


def _fixed_backoff(max_attempts: int) -> RetryPolicy:
    """Every backoff is exactly ``BACKOFF_S`` (base == max pins the jitter)."""
    return RetryPolicy(
        max_attempts=max_attempts,
        base_backoff_s=BACKOFF_S,
        max_backoff_s=BACKOFF_S,
        seed="chain",
    )


def _outage(duration_s: float, targets=None) -> FaultPlan:
    """Everything unreachable from arming for ``duration_s``; a rejected
    attempt costs no virtual time, so only backoffs move the clock."""
    return FaultPlan(
        seed="chain-outage",
        outage_stall_s=0.0,
        outages=(OutageWindow(start_s=0.0, duration_s=duration_s),),
        targets=targets,
    )


def _ha(plan, policy):
    """Both replicas behind the outage; returns (root, node, stats)."""
    bed = make_ha_testbed(
        replicas=2,
        replica_fault_plans=[plan, plan] if plan is not None else None,
    )
    bed.ha.policy.retry_policy = policy
    return bed, bed, bed.ha.policy.stats


def _edge(plan, policy):
    """No peer holds anything, the site cache is empty, the WAN is out."""
    bed = attach_edge(
        make_testbed(fault_plan=plan, retry_policy=RetryPolicy(max_attempts=1))
    )
    for site in bed.edge.sites:
        site.retry_policy = policy
    return bed, bed.edge.client(), bed.edge.stats


def _faas(plan, policy):
    """The shared tier's link and the WAN behind it are both out."""
    tier_plan = None
    if plan is not None:
        tier_plan = _outage(plan.outages[0].duration_s, (FAAS_TIER_ENDPOINT,))
    bed = make_faas_testbed(
        fault_plan=plan,
        tier_fault_plan=tier_plan,
        retry_policy=RetryPolicy(max_attempts=1),
    )
    bed.faas.retry_policy = policy
    return bed, bed.faas.client(), bed.faas.stats


FABRICS = pytest.mark.parametrize("build", [_ha, _edge, _faas])


def _published(build, plan, policy, generated):
    root, node, stats = build(plan, policy)
    root.docker_registry.push_image(generated.image)
    index, _ = root.converter.convert(generated.reference)
    identity = min(i for i in index.entries.identities if i and not i.startswith("uid-"))
    root.arm_faults()
    return root, node, stats, identity


@FABRICS
class TestWholeRoundBackoff:
    def test_short_outage_costs_exactly_its_backoffs(self, build, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        # Control: the same fetch with nothing down.
        root, node, stats, identity = _published(
            build, None, _fixed_backoff(8), generated
        )
        begun = root.clock.now
        node.transport.call(GEAR_ENDPOINT, "download", identity)
        clean_s = root.clock.now - begun
        assert stats.backoffs == 0

        # Down for 0.7 s: rounds at +0 and +0.5 fail, the one at +1.0 lands.
        policy = _fixed_backoff(8)
        root, node, stats, identity = _published(
            build, _outage(0.7), policy, generated
        )
        begun = root.clock.now
        gear_file = node.transport.call(GEAR_ENDPOINT, "download", identity)
        assert gear_file.blob.fingerprint == identity
        assert stats.backoffs == 2
        assert stats.giveups == 0
        assert policy.spent_s == 2 * BACKOFF_S
        assert root.clock.now - begun == pytest.approx(
            policy.spent_s + clean_s, abs=1e-9
        )

    def test_down_for_good_gives_up_once_with_the_typed_error(
        self, build, small_corpus
    ):
        generated = small_corpus.by_series["nginx"][0]
        policy = _fixed_backoff(4)
        root, node, stats, identity = _published(
            build, _outage(1e9), policy, generated
        )
        with pytest.raises(UnavailableError):
            node.transport.call(GEAR_ENDPOINT, "download", identity)
        assert stats.giveups == 1
        assert stats.backoffs == 2  # rounds 1 and 2 retried, round 3 gave up
        assert policy.spent_s == stats.backoffs * BACKOFF_S


@pytest.mark.parametrize(
    "max_attempts, passes, backoffs", [(1, 1, 0), (2, 1, 0), (4, 3, 2), (6, 5, 4)]
)
def test_max_attempts_counts_one_more_than_the_whole_rounds_made(
    max_attempts, passes, backoffs
):
    """Pinned, not endorsed: ``retry_rounds`` bumps its round counter
    before it asks the policy, so ``max_attempts=N`` buys N-1 passes
    where ``RetryPolicy`` promises an RPC N tries.  Changing it moves
    every give-up instant (ROADMAP item 5(c) holds the decision)."""
    clock = SimClock()
    stats = EdgeStats()
    made = []

    def one_pass():
        made.append(clock.now)
        raise UnavailableError("every source down")
        yield  # a generator, like every real pass

    with pytest.raises(UnavailableError):
        clock.drive(retry_rounds(
            clock, _fixed_backoff(max_attempts), stats, "pin", one_pass
        ))
    assert made == [BACKOFF_S * index for index in range(passes)]
    assert (stats.backoffs, stats.giveups) == (backoffs, 1)


def _swap_in_lying_link(bed) -> None:
    """Replica 0 serves wrong bytes that pass the wire checksum."""
    replica = bed.ha.replica_set.replicas[0]
    liar = FaultyLink(
        bed.clock,
        byzantine_plan("chain-liar"),
        bandwidth_mbps=replica.link.bandwidth_mbps,
    )
    liar.log = replica.link.log
    replica.link = replica.transport.link = liar


def _control_digest(generated) -> str:
    bed = make_testbed()
    publish_images(bed, [generated], convert=True)
    deploy_with_gear(bed, generated)
    return bed.gear_driver.containers()[-1].mount.fs_digest()


class TestCorruptReportsTravelDown:
    def test_faas_over_ha_demotes_the_lying_replica_not_the_tier(
        self, small_corpus
    ):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed(ha_replicas=2, seed="chain")
        _swap_in_lying_link(bed)
        publish_images(bed, [generated], convert=True)
        node = bed.faas.client()
        result = deploy_with_gear(node, generated)
        assert bed.ha.policy.stats.demotions == 1
        assert not bed.faas.blacklisted
        assert bed.faas.stats.demotions == 0
        assert not result.degraded
        digest = node.gear_driver.containers()[-1].mount.fs_digest()
        assert digest == _control_digest(generated)
        assert bed.faas.audit_integrity() == []

    def test_plain_ha_control_demotes_once(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_ha_testbed(replicas=2, seed="chain-ha")
        _swap_in_lying_link(bed)
        publish_images(bed, [generated], convert=True)
        result = deploy_with_gear(bed, generated)
        assert bed.ha.policy.stats.demotions == 1
        assert not result.degraded


class TestChainStackedByHand:
    def _stack(self, generated, *, liar: bool = False):
        """FaaS tier over an edge site over a 2-replica HA registry."""
        root = make_ha_testbed(replicas=2, seed="stack")
        if liar:
            _swap_in_lying_link(root)
        publish_images(root, [generated], convert=True)
        edge = attach_edge(root, seed="stack").edge
        faas = attach_faas(edge.client(), seed="stack").faas
        return root, edge, faas, faas.client()

    def test_deploys_to_the_control_digest(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        root, edge, faas, node = self._stack(generated)
        result = deploy_with_gear(node, generated)
        assert not result.degraded
        digest = node.gear_driver.containers()[-1].mount.fs_digest()
        assert digest == _control_digest(generated)
        # Every link of the chain carried the fetches.
        fetches = faas.stats.fetches
        assert fetches > 0
        assert faas.stats.tier_upstream_fetches == fetches
        assert edge.stats.registry_fetches == fetches
        assert root.ha.policy.stats.fetches >= fetches
        assert faas.audit_integrity() == [] and edge.audit_integrity() == []

    def test_report_crosses_two_tiers_to_the_replica(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        root, edge, faas, node = self._stack(generated, liar=True)
        result = deploy_with_gear(node, generated)
        assert root.ha.policy.stats.demotions == 1
        assert not faas.blacklisted and edge.stats.blacklists == 0
        assert not result.degraded
        digest = node.gear_driver.containers()[-1].mount.fs_digest()
        assert digest == _control_digest(generated)


def _ha_pair(generated):
    root = make_ha_testbed(replicas=2, seed="threadless")
    publish_images(root, [generated], convert=True)
    links = [replica.link for replica in root.ha.replica_set.replicas]
    return root, [root.fresh_client(), root.fresh_client()], links


def _edge_pair(generated):
    """A third node deployed earlier and gossiped: the pair find a peer."""
    root = attach_edge(make_testbed(), seed="threadless")
    publish_images(root, [generated], convert=True)
    deploy_with_gear(root.edge.client(), generated)
    root.edge.gossip()
    nodes = [root.edge.client(), root.edge.client()]
    return root, nodes, [root.link, *root.edge.lan_links()]


def _faas_pair(generated):
    root = make_faas_testbed(seed="threadless")
    publish_images(root, [generated], convert=True)
    nodes = [root.faas.client(), root.faas.client()]
    return root, nodes, [root.link, root.faas.tier.link]


def _stacked_pair(generated):
    root, edge, faas, node = TestChainStackedByHand()._stack(generated)
    links = [replica.link for replica in root.ha.replica_set.replicas]
    return root, [node, faas.client()], [*links, *edge.lan_links(), faas.tier.link]


@pytest.mark.parametrize(
    "build", [_ha_pair, _edge_pair, _faas_pair, _stacked_pair],
    ids=["ha", "edge", "faas", "stacked"],
)
def test_a_client_with_no_thread_faults_through_every_fabric(build, small_corpus):
    """Two nodes run the startup task at once: as call processes
    (``task.run`` on a worker thread each) and as generator processes
    that ``yield from`` the same read path.  Routes, hedge attempts and
    tier fills are generators, so the second form needs no thread at
    all — and lands the same bytes at the same instants."""
    generated = small_corpus.by_series["nginx"][0]
    task = task_for_category(generated.category)

    def started(how):
        root, nodes, links = build(generated)
        mounts = []
        for node in nodes:
            driver = node.gear_driver
            driver.pull_index(generated.gear_reference)
            container = driver.create_container(generated.gear_reference)
            driver.start_container(container)
            mounts.append(container.mount)
        marks = [len(link.log.records) for link in links]
        with SimScheduler(root.clock) as scheduler:
            processes = [
                scheduler.spawn(
                    getattr(task, how), root.clock, mount, generated.trace,
                    name=f"startup-{index}",
                )
                for index, mount in enumerate(mounts)
            ]
            scheduler.run()
            parks, escapes = scheduler.handoffs, scheduler.escapes
        assert all(mount.fault_stats.remote_fetches > 0 for mount in mounts)
        return {
            "results": [process.result for process in processes],
            "finished": [process.finished_at for process in processes],
            "digests": [mount.fs_digest() for mount in mounts],
            "transfers": [
                link.log.records[mark:] for link, mark in zip(links, marks)
            ],
        }, parks, escapes

    by_call, call_parks, _ = started("run")
    by_gen, gen_parks, gen_escapes = started("run_gen")
    assert by_gen == by_call
    assert all(result.ready_s > 0 for result in by_gen["results"])
    assert any(by_gen["transfers"])
    assert call_parks > 0
    assert gen_parks == 0 and gen_escapes == 0


class Boom(RuntimeError):
    pass


def _stuck_workers() -> int:
    """Scheduler worker threads that are not idle in the pool."""
    live = sum(
        thread.name.startswith("sim-worker-") for thread in threading.enumerate()
    )
    return live - len(clock_module._WORKER_POOL._idle)


def _settled_stuck_workers(expected: int) -> int:
    """A finished worker re-parks just after handing control back: give
    it a bounded moment before counting it as stuck."""
    deadline = time.monotonic() + 5.0
    while _stuck_workers() > expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return _stuck_workers()


@pytest.mark.parametrize(
    "make_cluster",
    [
        lambda: Cluster(4),
        lambda: HACluster(4, replicas=2),
        lambda: EdgeCluster(4, churn_rate_per_s=1.0),
    ],
    ids=["plain", "ha", "edge"],
)
def test_wave_action_error_surfaces_after_the_drain(make_cluster):
    cluster = make_cluster()
    clock = cluster.clock
    started, finished = [], []

    def action(node):
        started.append(node.name)
        clock.advance(1.0, "work")
        if node.name == "node-000":
            raise Boom(node.name)
        clock.advance(1.0, "more-work")
        finished.append(node.name)

    stuck_before = _settled_stuck_workers(0)
    with pytest.raises(Boom, match="node-000"):
        cluster.deploy_wave(action, concurrency=2)
    # No further batch started; the failed node's batch-mate, still
    # sleeping when the error landed, ran to completion.
    assert started == ["node-000", "node-001"]
    assert finished == ["node-001"]
    assert clock.now >= 2.0
    # The scheduler is closed and no worker is left parked mid-process.
    assert clock.scheduler is None
    assert _settled_stuck_workers(stuck_before) == stuck_before
    # The cluster is still usable.
    report = cluster.deploy_wave(lambda node: clock.advance(1.0, "again"))
    assert len(report.latencies_s) == 4
