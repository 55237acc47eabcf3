"""The HA registry tier: breakers, admission, hedging, selection, stats.

Covers the :mod:`repro.net.ha` machinery in isolation (breaker state
machine, admission gate, hedge-deadline estimator) and through the full
testbed (shedding, hedged fetches, seeded selection, determinism).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.clock import SimScheduler
from repro.common.errors import (
    NotFoundError,
    RegistryOverloadedError,
    UnavailableError,
)
from repro.common.stats import percentile
from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_ha_testbed, publish_images
from repro.gear.commit import commit_container
from repro.gear.pool import PoolStats
from repro.gear.viewer import FaultStats
from repro.net.faults import (
    BrownoutWindow,
    FaultPlan,
    LinkFaultStats,
    OutageWindow,
)
from repro.net.ha import (
    BreakerState,
    CircuitBreaker,
    HAStats,
    HedgeEstimator,
    ReplicaStats,
)
from repro.net.resilience import AdmissionGate
from repro.net.topology import HACluster
from repro.net.transport import RpcStats


def _tripped(at: float) -> CircuitBreaker:
    """A breaker whose failure streak reached the threshold at ``at``."""
    breaker = CircuitBreaker()
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):
        breaker.record_failure(at)
    return breaker


class TestCircuitBreaker:
    COOLDOWN = CircuitBreaker.COOLDOWN_S

    def test_starts_closed_and_available(self):
        breaker = CircuitBreaker()
        assert breaker.state(0.0) is BreakerState.CLOSED
        assert breaker.available(0.0)
        assert breaker.trips == 0

    def test_trips_after_failure_threshold(self):
        assert CircuitBreaker.FAILURE_THRESHOLD == 3
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state(0.1) is BreakerState.CLOSED
        breaker.record_failure(0.2)
        assert breaker.state(0.2) is BreakerState.OPEN
        assert not breaker.available(0.3)
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state(0.4) is BreakerState.CLOSED

    def test_half_open_is_derived_from_cooldown(self):
        breaker = _tripped(1.0)
        assert breaker.state(1.0 + self.COOLDOWN - 0.1) is BreakerState.OPEN
        half_open = 1.0 + self.COOLDOWN
        assert breaker.state(half_open) is BreakerState.HALF_OPEN
        # available() is pure: asking repeatedly changes nothing.
        for _ in range(5):
            assert breaker.available(half_open)
        assert breaker.state(half_open) is BreakerState.HALF_OPEN

    def test_half_open_success_closes(self):
        breaker = _tripped(0.0)
        breaker.record_success(self.COOLDOWN + 0.5)
        assert breaker.state(self.COOLDOWN + 0.5) is BreakerState.CLOSED
        assert breaker.trips == 1

    def test_half_open_failure_reopens_for_another_cooldown(self):
        breaker = _tripped(0.0)
        trial = self.COOLDOWN + 0.5
        breaker.record_failure(trial)  # the half-open trial failed
        assert breaker.state(trial + 0.1) is BreakerState.OPEN
        assert breaker.opened_at == trial
        assert breaker.trips == 2

    def test_straggler_success_while_hard_open_is_ignored(self):
        breaker = _tripped(0.0)
        breaker.record_success(0.5)  # launched before the trip landed
        assert breaker.state(0.5) is BreakerState.OPEN

    def test_force_open_trips_immediately(self):
        breaker = CircuitBreaker()
        breaker.force_open(1.0)
        assert breaker.state(1.0) is BreakerState.OPEN
        assert breaker.trips == 1

    def test_force_open_is_noop_while_hard_open(self):
        breaker = _tripped(0.0)
        breaker.force_open(1.0)
        assert breaker.opened_at == 0.0
        assert breaker.trips == 1


class TestAdmissionGate:
    def test_unbounded_by_default(self):
        gate = AdmissionGate()
        for _ in range(100):
            assert gate.try_enter()
        assert gate.inflight == 100

    def test_bounded_gate_sheds_then_readmits(self):
        gate = AdmissionGate(2)
        assert gate.try_enter()
        assert gate.try_enter()
        assert not gate.try_enter()
        gate.exit()
        assert gate.try_enter()
        assert gate.peak_inflight == 2

    def test_unmatched_exit_raises(self):
        gate = AdmissionGate(2)
        with pytest.raises(RuntimeError):
            gate.exit()


class TestHedgeEstimator:
    def test_cold_ratio_before_min_samples(self):
        est = HedgeEstimator()
        for _ in range(HedgeEstimator.MIN_SAMPLES - 1):
            est.observe(1.0)
        assert est.slowdown_ratio() == HedgeEstimator.COLD_RATIO == 3.0
        assert est.deadline_s(2.0) == pytest.approx(2.0 * 3.0 * 1.25)

    def test_warm_deadline_agrees_with_percentile_helper(self):
        est = HedgeEstimator()
        ratios = [1.0, 1.2, 2.0, 4.0, 1.1]
        for ratio in ratios:
            est.observe(ratio)
        assert est.slowdown_ratio() == percentile(ratios, 95.0)

    def test_ratio_floor_is_one(self):
        est = HedgeEstimator()
        for _ in range(HedgeEstimator.MIN_SAMPLES):
            est.observe(0.5)  # faster than nominal: never hedge early
        assert est.slowdown_ratio() == 1.0

    def test_window_trims_old_samples(self):
        est = HedgeEstimator()
        # Enough slow samples to hold the 95th percentile, were they kept.
        for _ in range(HedgeEstimator.WINDOW // 16):
            est.observe(100.0)
        for _ in range(HedgeEstimator.WINDOW):
            est.observe(1.0)
        assert est.slowdown_ratio() == 1.0

    def test_nonpositive_ratio_ignored(self):
        est = HedgeEstimator()
        for _ in range(HedgeEstimator.MIN_SAMPLES - 1):
            est.observe(1.0)
        est.observe(0.0)
        est.observe(-1.0)
        assert est.slowdown_ratio() == HedgeEstimator.COLD_RATIO


#: Every counter dataclass in the tree; each is a MetricSet, read by
#: the registry snapshot and diffed by its readers, never reset.
STATS_CLASSES = (
    RpcStats, LinkFaultStats, FaultStats, HAStats, ReplicaStats, PoolStats,
)


class TestStatsReset:
    @pytest.mark.parametrize(
        "stats_cls", STATS_CLASSES, ids=lambda c: c.__name__
    )
    def test_metrics_covers_every_field(self, stats_cls):
        """The registry snapshot view must expose every declared counter."""
        stats = stats_cls()
        declared = {f.name for f in dataclasses.fields(stats)}
        assert set(stats.metrics()) == declared


def _published_ha(tmp_images, **kwargs):
    testbed = make_ha_testbed(**kwargs)
    publish_images(testbed, tmp_images, convert=True)
    return testbed


class TestSelection:
    def test_primary_first_prefers_low_index(self, small_corpus):
        testbed = _published_ha(small_corpus.images[:1], replicas=3)
        order = testbed.ha.policy.select()
        assert [r.index for r in order] == [0, 1, 2]

    def test_open_breaker_filters_replica(self, small_corpus):
        testbed = _published_ha(small_corpus.images[:1], replicas=3)
        policy = testbed.ha.policy
        replicas = testbed.ha.replica_set.replicas
        replicas[0].breaker.force_open(testbed.clock.now)
        order = policy.select()
        assert [r.index for r in order] == [1, 2]
        assert policy.stats.breaker_skips == 1

    def test_p2c_is_seed_deterministic(self, small_corpus):
        def draw(seed):
            testbed = _published_ha(
                small_corpus.images[:1], replicas=4,
                strategy="p2c", seed=seed,
            )
            return [
                tuple(r.index for r in testbed.ha.policy.select())
                for _ in range(8)
            ]

        assert draw("a") == draw("a")
        assert draw("a") != draw("b")


class TestWriteFanOut:
    """A commit's ``upload`` goes to every replica (the paper's commit
    path, ``commit_container`` -> ``transport.call("upload")``)."""

    def _commit(self, small_corpus, **kwargs):
        generated = small_corpus.images[0]
        testbed = _published_ha([generated], replicas=3, **kwargs)
        container, _ = testbed.gear_driver.deploy(generated.gear_reference)
        container.mount.write_file("/opt/patch.bin", b"hotfix" * 100, parents=True)
        testbed.arm_faults()
        index, report = commit_container(
            container, "app.gear", "patched",
            daemon=testbed.daemon, transport=testbed.transport,
        )
        assert report.uploaded_gear_files == 1
        identity = index.entries["/opt/patch.bin"].identity
        return [r.registry.query(identity) for r in testbed.ha.replica_set.replicas]

    def test_a_committed_file_lands_on_every_replica(self, small_corpus):
        assert self._commit(small_corpus) == [True, True, True]

    def test_a_commit_succeeds_past_a_replica_in_an_outage(self, small_corpus):
        down = FaultPlan(
            outages=(OutageWindow(start_s=0.0, duration_s=1e9),),
            seed="t-down",
        )
        held = self._commit(small_corpus, replica_fault_plans=[down])
        assert held == [False, True, True]


class TestShedding:
    def test_saturated_gates_shed_with_typed_error(self, small_corpus):
        testbed = _published_ha(
            small_corpus.images[:1], replicas=2, admission_capacity=1
        )
        policy = testbed.ha.policy
        for replica in testbed.ha.replica_set.replicas:
            assert replica.admission.try_enter()  # fill the only slot
        with pytest.raises(RegistryOverloadedError):
            testbed.clock.drive(policy.call("query", "anything"))
        # Every replica shed in every round; backoffs were charged
        # between rounds and the give-up is accounted.
        assert policy.stats.sheds_seen >= 2
        assert policy.stats.backoffs > 0
        assert policy.stats.giveups == 1
        for replica in testbed.ha.replica_set.replicas:
            assert replica.stats.sheds > 0

    def test_shed_is_retryable_and_fails_over(self, small_corpus):
        testbed = _published_ha(small_corpus.images[:1], replicas=2)
        replicas = testbed.ha.replica_set.replicas
        # Fill replica 0's queue; replica 1 stays open.
        replicas[0].admission = AdmissionGate(1)
        assert replicas[0].admission.try_enter()
        identity = next(iter(replicas[1].registry.identities()))
        assert policy_call_download(testbed, identity) is not None
        assert replicas[0].stats.sheds == 1
        assert replicas[1].stats.serves >= 1
        assert testbed.ha.policy.stats.failovers == 1
        # Shedding is congestion, not sickness: the breaker stays closed.
        assert replicas[0].breaker.state(testbed.clock.now) is BreakerState.CLOSED

    def test_overload_error_is_unavailable_subclass(self):
        # The viewer's degraded-mode catch and the retry policy both key
        # on UnavailableError; a shed must stay inside that contract.
        assert issubclass(RegistryOverloadedError, UnavailableError)


def policy_call_download(testbed, identity):
    """The policy's read path is a generator: drive it for the caller."""
    return testbed.clock.drive(testbed.ha.policy.call(
        "download", identity, label=f"test-fetch:{identity[:8]}"
    ))


class TestFailover:
    def test_read_fails_over_when_primary_is_down(self, small_corpus):
        down = FaultPlan(
            outages=(OutageWindow(start_s=0.0, duration_s=1e9),),
            seed="t-down",
        )
        testbed = _published_ha(
            small_corpus.images[:1], replicas=3,
            replica_fault_plans=[down],
        )
        testbed.arm_faults()
        replicas = testbed.ha.replica_set.replicas
        identity = next(iter(replicas[1].registry.identities()))
        assert policy_call_download(testbed, identity) is not None
        assert replicas[0].stats.failures == 1
        assert replicas[1].stats.serves >= 1
        assert testbed.ha.policy.stats.failovers == 1

    def test_repeated_failures_trip_breaker_and_skip(self, small_corpus):
        down = FaultPlan(
            outages=(OutageWindow(start_s=0.0, duration_s=1e9),),
            seed="t-down",
        )
        testbed = _published_ha(
            small_corpus.images[:1], replicas=3,
            replica_fault_plans=[down],
        )
        testbed.arm_faults()
        replicas = testbed.ha.replica_set.replicas
        identity = next(iter(replicas[1].registry.identities()))
        for _ in range(4):
            policy_call_download(testbed, identity)
        assert replicas[0].breaker.trips == 1
        assert not replicas[0].breaker.available(testbed.clock.now)
        assert testbed.ha.policy.stats.breaker_skips > 0

    def test_missing_identity_raises_not_found_without_backoff(
        self, small_corpus
    ):
        testbed = _published_ha(small_corpus.images[:1], replicas=3)
        policy = testbed.ha.policy
        with pytest.raises(NotFoundError):
            testbed.clock.drive(policy.call("download", "no-such-identity"))
        # A 404 no replica contradicted is authoritative: no retry rounds.
        assert policy.stats.backoffs == 0
        assert policy.stats.giveups == 0


class TestHedging:
    def _hedged_fetch(self, *, slow_factor=40.0):
        slow = FaultPlan(
            brownouts=(
                BrownoutWindow(start_s=0.0, duration_s=1e9, factor=slow_factor),
            ),
            seed="t-slow",
        )
        testbed = make_ha_testbed(replicas=2, replica_fault_plans=[slow])
        return testbed, slow

    def test_hedge_fires_against_slow_primary_and_mate_wins(self, small_corpus):
        testbed, _ = self._hedged_fetch()
        publish_images(testbed, small_corpus.images[:1], convert=True)
        testbed.arm_faults()
        replicas = testbed.ha.replica_set.replicas
        identity = next(iter(replicas[1].registry.identities()))
        results = []
        with SimScheduler(testbed.clock) as scheduler:
            scheduler.spawn(
                lambda: results.append(policy_call_download(testbed, identity)),
                name="client",
            )
            scheduler.run()
        stats = testbed.ha.policy.stats
        assert results and results[0] is not None
        assert stats.hedges == 1
        assert stats.hedge_wins == 1
        # The slow loser was cancelled mid-flight and charged only the
        # bytes its flow actually moved.
        assert stats.cancels == 1
        assert stats.wasted_hedge_bytes >= 0
        assert replicas[1].stats.serves == 1

    def test_no_hedging_in_sequential_mode(self, small_corpus):
        testbed, _ = self._hedged_fetch()
        publish_images(testbed, small_corpus.images[:1], convert=True)
        testbed.arm_faults()
        replicas = testbed.ha.replica_set.replicas
        identity = next(iter(replicas[1].registry.identities()))
        assert policy_call_download(testbed, identity) is not None
        assert testbed.ha.policy.stats.hedges == 0


class TestFleetTail:
    def test_one_dead_replica_costs_at_most_twice_the_healthy_tail(
        self, small_corpus
    ):
        generated = small_corpus.by_series["nginx"][0]
        down = FaultPlan(
            outages=(OutageWindow(start_s=0.0, duration_s=1e9),),
            seed="t-tail",
        )
        waves = {}
        for scenario, plans in (("healthy", None), ("outage", [down])):
            cluster = HACluster(
                8, replicas=3, replica_fault_plans=plans, seed="t-tail"
            )
            publish_images(cluster.registry_testbed, [generated], convert=True)
            cluster.registry_testbed.arm_faults()
            waves[scenario] = cluster.deploy_wave(
                lambda node: deploy_with_gear(node.testbed, generated)
            )
        healthy, outage = waves["healthy"], waves["outage"]
        assert healthy.degraded == outage.degraded == 0
        assert outage.failovers > 0 and outage.breaker_trips > 0
        assert outage.p99_s <= 2 * healthy.p99_s


class TestDeterminism:
    def test_faulty_ha_deploy_replays_identically(self, small_corpus):
        """Double-run a whole faulty HA deployment and diff everything.

        The jitter RNG, the selection RNG, the fault streams, and the
        scheduler interleaving all come from seeded streams, so two
        identical runs must agree on stats, time, and bytes exactly.
        """
        generated = small_corpus.images[0]

        def run():
            down = FaultPlan(
                outages=(OutageWindow(start_s=0.0, duration_s=1e9),),
                seed="t-det",
            )
            testbed = make_ha_testbed(
                replicas=3, replica_fault_plans=[down], seed="t-det"
            )
            publish_images(testbed, [generated], convert=True)
            testbed.arm_faults()
            results = []
            with SimScheduler(testbed.clock) as scheduler:
                testbed.ha.monitor.start(scheduler)
                proc = scheduler.spawn(
                    lambda: results.append(
                        deploy_with_gear(testbed, generated)
                    ),
                    name="client",
                )
                scheduler.run_until(proc)
                testbed.ha.monitor.stop()
                scheduler.run()
            result = results[0]
            return {
                "stats": testbed.ha.policy.stats.metrics(),
                "clock": testbed.clock.now,
                "bytes": testbed.link.log.total_bytes,
                "total_s": result.total_s,
                "degraded": result.degraded,
                "replica_serves": [
                    r.stats.serves for r in testbed.ha.replica_set.replicas
                ],
            }

        first = run()
        second = run()
        assert first == second
        assert not first["degraded"]
