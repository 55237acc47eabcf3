"""Overload-robust FaaS tier: admission, coalescing, degradation.

The three-tier chain (:mod:`repro.net.faas`) may change where cold-start
bytes come from, never what gets deployed.  These tests pin the shared
tier's cache mechanics (LRU, TTL, write-through verification), the
headline robustness invariants — single-flight stampede suppression
(upstream fetches per unique fingerprint ≤ 1 while the tier is healthy),
typed sheds that never trip breakers, zero failed invocations under a
spike with a mid-spike tier outage, byte-identical filesystems vs. a
fault-free registry-only control — and deterministic replay.
"""

import pytest

from repro.bench.deploy import container_fs_digest, deploy_with_gear
from repro.bench.environment import (
    make_faas_testbed,
    make_testbed,
    publish_images,
)
from repro.blob import Blob
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import TierOverloadedError, UnavailableError
from repro.gear.gearfile import GearFile
from repro.net.faas import (
    FAAS_TIER_ENDPOINT,
    FaasPlatform,
    FaasStats,
    SharedCacheTier,
)
from repro.net.faults import FaultPlan, OutageWindow
from repro.net.link import Link
from repro.net.resilience import AdmissionGate
from repro.workloads.schedule import BurstWindow, ScheduleBuilder, ScheduledInvocation


def _stream(corpus, *, seed="faas-test", **kwargs):
    params = dict(duration_s=12.0, rate_per_s=5.0, functions=12, skew=1.0)
    params.update(kwargs)
    return ScheduleBuilder(corpus, seed=seed).invocation_stream(**params)


def _spike_outage_bed(**kwargs):
    """Tier outage landing mid-spike, HA registry behind the tier."""
    params = dict(
        ha_replicas=2,
        tier_fault_plan=FaultPlan(
            seed="faas-outage",
            outages=(OutageWindow(start_s=5.0, duration_s=2.0),),
            targets=(FAAS_TIER_ENDPOINT,),
        ),
    )
    params.update(kwargs)
    return make_faas_testbed(**params)


def _control_digests(images):
    """Fault-free registry-only ground truth: reference → fs digest."""
    root = make_testbed()
    publish_images(root, images, convert=True)
    node = root.fresh_client()
    digests = {}
    for generated in images:
        deploy_with_gear(node, generated)
        digests[generated.reference] = container_fs_digest(
            node.gear_driver.containers()[-1]
        )
    return digests


class TestSharedCacheTier:
    def test_lru_eviction_bounds_used_bytes(self, small_corpus):
        bed = make_faas_testbed(tier_capacity_bytes=200_000)
        publish_images(bed, small_corpus.images, convert=True)
        node = bed.faas.client()
        for generated in small_corpus.by_series["nginx"]:
            deploy_with_gear(node, generated)
        tier = bed.faas.tier
        assert tier.used_bytes <= 200_000
        assert bed.faas.stats.tier_evictions > 0
        # Evicted identities left the suppression set, so refills are
        # legitimate fetches, not duplicates.
        assert bed.faas.stats.duplicate_upstream_fetches == 0

    def test_ttl_expiry_refills_without_duplicate_flag(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed(tier_ttl_s=0.5)
        publish_images(bed, [generated], convert=True)
        first = bed.faas.client()
        deploy_with_gear(first, generated)
        upstream_once = bed.faas.stats.tier_upstream_fetches
        assert upstream_once > 0
        bed.clock.advance(10.0, "idle-past-ttl")
        second = bed.faas.client()
        deploy_with_gear(second, generated)
        stats = bed.faas.stats
        assert stats.tier_expirations > 0
        assert stats.tier_upstream_fetches > upstream_once
        assert stats.duplicate_upstream_fetches == 0

    def test_second_node_hits_tier_not_registry(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed()
        publish_images(bed, [generated], convert=True)
        first = bed.faas.client()
        deploy_with_gear(first, generated)
        wan_after_first = bed.link.log.total_bytes
        second = bed.faas.client()
        deploy_with_gear(second, generated)
        stats = bed.faas.stats
        assert stats.tier_hits > 0
        assert stats.egress_saved_bytes > 0
        # The second deployment moved zero payload over the WAN beyond
        # the index pull: the tier absorbed the Gear files.
        assert (
            bed.link.log.total_bytes - wan_after_first
            < stats.egress_saved_bytes
        )

    def test_admission_gate_sheds_with_typed_error(self):
        gate = AdmissionGate(capacity=1)
        assert gate.try_enter()
        assert not gate.try_enter()
        gate.exit()
        assert gate.try_enter()
        with pytest.raises(RuntimeError):
            gate.exit()
            gate.exit()

    def test_shed_is_a_retryable_unavailable(self):
        from repro.common.errors import UnavailableError
        from repro.net.resilience import RETRYABLE_ERRORS

        assert issubclass(TierOverloadedError, UnavailableError)
        assert issubclass(TierOverloadedError, RETRYABLE_ERRORS)


class TestStampedeSuppression:
    def test_synchronized_burst_coalesces_to_one_upstream_fetch(
        self, small_corpus
    ):
        """N same-image cold starts at t=0: one fill per unique file."""
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed()
        publish_images(bed, [generated], convert=True)
        platform = FaasPlatform(bed, bed.faas, nodes=6, seed="stampede")
        stream = [
            ScheduledInvocation(
                position=index,
                at_s=0.0,
                function=f"fn-{index:04d}",
                image=generated,
                is_repeat=False,
            )
            for index in range(6)
        ]
        run = platform.run(stream)
        stats = run.fabric
        assert run.failures == 0
        assert stats["tier_coalesced"] > 0
        assert stats["duplicate_upstream_fetches"] == 0
        # Every container saw identical bytes.
        assert run.digest_conflicts == 0
        assert len(run.fs_digests) == 1

    def test_a_failed_refill_leaves_the_other_refill_in_flight(self):
        """Regression: a fill's ``finally`` unregistered whatever flight
        was on record, not its own.  After a failed leader both waiters
        refill (by design) and the second's flight replaces the first's;
        when the first then failed it took the second's flight with it,
        and a newcomer fetched upstream beside it — a duplicate."""
        clock = SimClock()
        stats = FaasStats()
        tier = SharedCacheTier("tier", clock, Link(clock), stats=stats)
        gear_file = GearFile.from_blob(Blob.from_bytes(b"refilled"))
        identity = gear_file.identity

        class Upstream:
            """Scripted base: (seconds the call takes, does it fail)."""

            script = [(1.0, True), (1.0, True), (2.0, False), (1.0, False)]
            calls = 0

            def call_gen(self, endpoint, method, wanted, label=None):
                took_s, fails = self.script[self.calls]
                self.calls += 1
                yield from clock.advance_gen(took_s)
                if fails:
                    raise UnavailableError("upstream down")
                return gear_file

        base = Upstream()
        outcomes = {}

        def client(name, at_s):
            yield from clock.advance_gen(at_s)
            try:
                served = yield from tier.fetch(identity, base)
                outcomes[name] = (served.identity, clock.now)
            except UnavailableError:
                outcomes[name] = ("failed", clock.now)

        with SimScheduler(clock) as scheduler:
            for name, at_s in [
                ("leader", 0.0), ("w1", 0.1), ("w2", 0.2), ("newcomer", 2.5),
            ]:
                scheduler.spawn(client, name, at_s, name=name)
            scheduler.run()
        assert outcomes["leader"][0] == outcomes["w1"][0] == "failed"
        assert outcomes["w2"][0] == outcomes["newcomer"][0] == identity
        # The newcomer coalesced onto w2's refill and was served at the
        # instant it landed, from the cache.
        assert stats.tier_coalesced == 3
        assert base.calls == 3
        assert stats.duplicate_upstream_fetches == 0
        assert outcomes["newcomer"][1] == pytest.approx(outcomes["w2"][1], abs=0.01)
        assert len(tier.inflight) == 0

    def test_sheds_fall_through_and_never_trip_breaker(self, small_corpus):
        """A capacity-1 gate under a burst sheds hard — breaker stays shut."""
        generated = small_corpus.by_series["tomcat"][0]
        bed = make_faas_testbed(tier_admission_capacity=1)
        publish_images(bed, small_corpus.images, convert=True)
        platform = FaasPlatform(bed, bed.faas, nodes=4, seed="shed")
        stream = _stream(
            small_corpus,
            duration_s=6.0,
            rate_per_s=8.0,
            functions=16,
            bursts=(BurstWindow(1.0, 3.0, 10.0),),
        )
        run = platform.run(stream)
        stats = run.fabric
        assert run.failures == 0
        assert stats["tier_sheds"] > 0
        assert stats["sheds_seen"] == stats["tier_sheds"]
        # Sheds routed to the registry in-round, no backoff needed...
        assert stats["registry_fallbacks"] >= stats["tier_sheds"]
        # ...and the breaker never saw them as failures.
        assert bed.faas.tier.breaker.trips == 0
        assert stats["breaker_skips"] == 0
        assert stats["duplicate_upstream_fetches"] == 0
        _ = generated  # anchor: corpus image referenced by the stream


class TestEgressReduction:
    def test_shared_tier_absorbs_registry_egress(self, small_corpus):
        """The identical spiky stream with and without the tier: many
        nodes cold-start the same hot images, so the tier takes a real
        share of WAN egress and changes no container filesystem."""
        stream = _stream(
            small_corpus, bursts=(BurstWindow(4.0, 3.0, 10.0),)
        )
        runs = {}
        for tierless in (True, False):
            bed = make_faas_testbed(bandwidth_mbps=200.0)
            publish_images(bed, small_corpus.images, convert=True)
            bed.faas.blacklisted = tierless  # every fetch takes the registry
            platform = FaasPlatform(
                bed, bed.faas, nodes=4, keep_warm_s=4.0, seed="egress"
            )
            runs[tierless] = platform.run(stream)
        tierless, tiered = runs[True], runs[False]
        for run in runs.values():
            assert run.failures == 0
            assert run.digest_conflicts == 0
        assert tiered.fs_digests == tierless.fs_digests
        assert tiered.wan_egress_bytes < 0.9 * tierless.wan_egress_bytes


class TestSpikeOutage:
    def test_zero_failures_and_byte_identical_under_outage(self, small_corpus):
        """The acceptance scenario: 10x burst, tier dies mid-spike."""
        stream = _stream(
            small_corpus,
            duration_s=10.0,
            rate_per_s=6.0,
            functions=8,
            bursts=(BurstWindow(4.0, 4.0, 10.0),),
        )
        references = {inv.image.reference for inv in stream}
        images = [
            image
            for image in small_corpus.images
            if image.reference in references
        ]
        control = _control_digests(images)
        bed = _spike_outage_bed()
        publish_images(bed, images, convert=True)
        platform = FaasPlatform(
            bed, bed.faas, nodes=4, keep_warm_s=4.0, seed="outage"
        )
        run = platform.run(stream)
        stats = run.fabric
        assert run.invocations == len(stream)
        assert run.failures == 0
        assert run.degraded == 0
        assert run.digest_conflicts == 0
        # The outage actually bit: tier failed over, breaker opened.
        assert stats["tier_failovers"] > 0
        assert stats["breaker_skips"] > 0
        assert stats["registry_fallbacks"] > 0
        assert stats["duplicate_upstream_fetches"] == 0
        # Byte-identical to the fault-free registry-only control.
        for reference, digest in run.fs_digests.items():
            assert digest == control[reference]
        assert bed.faas.audit_integrity() == []

    def test_breaker_recovers_after_outage_window(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = _spike_outage_bed()
        publish_images(
            bed, small_corpus.by_series["nginx"][:2], convert=True
        )
        bed.arm_faults()
        node = bed.faas.client()
        bed.clock.advance(5.5, "into-outage")
        deploy_with_gear(node, generated)
        assert bed.faas.stats.tier_failovers > 0
        # Past the window + cooldown, a half-open probe re-admits the tier.
        bed.clock.advance(30.0, "past-outage")
        fresh = bed.faas.client()
        deploy_with_gear(
            fresh, small_corpus.by_series["nginx"][1]
        )
        assert bed.faas.stats.tier_upstream_fetches > 0
        assert not bed.faas.blacklisted


class TestByzantineTier:
    def test_byzantine_tier_is_demoted_and_bytes_stay_clean(
        self, small_corpus
    ):
        images = small_corpus.by_series["nginx"][:2]
        control = _control_digests(images)
        bed = make_faas_testbed()
        publish_images(bed, images, convert=True)
        bed.faas.tier.byzantine = True
        platform = FaasPlatform(bed, bed.faas, nodes=2, seed="byz")
        stream = [
            ScheduledInvocation(
                position=index,
                at_s=0.4 * index,
                function=f"fn-{index:04d}",
                image=images[index % len(images)],
                is_repeat=False,
            )
            for index in range(6)
        ]
        run = platform.run(stream)
        stats = run.fabric
        assert run.failures == 0
        assert run.digest_conflicts == 0
        assert stats["demotions"] == 1
        assert bed.faas.blacklisted
        # Everything after the demotion took the registry directly.
        assert stats["registry_fallbacks"] > 0
        for reference, digest in run.fs_digests.items():
            assert digest == control[reference]
        # Nothing poisoned sits in any cache or pool.
        assert bed.faas.audit_integrity() == []

    def test_demoted_tier_is_never_consulted_again(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed()
        publish_images(bed, small_corpus.images, convert=True)
        bed.faas.tier.byzantine = True
        node = bed.faas.client()
        deploy_with_gear(node, generated)
        assert bed.faas.blacklisted
        hits_at_demotion = bed.faas.stats.tier_hits
        upstream_at_demotion = bed.faas.stats.tier_upstream_fetches
        other = bed.faas.client()
        deploy_with_gear(other, small_corpus.by_series["tomcat"][0])
        assert bed.faas.stats.tier_hits == hits_at_demotion
        assert bed.faas.stats.tier_upstream_fetches == upstream_at_demotion


class TestWarmPath:
    def test_repeat_invocations_are_warm_and_cheap(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed()
        publish_images(bed, [generated], convert=True)
        platform = FaasPlatform(bed, bed.faas, nodes=2, seed="warm")
        # Spaced past the first cold start so each later arrival finds
        # the container resident (concurrent arrivals during the cold
        # start would each cold-start their own copy).
        stream = [
            ScheduledInvocation(
                position=index,
                at_s=4.0 * index,
                function="fn-0000",
                image=generated,
                is_repeat=index > 0,
            )
            for index in range(4)
        ]
        run = platform.run(stream)
        assert run.cold_starts == 1
        assert run.warm_starts == 3
        assert run.warm_p50_s == FaasPlatform.WARM_INVOKE_S
        assert run.cold_p50_s > run.warm_p50_s

    def test_keep_warm_lapse_reaps_and_recolds(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed()
        publish_images(bed, [generated], convert=True)
        platform = FaasPlatform(
            bed, bed.faas, nodes=1, keep_warm_s=1.0, seed="reap"
        )
        stream = [
            ScheduledInvocation(0, 0.0, "fn-0000", generated, False),
            ScheduledInvocation(1, 8.0, "fn-0000", generated, True),
        ]
        run = platform.run(stream)
        assert run.cold_starts == 2
        assert run.warm_starts == 0
        assert run.reaped == 1
        assert run.digest_conflicts == 0

    def test_a_second_run_reports_only_its_own_reaps(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        bed = make_faas_testbed()
        publish_images(bed, [generated], convert=True)
        platform = FaasPlatform(
            bed, bed.faas, nodes=1, keep_warm_s=1.0, seed="reap-twice"
        )
        stream = [
            ScheduledInvocation(0, 0.0, "fn-0000", generated, False),
            ScheduledInvocation(1, 8.0, "fn-0000", generated, True),
        ]
        first, second = platform.run(stream), platform.run(stream)
        assert first.reaped == 1
        # The second run finds the container warm, then reaps it once.
        assert (second.warm_starts, second.cold_starts) == (1, 1)
        assert second.reaped == 1
        assert first.reaped + second.reaped == platform.reaped


class TestDeterminism:
    def _run_once(self, corpus):
        bed = _spike_outage_bed()
        publish_images(bed, corpus.images, convert=True)
        platform = FaasPlatform(
            bed, bed.faas, nodes=4, keep_warm_s=4.0, seed="det"
        )
        stream = _stream(
            corpus,
            duration_s=8.0,
            rate_per_s=5.0,
            functions=10,
            bursts=(BurstWindow(4.0, 3.0, 10.0),),
        )
        return platform.run(stream).as_dict()

    def test_spike_outage_run_replays_identically(self, small_corpus):
        assert self._run_once(small_corpus) == self._run_once(small_corpus)


class TestFaasMetrics:
    def test_faas_stats_registered_in_metrics_plane(self):
        from repro.obs.export import metrics_snapshot

        bed = make_faas_testbed()
        snapshot = metrics_snapshot(bed.metrics)
        assert any(key.startswith("faas.") for key in snapshot)
