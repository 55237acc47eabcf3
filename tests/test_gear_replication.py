"""The replicated Gear registry tier end to end.

Write fan-out keeps every replica serving the same catalog; byzantine
replicas are demoted by the viewer's fingerprint check; and a healthy replica tier is
byte- and time-identical to the single-registry testbed.  The crash test
kills a client mid-hedged-fetch, fscks the local store, and resumes
against a different replica — the golden resume-equivalence invariant
(PR 3) must hold across a replica switch.
"""

from __future__ import annotations

import pytest

from repro.bench.deploy import (
    deploy_with_gear,
    deploy_with_gear_resumable,
)
from repro.bench.environment import make_ha_testbed, make_testbed, publish_images
from repro.common.clock import SimScheduler
from repro.common.errors import ClientCrash
from repro.gear.journal import FETCH_BEGIN
from repro.net.faults import CrashPlan, CrashPoint, byzantine_plan


@pytest.fixture
def ha_testbed(small_corpus):
    testbed = make_ha_testbed(replicas=3)
    publish_images(testbed, small_corpus.images, convert=True)
    return testbed


class TestWriteFanOut:
    def test_conversion_replicates_to_every_replica(self, ha_testbed):
        replicas = ha_testbed.ha.replica_set.replicas
        counts = [r.registry.file_count for r in replicas]
        assert counts[0] > 0
        assert len(set(counts)) == 1
        # A conversion again finds every file stored: each replica holds
        # every identity its index names.
        index, _ = ha_testbed.converter.convert("nginx:v1")
        assert all(r.registry.query(identity) for r in replicas
                   for identity in filter(None, index.entries.identities))

    def test_replica_set_quacks_like_a_registry(self, ha_testbed):
        replica_set = ha_testbed.gear_registry
        primary = replica_set.primary.registry
        assert replica_set.file_count == primary.file_count > 0
        assert replica_set.stored_bytes == primary.stored_bytes > 0


class TestHealthyTierIdentity:
    def test_single_client_deploy_byte_identical_to_plain_testbed(
        self, small_corpus
    ):
        """HA with healthy replicas adds zero virtual time and bytes.

        Primary-first selection sends every sequential fetch to replica
        0 over a link identical to the plain testbed's; hedging and
        probing need a scheduler, so the sequential deploy never pays
        for them.
        """
        generated = small_corpus.images[0]
        plain = make_testbed()
        publish_images(plain, small_corpus.images, convert=True)
        ha = make_ha_testbed(replicas=3)
        publish_images(ha, small_corpus.images, convert=True)

        before_plain = plain.clock.now
        before_ha = ha.clock.now
        r_plain = deploy_with_gear(plain, generated)
        r_ha = deploy_with_gear(ha, generated)
        assert r_ha.network_bytes == r_plain.network_bytes
        assert r_ha.network_requests == r_plain.network_requests
        assert r_ha.total_s == pytest.approx(r_plain.total_s)
        assert (ha.clock.now - before_ha) == pytest.approx(
            plain.clock.now - before_plain
        )
        assert not r_ha.degraded
        assert r_ha.retries == 0 and r_ha.errors == 0

    def test_only_primary_serves_in_sequential_mode(self, ha_testbed, small_corpus):
        deploy_with_gear(ha_testbed, small_corpus.images[0])
        replicas = ha_testbed.ha.replica_set.replicas
        assert replicas[0].stats.serves > 0
        assert replicas[1].stats.serves == 0
        assert replicas[2].stats.serves == 0


class TestByzantineReplica:
    def test_lying_replica_is_demoted_and_deploy_survives(self, small_corpus):
        generated = small_corpus.images[0]
        testbed = make_ha_testbed(
            replicas=3,
            replica_fault_plans=[byzantine_plan(seed="t-byz")],
        )
        publish_images(testbed, [generated], convert=True)
        testbed.arm_faults()
        result = deploy_with_gear(testbed, generated)
        replicas = testbed.ha.replica_set.replicas
        stats = testbed.ha.policy.stats
        # The first download came back with wrong bytes that passed the
        # wire checksum; the viewer's fingerprint check caught it and
        # demoted the serving replica before the re-fetch.
        assert stats.demotions >= 1
        assert not replicas[0].breaker.available(testbed.clock.now)
        assert replicas[1].stats.serves > 0
        assert not result.degraded
        viewer_stats = testbed.gear_driver.containers()[-1].mount.fault_stats
        assert viewer_stats.integrity_failures >= 1
        assert viewer_stats.refetches >= 1


class TestCrashDuringHedgedFetch:
    def test_crash_fsck_resume_against_different_replica(self, small_corpus):
        """Kill the client mid-fetch under hedging, then resume elsewhere.

        The crashed attempt ran under the scheduler with hedged fetches
        live; recovery (PR 3's fsck) repairs the local store; the resumed
        deployment is forced onto a different replica (the one it
        crashed against is taken out).  Golden invariants: the resumed
        container fs digests identically to an uncrashed control run,
        and nothing recovery committed is re-fetched.
        """
        generated = small_corpus.images[0]

        control_bed = make_ha_testbed(replicas=3, seed="crash-ha")
        publish_images(control_bed, [generated], convert=True)
        control = deploy_with_gear_resumable(control_bed, generated, None)
        assert not control.crashed

        testbed = make_ha_testbed(replicas=3, seed="crash-ha")
        publish_images(testbed, [generated], convert=True)
        driver = testbed.gear_driver
        driver.arm_crash(
            CrashPlan(point=CrashPoint.MID_FETCH, seed="t-ha-crash")
        )
        with SimScheduler(testbed.clock) as scheduler:
            proc = scheduler.spawn(
                lambda: deploy_with_gear(testbed, generated),
                name="crashing-client",
            )
            with pytest.raises(ClientCrash):
                scheduler.run_until(proc)
            # The node lost power: in-flight hedges die with it.
            scheduler.abort()
        driver.disarm_crash()

        recovery = driver.recover()
        held = set(driver.pool.identities())

        # The replica the crashed run was fetching from is taken out of
        # rotation; the resume must succeed against a different one.
        replicas = testbed.ha.replica_set.replicas
        assert replicas[0].stats.serves > 0  # the crashed run used it
        serves_before = [r.stats.serves for r in replicas]
        replicas[0].breaker.COOLDOWN_S = 1e9
        replicas[0].breaker.force_open(testbed.clock.now)

        result = deploy_with_gear(testbed, generated)
        refetched = sum(
            1
            for record in driver.journal.records
            if record.op == FETCH_BEGIN and record.identity in held
        )
        container = driver.containers()[-1]
        assert container.mount.fs_digest() == control.fs_digest
        assert refetched == 0
        assert not result.degraded
        assert replicas[0].stats.serves == serves_before[0]
        assert replicas[1].stats.serves > serves_before[1]
        assert recovery is not None
