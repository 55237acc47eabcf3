"""Crash injection, journal-driven fsck, and resumable deployments.

The torn-state taxonomy (DESIGN.md §9), one crash point at a time; then
the golden invariant: crash + fsck + resume produces a container
filesystem byte-identical to an uncrashed control run, re-fetching
nothing the journal had already committed.
"""

import pytest

from repro.bench.deploy import (
    container_fs_digest,
    deploy_with_gear,
    deploy_with_gear_resumable,
)
from repro.bench.environment import make_testbed, publish_images
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import ClientCrash
from repro.blob import Blob
from repro.gear.gearfile import GearFile
from repro.gear.index import STUB_XATTR
from repro.gear.journal import IntentJournal
from repro.gear.pool import SharedFilePool
from repro.gear.recovery import fsck
from repro.net.faults import CrashPlan, CrashPoint

ALL_POINTS = tuple(CrashPoint)


@pytest.fixture
def victim(small_corpus):
    return small_corpus.by_series["nginx"][0]


def _published(small_corpus):
    testbed = make_testbed()
    publish_images(testbed, small_corpus.images, convert=True)
    return testbed


def _crash_deploy(testbed, generated, plan) -> ClientCrash:
    """Arm ``plan``, deploy, and return the crash (which must fire)."""
    testbed.gear_driver.arm_crash(plan)
    with pytest.raises(ClientCrash) as excinfo:
        deploy_with_gear(testbed, generated)
    testbed.gear_driver.disarm_crash()
    return excinfo.value


def _nlink_census_ok(driver) -> bool:
    """Every pool inode: nlink == 1 (pool) + live index links."""
    for identity in driver.pool.identities():
        inode = driver.pool.peek(identity)
        links = 0
        for reference in driver.images():
            linked = driver.get_index(reference).links.values()
            links += sum(1 for node in linked if node is inode)
        if inode.nlink != 1 + links:
            return False
    return True


class TestTornStateTaxonomy:
    def test_mid_fetch_leaves_torn_partial_and_fsck_drops_it(
        self, small_corpus, victim
    ):
        testbed = _published(small_corpus)
        plan = CrashPlan(point=CrashPoint.MID_FETCH, op_index=1)
        crash = _crash_deploy(testbed, victim, plan)
        assert crash.point == "mid-fetch"
        driver = testbed.gear_driver
        # The torn partial is staged, invisible, and journaled as open.
        assert driver.pool.staged_count == 1
        state = driver.journal.replay()
        assert len(state.open_fetches) == 1
        torn_identity = state.open_fetches[0]
        assert driver.pool.is_staged(torn_identity)

        report = driver.recover()
        assert report.torn_dropped == 1
        assert report.torn_bytes > 0
        assert report.salvaged == 0 and report.rolled_forward == 0
        # The junk bytes are gone: the identity must be fetched again.
        assert not driver.pool.contains(torn_identity)
        assert driver.pool.staged_count == 0
        assert len(driver.journal) == 0

    def test_post_fetch_intact_bytes_are_salvaged(self, small_corpus, victim):
        testbed = _published(small_corpus)
        plan = CrashPlan(point=CrashPoint.POST_FETCH, op_index=1)
        _crash_deploy(testbed, victim, plan)
        driver = testbed.gear_driver
        state = driver.journal.replay()
        salvage_identity = state.open_fetches[0]

        report = driver.recover()
        # Journal says "open" but the staged bytes verify: promoted
        # without re-fetching a single byte.
        assert report.salvaged == 1
        assert report.torn_dropped == 0
        assert report.recovered_bytes > 0
        assert driver.pool.contains(salvage_identity)

    def test_mid_commit_rolls_forward(self, small_corpus, victim):
        testbed = _published(small_corpus)
        plan = CrashPlan(point=CrashPoint.MID_COMMIT, op_index=1)
        _crash_deploy(testbed, victim, plan)
        driver = testbed.gear_driver
        state = driver.journal.replay()
        committed = state.committed_fetches
        assert len(committed) >= 1

        report = driver.recover()
        assert report.rolled_forward == 1
        assert report.salvaged == 0 and report.torn_dropped == 0
        for identity in committed:
            assert driver.pool.contains(identity)

    def test_mid_link_intact_link_is_repaired(self, small_corpus, victim):
        testbed = _published(small_corpus)
        plan = CrashPlan(point=CrashPoint.MID_LINK, op_index=1)
        _crash_deploy(testbed, victim, plan)
        driver = testbed.gear_driver
        state = driver.journal.replay()
        assert len(state.open_links) == 1
        record = state.open_links[0]
        # The physical hard link landed before the crash.
        index = driver.get_index(record.reference)
        node = index.links[record.path]
        assert STUB_XATTR not in node.meta.xattrs

        report = driver.recover()
        assert report.links_repaired == 1
        assert report.links_rolled_back == 0
        assert _nlink_census_ok(driver)

    def test_mid_link_with_lost_pool_entry_rolls_back_to_stub(
        self, small_corpus, victim
    ):
        testbed = _published(small_corpus)
        plan = CrashPlan(point=CrashPoint.MID_LINK, op_index=1)
        _crash_deploy(testbed, victim, plan)
        driver = testbed.gear_driver
        record = driver.journal.replay().open_links[0]
        # The pool entry vanished between link and commit (an eviction
        # raced the crash): the link is dangling.
        driver.pool.drop(record.identity)

        report = driver.recover()
        assert report.links_rolled_back == 1
        assert report.dangling_links == 1
        index = driver.get_index(record.reference)
        assert record.path not in index.links
        node = driver.containers()[-1].mount.stat(
            record.path, follow_symlinks=False
        )
        # Rolled back to a pristine, re-faultable stub.
        assert STUB_XATTR in node.meta.xattrs


class TestFsckInvariants:
    @pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.value)
    def test_store_is_clean_after_fsck(self, small_corpus, victim, point):
        testbed = _published(small_corpus)
        _crash_deploy(testbed, victim, CrashPlan(point=point, op_index=1))
        driver = testbed.gear_driver
        driver.recover()
        assert driver.pool.staged_count == 0
        assert not driver.pool.inflight
        assert len(driver.journal) == 0
        assert driver.journal.replay().open_links == []
        assert _nlink_census_ok(driver)

    @pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.value)
    def test_fsck_is_idempotent(self, small_corpus, victim, point):
        testbed = _published(small_corpus)
        _crash_deploy(testbed, victim, CrashPlan(point=point, op_index=1))
        driver = testbed.gear_driver
        driver.recover()
        second = driver.recover()
        assert second.repairs == 0
        assert second.journal_records == 0

    def test_fsck_clears_inflight_markers(self):
        clock = SimClock()
        pool = SharedFilePool()
        with SimScheduler(clock):  # flights exist only under a scheduler
            event = pool.inflight.claim("dead-fetch", clock)
        report = fsck(pool, [], [], IntentJournal(clock), clock=clock)
        assert report.inflight_cleared == 1
        assert not pool.inflight
        assert event.fired  # waiters wake and re-check the pool

    def test_a_unique_id_entry_is_kept_only_when_its_fetch_committed(self):
        # No fingerprint can re-verify a ``uid-…`` file: the journal is
        # the only witness that its staged bytes are whole.
        clock = SimClock()
        journal, pool = IntentJournal(clock), SharedFilePool()
        torn = GearFile(identity="uid-00000001-torn", blob=Blob.from_bytes(b"ha"))
        whole = GearFile(identity="uid-00000002-whole", blob=Blob.from_bytes(b"all"))
        for gear_file in (torn, whole):
            journal.fetch_begin(gear_file.identity)
            pool.prepare(gear_file)
        journal.fetch_commit(whole.identity)
        report = fsck(pool, [], [], journal, clock=clock)
        assert not pool.contains(torn.identity) and pool.contains(whole.identity)
        assert (report.torn_dropped, report.rolled_forward, report.salvaged) == (1, 1, 0)

    def test_fsck_charges_virtual_time_for_verification(
        self, small_corpus, victim
    ):
        testbed = _published(small_corpus)
        plan = CrashPlan(point=CrashPoint.POST_FETCH, op_index=1)
        _crash_deploy(testbed, victim, plan)
        before = testbed.clock.now
        report = testbed.gear_driver.recover()
        assert report.verify_bytes > 0
        assert report.fsck_s > 0
        assert testbed.clock.now == pytest.approx(before + report.fsck_s)

    def test_fsck_on_clean_store_repairs_nothing(self, small_corpus, victim):
        testbed = _published(small_corpus)
        deploy_with_gear(testbed, victim)
        report = testbed.gear_driver.recover()
        assert report.repairs == 0
        assert report.verify_bytes == 0


class TestResumableDeployment:
    @pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.value)
    def test_golden_resume_equivalence(self, small_corpus, victim, point):
        sibling = small_corpus.by_series["nginx"][1]
        # Cold: the first-ever deployment dies.  Warm: a sibling version
        # deployed first, so the pool already holds shared files.
        for warm in (False, True):
            def testbed():
                bed = _published(small_corpus)
                if warm:
                    deploy_with_gear_resumable(bed, sibling, None)
                return bed

            control = deploy_with_gear_resumable(testbed(), victim, None)
            assert not control.crashed

            plan = CrashPlan(point=point, seed="golden", horizon=4)
            out = deploy_with_gear_resumable(testbed(), victim, plan)
            assert out.crashed
            assert out.crash_point == point.value
            # Byte-identical container fs, nothing committed re-fetched.
            assert out.fs_digest == control.fs_digest
            assert out.refetched_committed == 0
            assert out.result.network_bytes <= control.result.network_bytes

    def test_unfired_plan_degenerates_to_plain_deploy(
        self, small_corpus, victim
    ):
        # An op index past the run's actual fetch count never fires; the
        # deployment must complete as if no plan were armed.
        plan = CrashPlan(point=CrashPoint.MID_FETCH, op_index=10_000)
        out = deploy_with_gear_resumable(_published(small_corpus), victim, plan)
        assert not out.crashed
        assert out.recovery is None

    def test_resume_reuses_recovered_bytes(self, small_corpus, victim):
        plan = CrashPlan(point=CrashPoint.MID_COMMIT, op_index=2)
        out = deploy_with_gear_resumable(_published(small_corpus), victim, plan)
        assert out.crashed
        # Recovery promoted the interrupted admission; with the earlier
        # committed files it makes the resumed run strictly cheaper.
        assert out.recovery.rolled_forward == 1
        assert out.result.files_fetched < (
            out.result.files_fetched + out.result.cache_hits
        )

    def test_crash_at_virtual_instant(self, small_corpus, victim):
        testbed = _published(small_corpus)
        start = testbed.clock.now
        plan = CrashPlan(point=CrashPoint.MID_FETCH, at_s=start)
        crash = _crash_deploy(testbed, victim, plan)
        # Fires on the first mid-fetch checkpoint at/after the instant.
        assert crash.at_s >= start
        assert crash.op_index == 0

    def test_deploy_report_records_the_interruption(
        self, small_corpus, victim
    ):
        testbed = _published(small_corpus)
        plan = CrashPlan(point=CrashPoint.POST_FETCH, op_index=1)
        out = deploy_with_gear_resumable(testbed, victim, plan)
        reference = out.result.reference.replace("nginx:", "nginx.gear:")
        report = testbed.gear_driver.deploy_report(reference)
        assert report.crashed and report.resumed
        assert report.crash_point == "post-fetch"
        assert report.recovery_s == pytest.approx(out.recovery_s)
        assert report.recovered_files == 1


class TestCrashUnderScheduler:
    def test_crash_propagates_and_abort_cancels_survivors(
        self, small_corpus, victim
    ):
        # A node crash kills every process on it: the ClientCrash
        # surfaces from run(), then abort() models the power loss by
        # cancelling whatever the siblings still had scheduled.
        testbed = _published(small_corpus)
        driver = testbed.gear_driver
        driver.arm_crash(CrashPlan(point=CrashPoint.MID_FETCH, op_index=1))
        reference = victim.reference.replace("nginx:", "nginx.gear:")
        driver.pull_index(reference)
        scheduler = SimScheduler(testbed.clock)
        try:
            container = driver.create_container(reference)
            driver.start_container(container)

            def ticker():
                # Outlives the doomed startup task; only abort() stops it.
                while True:
                    yield 0.05

            def startup():
                from repro.workloads.tasks import task_for_category

                task = task_for_category(victim.category)
                task.run(testbed.clock, container.mount, victim.trace)

            scheduler.spawn(ticker())
            startup_proc = scheduler.spawn(startup, name="startup")
            with pytest.raises(ClientCrash):
                scheduler.run_until(startup_proc)
            assert scheduler.abort() > 0
        finally:
            scheduler.close()
        driver.disarm_crash()
        # The store is recoverable exactly as in the sequential case.
        report = driver.recover()
        assert report.torn_dropped == 1
        assert len(driver.journal) == 0
