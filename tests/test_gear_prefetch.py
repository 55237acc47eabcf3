"""Trace-driven prefetching extension."""

import pytest

from repro.bench.environment import make_testbed, publish_images
from repro.bench.deploy import deploy_with_gear, deploy_with_gear_overlapped
from repro.common.errors import GearError
from repro.gear.prefetch import Prefetcher, StartupProfile, TraceRecorder
from tests.conftest import image_of


@pytest.fixture
def env(small_corpus):
    testbed = make_testbed(bandwidth_mbps=100)
    publish_images(testbed, small_corpus.images, convert=True)
    return testbed, small_corpus


def deploy_and_run(testbed, corpus, reference="nginx:v1"):
    generated = image_of(corpus, reference)
    deploy_with_gear(testbed, generated)
    return testbed.gear_driver.containers()[-1], generated


class TestRecorder:
    def test_record_captures_touched_files(self, env):
        testbed, corpus = env
        container, generated = deploy_and_run(testbed, corpus)
        recorder = TraceRecorder()
        profile = recorder.record("nginx.gear:v1", container.mount)
        assert profile.entries  # the startup task touched files
        touched_paths = {path for path, _ in profile.entries}
        assert touched_paths <= set(
            container.mount.index.entries
        )
        assert recorder.profile_for("nginx.gear:v1") is profile
        assert len(recorder._profiles) == 1

    def test_profile_matches_trace_set(self, env):
        testbed, corpus = env
        container, generated = deploy_and_run(testbed, corpus)
        profile = TraceRecorder().record("nginx.gear:v1", container.mount)
        # Every profiled file must have been in the startup trace (the
        # task is the only reader).
        trace_paths = {path for path, _ in generated.trace.accesses}
        for path, _ in profile.entries:
            assert path in trace_paths

    def test_head_by_bytes(self):
        profile = StartupProfile(
            reference="r", entries=(("/a", 100), ("/b", 200), ("/c", 300))
        )
        assert profile.head_by_bytes(250).entries == (("/a", 100),)
        assert profile.head_by_bytes(300).entries == (("/a", 100), ("/b", 200))
        # Budget smaller than the first entry still returns one entry.
        assert profile.head_by_bytes(1).entries == (("/a", 100),)


class TestPrefetcher:
    def test_prefetch_eliminates_demand_fetches(self, env):
        testbed, corpus = env
        container, _ = deploy_and_run(testbed, corpus)
        recorder = TraceRecorder()
        recorder.record("nginx.gear:v1", container.mount)

        # A brand new client prefetches before running.
        fresh = testbed.fresh_client()
        fresh.gear_driver.pull_index("nginx.gear:v1")
        new_container = fresh.gear_driver.create_container("nginx.gear:v1")
        report = Prefetcher(recorder).prefetch(
            "nginx.gear:v1", new_container.mount
        )
        assert report.files_prefetched > 0

        fetches_before = new_container.mount.fault_stats.remote_fetches
        for path, _ in image_of(corpus, "nginx:v1").trace.accesses:
            new_container.mount.read_blob(path)
        assert (
            new_container.mount.fault_stats.remote_fetches == fetches_before
        )

    def test_prefetch_without_profile_is_noop(self, env):
        testbed, corpus = env
        testbed.gear_driver.pull_index("nginx.gear:v1")
        container = testbed.gear_driver.create_container("nginx.gear:v1")
        report = Prefetcher(TraceRecorder()).prefetch(
            "nginx.gear:v1", container.mount
        )
        assert report.files_prefetched == 0

    def test_byte_budget_caps_prefetch(self, env):
        testbed, corpus = env
        container, _ = deploy_and_run(testbed, corpus)
        recorder = TraceRecorder()
        profile = recorder.record("nginx.gear:v1", container.mount)

        fresh = testbed.fresh_client()
        fresh.gear_driver.pull_index("nginx.gear:v1")
        new_container = fresh.gear_driver.create_container("nginx.gear:v1")
        budget = profile.total_bytes // 4
        report = Prefetcher(recorder).prefetch(
            "nginx.gear:v1", new_container.mount, byte_budget=budget
        )
        assert 0 < report.files_prefetched < len(profile.entries)

    def test_prefetch_into_warm_cache_counts_hits(self, env):
        testbed, corpus = env
        container, _ = deploy_and_run(testbed, corpus)
        recorder = TraceRecorder()
        recorder.record("nginx.gear:v1", container.mount)
        # Same driver (shared pool): prefetch should be all cache hits.
        second = testbed.gear_driver.create_container("nginx.gear:v1")
        report = Prefetcher(recorder).prefetch("nginx.gear:v1", second.mount)
        # Files already linked into the shared index are not re-faulted;
        # anything faulted must have come from the pool, not the network.
        assert second.mount.fault_stats.remote_fetches == 0


class TestOverlappedPrefetch:
    def _recorded(self, env):
        testbed, corpus = env
        container, generated = deploy_and_run(testbed, corpus)
        recorder = TraceRecorder()
        recorder.record("nginx.gear:v1", container.mount)
        return testbed, generated, recorder

    def test_overlap_beats_demand_only_without_extra_bytes(self, small_corpus):
        # Slow wire so fetch latency dominates and the overlap is visible.
        testbed = make_testbed(bandwidth_mbps=20)
        publish_images(testbed, small_corpus.images, convert=True)
        testbed, generated, recorder = self._recorded((testbed, small_corpus))

        demand = deploy_with_gear(
            testbed.fresh_client(), generated, clear_cache=True
        )
        overlapped = deploy_with_gear_overlapped(
            testbed.fresh_client(), generated, recorder, clear_cache=True
        )
        assert overlapped.system == "gear+overlap"
        # Prefetch streams files while the task computes: strictly faster.
        assert overlapped.run_s < demand.run_s
        # The single-flight registry coalesces prefetch/demand races, so
        # no byte travels twice.
        assert overlapped.network_bytes == demand.network_bytes

    def test_overlap_without_profile_matches_demand(self, env):
        testbed, corpus = env
        generated = image_of(corpus, "nginx:v1")
        demand = deploy_with_gear(
            testbed.fresh_client(), generated, clear_cache=True
        )
        overlapped = deploy_with_gear_overlapped(
            testbed.fresh_client(), generated, TraceRecorder(),
            clear_cache=True,
        )
        # No profile -> nothing to overlap; costs are the seed's.
        assert overlapped.run_s == demand.run_s
        assert overlapped.network_bytes == demand.network_bytes

    def test_spawn_prefetch_requires_scheduler(self, env):
        testbed, generated, recorder = self._recorded(env)
        driver = testbed.fresh_client().gear_driver
        driver.pull_index("nginx.gear:v1")
        container = driver.create_container("nginx.gear:v1")
        with pytest.raises(GearError):
            driver.spawn_prefetch(
                container, recorder.profile_for("nginx.gear:v1")
            )

