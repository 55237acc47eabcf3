"""Deployment harness: pull/run breakdowns and the paper's qualitative shapes."""

import pytest

from repro.baselines.slacker import SlackerDriver
from repro.bench.deploy import (
    DeploymentResult,
    deploy_with_docker,
    deploy_with_gear,
    deploy_with_gear_overlapped,
    deploy_with_slacker,
)
from repro.bench.environment import make_testbed, publish_images
from repro.gear.prefetch import TraceRecorder
from repro.net.faults import lossy_plan


class TestDocker:
    def test_breakdown(self, published_testbed, small_corpus):
        generated = small_corpus.get("nginx:v1")
        result = deploy_with_docker(published_testbed, generated)
        assert result.system == "docker"
        assert result.pull_s > 0
        assert result.run_s > 0
        assert result.network_bytes > generated.image.compressed_size * 0.9

    def test_pull_dominates_for_docker(self, published_testbed, small_corpus):
        # §V-E: Docker's pull phase is the long one.
        result = deploy_with_docker(published_testbed, small_corpus.get("tomcat:v1"))
        assert result.pull_s > result.run_s * 0.5


class TestGear:
    def test_pull_is_tiny_run_fetches(self, published_testbed, small_corpus):
        generated = small_corpus.get("nginx:v1")
        result = deploy_with_gear(published_testbed, generated)
        assert result.pull_s < 1.0
        assert result.files_fetched > 0
        assert result.network_bytes < generated.image.compressed_size

    def test_gear_moves_fewer_bytes(self, published_testbed, small_corpus):
        generated = small_corpus.get("tomcat:v1")
        docker = deploy_with_docker(
            published_testbed.fresh_client(), generated
        )
        gear = deploy_with_gear(published_testbed.fresh_client(), generated)
        assert gear.network_bytes < docker.network_bytes

    def test_gear_beats_docker_at_limited_bandwidth(self, small_corpus):
        # At high bandwidth the advantage shrinks (§V-E1); assert the win
        # where pulling dominates.
        bed = make_testbed(bandwidth_mbps=100)
        publish_images(bed, small_corpus.images)
        generated = small_corpus.get("tomcat:v1")
        docker = deploy_with_docker(bed.fresh_client(), generated)
        gear = deploy_with_gear(bed.fresh_client(), generated)
        assert gear.total_s < docker.total_s

    def test_cache_reduces_bytes_on_version_update(
        self, published_testbed, small_corpus
    ):
        bed = published_testbed
        first = deploy_with_gear(bed, small_corpus.get("tomcat:v1"))
        second = deploy_with_gear(bed, small_corpus.get("tomcat:v2"))
        assert second.cache_hits > 0
        assert second.network_bytes < first.network_bytes

    def test_clear_cache_forces_refetch(self, published_testbed, small_corpus):
        # The §V-D no-cache scenario: a fresh client whose cache is
        # emptied before the deployment re-downloads every file.
        bed = published_testbed
        deploy_with_gear(bed.fresh_client(), small_corpus.get("nginx:v1"))
        result = deploy_with_gear(
            bed.fresh_client(), small_corpus.get("nginx:v1"), clear_cache=True
        )
        assert result.files_fetched > 0
        assert result.cache_hits == 0

    def test_gear_run_longer_than_pull(self, published_testbed, small_corpus):
        # §V-E: "the pull phase of Gear is shorter … its run time is longer."
        result = deploy_with_gear(
            published_testbed.fresh_client(), small_corpus.get("tomcat:v1"),
            clear_cache=True,
        )
        assert result.run_s > result.pull_s


class TestSlacker:
    def test_breakdown(self, published_testbed, small_corpus):
        driver = SlackerDriver(published_testbed.clock, published_testbed.link)
        result = deploy_with_slacker(
            driver, published_testbed, small_corpus.get("nginx:v1")
        )
        assert result.system == "slacker"
        assert result.pull_s < 1.0
        assert result.network_bytes > 0

    def test_slacker_moves_more_bytes_than_gear(
        self, published_testbed, small_corpus
    ):
        # Blocks travel uncompressed with metadata amplification.
        generated = small_corpus.get("nginx:v1")
        gear = deploy_with_gear(
            published_testbed.fresh_client(), generated, clear_cache=True
        )
        driver = SlackerDriver(published_testbed.clock, published_testbed.link)
        slacker = deploy_with_slacker(driver, published_testbed, generated)
        assert slacker.network_bytes > gear.network_bytes


class TestBandwidthSweep:
    def test_gear_advantage_grows_as_bandwidth_drops(self, small_corpus):
        # Fig. 9: speedups 1.4× @904 → 5× @5 Mbps.
        speedups = []
        for bandwidth in (100, 5):
            bed = make_testbed(bandwidth_mbps=bandwidth)
            publish_images(bed, small_corpus.images)
            generated = small_corpus.get("tomcat:v1")
            docker = deploy_with_docker(bed.fresh_client(), generated)
            gear = deploy_with_gear(bed.fresh_client(), generated)
            speedups.append(docker.total_s / gear.total_s)
        assert speedups[1] > speedups[0] > 1.0


#: system -> the RPC endpoints whose retries and errors its result counts.
COUNTED = {
    "docker": ("docker-registry",),
    "gear": ("docker-registry", "gear-registry"),
    "gear+overlap": ("docker-registry", "gear-registry"),
    "slacker": (),
}


def _deployer(system, bed, corpus):
    """``deploy(client, generated)`` for one of the four helpers; the
    overlapped one replays startup profiles recorded on warm clients."""
    if system == "docker":
        return deploy_with_docker
    if system == "gear":
        return deploy_with_gear
    if system == "slacker":
        driver = SlackerDriver(bed.clock, bed.link)
        return lambda client, generated: deploy_with_slacker(
            driver, client, generated
        )
    recorder = TraceRecorder()
    for generated in corpus.by_series["nginx"][:2]:
        warm = bed.fresh_client()
        deploy_with_gear(warm, generated)
        recorder.record(
            generated.gear_reference, warm.gear_driver.containers()[-1].mount
        )
    return lambda client, generated: deploy_with_gear_overlapped(
        client, generated, recorder
    )


def _bed(small_corpus, fault_plan=None):
    bed = make_testbed(bandwidth_mbps=100, fault_plan=fault_plan)
    publish_images(bed, small_corpus.images)
    return bed


class TestOneProtocol:
    """All four helpers are one measured body: whatever the system, the
    result is the same reading of the same clock, log and counters."""

    @pytest.mark.parametrize(
        "fault_plan", [None, lossy_plan("protocol")], ids=["clean", "lossy"]
    )
    @pytest.mark.parametrize("system", COUNTED)
    def test_result_is_the_delta_of_clock_log_and_endpoints(
        self, system, fault_plan, small_corpus
    ):
        bed = _bed(small_corpus, fault_plan)
        deploy = _deployer(system, bed, small_corpus)
        client = bed.fresh_client()
        tracer = client.attach_tracer()
        log = client.link.log
        counted = [
            client.transport.endpoint(name).stats for name in COUNTED[system]
        ]

        def reading():
            return (
                client.clock.now,
                log.total_bytes,
                log.total_requests,
                sum(stats.retries for stats in counted),
                sum(stats.errors for stats in counted),
            )

        before = reading()
        result = deploy(client, small_corpus.get("nginx:v1"))
        elapsed, *deltas = (b - a for a, b in zip(before, reading()))

        assert result.system == system
        assert result.reference == "nginx:v1"
        # A prefetch tail may outlive the task that run_s ends with.
        if system == "gear+overlap":
            assert result.total_s <= elapsed + 1e-9
        else:
            assert result.total_s == pytest.approx(elapsed, abs=1e-9)
        assert 0 < result.ready_s <= result.total_s
        assert [
            result.network_bytes, result.network_requests,
            result.retries, result.errors,
        ] == deltas
        assert result.network_bytes > 0
        if fault_plan is not None and counted:
            assert result.retries > 0

        spans = tracer.finished_spans()
        (root,) = [span for span in spans if span.name == "deploy"]
        assert root.labels == {"system": system, "ref": "nginx:v1"}
        (task,) = [span for span in spans if span.name == "task"]
        assert task.parent_id == root.id
        assert root.start_s <= task.start_s <= task.end_s <= root.end_s

    def test_upgrade_results_are_pinned(self, small_corpus):
        """nginx v1 then v2 on one client at 100 Mbps, as every helper
        measured it before they shared a body (Slacker is reached by no
        gate row and no artifact)."""
        results = {}
        for system in COUNTED:
            bed = _bed(small_corpus)
            deploy = _deployer(system, bed, small_corpus)
            client = bed.fresh_client()
            deploy(client, small_corpus.get("nginx:v1"))
            results[system] = deploy(client, small_corpus.get("nginx:v2"))
        assert results == {
            "docker": DeploymentResult(
                system="docker", reference="nginx:v2",
                pull_s=0.39011995085227014, run_s=1.3930332397919258,
                network_bytes=755400, network_requests=6,
                files_fetched=2, cache_hits=2,
                ready_s=0.7474966364078206,
            ),
            "gear": DeploymentResult(
                system="gear", reference="nginx:v2",
                pull_s=0.6268195348674226, run_s=1.7079947975182215,
                network_bytes=116729, network_requests=40,
                files_fetched=18, cache_hits=25,
                ready_s=1.2991577781492687,
            ),
            "gear+overlap": DeploymentResult(
                system="gear+overlap", reference="nginx:v2",
                pull_s=0.6268195348674226, run_s=1.5679344756349671,
                network_bytes=116729, network_requests=40,
                files_fetched=18, cache_hits=30,
                ready_s=1.1590974562660143,
            ),
            "slacker": DeploymentResult(
                system="slacker", reference="nginx:v2",
                pull_s=0.5300000000000011, run_s=1.3850761197919503,
                network_bytes=2625536, network_requests=66,
                files_fetched=43, cache_hits=0,
                ready_s=0.8794195655555761,
            ),
        }
