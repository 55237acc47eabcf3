"""Integration: deployment schedules driven through the real systems."""

import pytest

from repro.bench.deploy import deploy_with_docker, deploy_with_gear
from repro.bench.environment import make_testbed, publish_images
from repro.workloads.schedule import ScheduleBuilder


@pytest.fixture
def scheduled_env(small_corpus):
    testbed = make_testbed(bandwidth_mbps=100)
    publish_images(testbed, small_corpus.images, convert=True)
    schedule = ScheduleBuilder(small_corpus).popularity_stream(15, skew=1.2)
    return testbed, schedule


class TestScheduledDeployments:
    def test_repeats_cost_nothing_under_gear(self, scheduled_env):
        testbed, schedule = scheduled_env
        repeat_bytes = []
        first_bytes = []
        for event in schedule:
            result = deploy_with_gear(testbed, event.image)
            (repeat_bytes if event.is_repeat else first_bytes).append(
                result.network_bytes
            )
        if repeat_bytes and first_bytes:
            # Re-deploying a known reference reuses the local index and
            # every cached file: near-zero traffic.
            assert max(repeat_bytes) < min(
                b for b in first_bytes if b > 0
            )

    def test_gear_total_traffic_below_docker(self, small_corpus):
        schedule_source = ScheduleBuilder(small_corpus)
        schedule = schedule_source.popularity_stream(12, skew=1.2)

        docker_bed = make_testbed(bandwidth_mbps=100)
        publish_images(docker_bed, small_corpus.images, convert=True)
        docker_traffic = 0
        for event in schedule:
            docker_traffic += deploy_with_docker(
                docker_bed, event.image
            ).network_bytes

        gear_bed = make_testbed(bandwidth_mbps=100)
        publish_images(gear_bed, small_corpus.images, convert=True)
        gear_traffic = 0
        for event in schedule:
            gear_traffic += deploy_with_gear(
                gear_bed, event.image
            ).network_bytes

        assert gear_traffic < docker_traffic * 0.7

    def test_version_drift_pulls_only_deltas(self, small_corpus):
        """Rolling one series forward: each new version's traffic is far
        below a cold deployment of the same version."""
        testbed = make_testbed(bandwidth_mbps=100)
        publish_images(testbed, small_corpus.images, convert=True)
        versions = small_corpus.by_series["tomcat"]
        traffics = [
            deploy_with_gear(testbed, image).network_bytes for image in versions
        ]
        cold_bed = make_testbed(bandwidth_mbps=100)
        publish_images(cold_bed, small_corpus.images, convert=True)
        cold = deploy_with_gear(cold_bed, versions[-1]).network_bytes
        assert traffics[-1] < cold * 0.8

    def test_schedule_is_replayable_across_systems(self, small_corpus):
        builder = ScheduleBuilder(small_corpus)
        a = builder.popularity_stream(20)
        b = builder.popularity_stream(20)
        assert [e.image.reference for e in a] == [
            e.image.reference for e in b
        ]
