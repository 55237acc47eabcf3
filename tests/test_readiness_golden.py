"""Readiness instrumentation is behavior-neutral (golden invariants).

Two guarantees ride this suite:

* *Neutrality* — attaching the timeline sampler must not move a single
  virtual timestamp of the observed work: per-client deploy latencies,
  readiness instants, byte counts, and the wave makespan are identical
  with the sampler attached and detached, and a detached run is
  byte-identical run to run (the detached code path spawns no process,
  so it *is* the pre-instrumentation code path).
* *Ordering* — ``time_to_ready`` is a real milestone inside the deploy:
  ``0 < ready_s <= total_s`` for every system across the Fig. 9-style
  series × bandwidth grid, and under Gear the gap is the write/compute
  tail the paper's startup task performs after its read set.
"""

import pytest

from repro.bench.deploy import (
    deploy_with_docker,
    deploy_with_gear,
    deploy_with_gear_overlapped,
)
from repro.bench.environment import (
    make_testbed,
    make_timeline_sampler,
    publish_images,
)
from repro.gear.prefetch import TraceRecorder
from repro.net.topology import Cluster
from tests.conftest import image_of


def _fleet_wave(small_corpus, *, attach):
    generated = image_of(small_corpus, "nginx:v1")
    cluster = Cluster(4, bandwidth_mbps=120)
    publish_images(cluster.registry_testbed, [generated], convert=True)
    sampler = None
    if attach:
        sampler = make_timeline_sampler(
            cluster.registry_testbed, seed="golden"
        )
    wave = cluster.deploy_wave(
        lambda node: deploy_with_gear(node.testbed, generated,
                                      clear_cache=True),
        sampler=sampler,
    )
    return wave, sampler


class TestSamplerNeutrality:
    def test_attached_run_matches_detached_run(self, small_corpus):
        detached, _ = _fleet_wave(small_corpus, attach=False)
        attached, sampler = _fleet_wave(small_corpus, attach=True)
        assert attached.latencies_s == detached.latencies_s
        assert attached.ready_s == detached.ready_s
        assert attached.egress_bytes == detached.egress_bytes
        assert attached.makespan_s == detached.makespan_s
        # The attached run actually observed something.
        assert sampler.stats.samples > 0
        assert len(sampler.series_for("ready_s").points) == 4

    def test_detached_run_is_replay_identical(self, small_corpus):
        first, _ = _fleet_wave(small_corpus, attach=False)
        second, _ = _fleet_wave(small_corpus, attach=False)
        assert first.as_dict() == second.as_dict()

    def test_single_deploy_unmoved_by_instrumentation(self, small_corpus):
        # The readiness instant inside the task is free when no tracer
        # is attached: two seeded single-node deploys agree to the bit.
        results = []
        for _ in range(2):
            bed = make_testbed(bandwidth_mbps=120)
            publish_images(bed, small_corpus.images, convert=True)
            results.append(
                deploy_with_gear(bed.fresh_client(),
                                 image_of(small_corpus, "tomcat:v1"),
                                 clear_cache=True)
            )
        first, second = results
        assert first.total_s == second.total_s
        assert first.ready_s == second.ready_s


class TestReadyOrdering:
    @pytest.mark.parametrize("bandwidth", (904, 100, 20))
    @pytest.mark.parametrize("reference", ("nginx:v1", "tomcat:v1"))
    def test_ready_within_deploy_across_grid(
        self, small_corpus, bandwidth, reference
    ):
        # Fig. 9's grid shape: series × bandwidth, both systems.
        bed = make_testbed(bandwidth_mbps=bandwidth)
        publish_images(bed, small_corpus.images, convert=True)
        generated = image_of(small_corpus, reference)
        docker = deploy_with_docker(bed.fresh_client(), generated)
        gear = deploy_with_gear(bed.fresh_client(), generated,
                                clear_cache=True)
        for result in (docker, gear):
            assert 0.0 < result.ready_s <= result.total_s
        # Docker is ready only after the full pull completed.
        assert docker.ready_s > docker.pull_s

    def test_overlapped_ready_beats_docker_pull(self, small_corpus):
        # The acceptance shape: with prefetch overlapping the startup
        # task on a slow wire, the service is ready strictly before a
        # docker-style full pull would complete.
        bed = make_testbed(bandwidth_mbps=20)
        publish_images(bed, small_corpus.images, convert=True)
        generated = image_of(small_corpus, "nginx:v1")
        warm = bed.fresh_client()
        deploy_with_gear(warm, generated)
        recorder = TraceRecorder()
        recorder.record(
            "nginx.gear:v1", warm.gear_driver.containers()[-1].mount
        )
        docker = deploy_with_docker(bed.fresh_client(), generated)
        overlapped = deploy_with_gear_overlapped(
            bed.fresh_client(), generated, recorder, clear_cache=True
        )
        assert 0.0 < overlapped.ready_s <= overlapped.total_s
        assert overlapped.ready_s < docker.pull_s

    def test_wave_ready_tuple_tracks_node_order(self, small_corpus):
        wave, _ = _fleet_wave(small_corpus, attach=False)
        assert len(wave.ready_s) == len(wave.latencies_s)
        for ready, latency in zip(wave.ready_s, wave.latencies_s):
            assert 0.0 < ready <= latency
        assert wave.ready_p50_s <= wave.ready_p99_s <= wave.ready_p999_s
        assert wave.ready_p99_s <= wave.p99_s
