"""The host-clock budgets of the telemetry planes — the only assertions
outside the perf ledger that read wall or CPU time.

Both planes follow a null-object discipline: detached, ``clock.span``
returns a shared null span and the timeline sampler has no process, so
instrumentation sits unguarded in every hot path.  What that costs is a
host-time question, which ``src/repro`` may not ask and tier-1 must not
depend on; the budgets wait here, thresholds as they were, until ledger
v2 adopts them as an ``obs`` layer on ``wave`` (ROADMAP 1(e)).  Every
virtual-time property of the planes is held by tier-1
(``tests/test_obs_trace.py``, ``tests/test_readiness_golden.py``).

Run by hand: ``PYTHONPATH=src python -m pytest benchmarks/test_host_clock.py``.
"""

import gc
import time

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_timeline_sampler, publish_images
from repro.common.clock import SimClock
from repro.net.topology import Cluster
from repro.obs import NULL_TIMELINE
from repro.workloads.corpus import CorpusBuilder, CorpusConfig

#: Detached calls per timing loop.
CALLS = 200_000
#: Wall-clock budget per detached call: generous even for slow CI boxes;
#: a real regression (allocation, tracer work) blows through it by 10x.
DETACHED_BUDGET_S = 5e-6
#: Instrumented wave CPU-time ceiling relative to the plain wave.
INSTRUMENTED_WALL_CEILING = 1.15
#: Fleet shape: big enough that the wave dominates the measurement.
CLIENTS = 8
BANDWIDTH_MBPS = 120


@pytest.fixture(scope="module")
def nginx():
    config = CorpusConfig(seed=7, file_scale=0.3, size_scale=0.25,
                          series_names=("nginx",), versions_cap=1)
    return CorpusBuilder(config).build().by_series["nginx"][0]


def _per_call(call) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        call()
    return (time.perf_counter() - start) / CALLS


def test_detached_span_is_free():
    span = SimClock().span  # the call sites' cost, minus attribute lookup

    def detached():
        with span("fetch_file", fp="abcdef123456"):
            pass

    per_call = _per_call(detached)
    assert per_call < DETACHED_BUDGET_S, (
        f"detached clock.span costs {per_call:.2e} s/call"
    )


def test_detached_sampler_op_is_free():
    record = NULL_TIMELINE.record  # the hot one
    per_call = _per_call(lambda: record("ready_s", 1.0, 0.5))
    assert per_call < DETACHED_BUDGET_S, (
        f"detached sampler op costs {per_call:.2e} s/call"
    )


def _wave_cpu_s(generated, *, instrumented: bool) -> float:
    cluster = Cluster(CLIENTS, bandwidth_mbps=BANDWIDTH_MBPS)
    publish_images(cluster.registry_testbed, [generated], convert=True)
    sampler = None
    if instrumented:
        cluster.registry_testbed.attach_tracer()
        sampler = make_timeline_sampler(
            cluster.registry_testbed, seed="bench-slo"
        )
    # CPU time, not wall: the gate bounds the instrumentation's *work*,
    # and process_time is immune to machine scheduling pauses that make
    # ~50 ms wall measurements flap.  GC is paused so a collection
    # landing inside one variant doesn't masquerade as overhead.
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        cluster.deploy_wave(
            lambda node: deploy_with_gear(node.testbed, generated,
                                          clear_cache=True),
            sampler=sampler,
        )
        return time.process_time() - start
    finally:
        gc.enable()


def test_instrumented_wave_stays_within_the_ceiling(nginx):
    # Best-of-three per variant damps scheduler warm-up and timer noise.
    plain, instrumented = [], []
    for _ in range(3):
        plain.append(_wave_cpu_s(nginx, instrumented=False))
        instrumented.append(_wave_cpu_s(nginx, instrumented=True))
    ratio = min(instrumented) / min(plain)
    assert ratio < INSTRUMENTED_WALL_CEILING, (
        f"instrumented wave costs {ratio:.2f}x the plain wave"
    )
