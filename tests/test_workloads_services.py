"""Service workloads for the Fig. 11 experiments."""

import pytest

from repro.common.clock import SimClock
from repro.vfs.overlay import OverlayMount
from repro.vfs.tree import FileSystemTree
from repro.workloads.access import AccessTrace
from repro.workloads.services import (
    REQUESTS,
    SERVICES,
    run_service,
)

BY_NAME = {spec.name: spec for spec in SERVICES}


def make_env(file_count=50):
    tree = FileSystemTree()
    accesses = []
    for index in range(file_count):
        path = f"/srv/f{index:03d}"
        tree.write_file(path, bytes([index % 251]) * 2000, parents=True)
        accesses.append((path, 2000))
    mount = OverlayMount([tree.freeze()])
    trace = AccessTrace("svc:v1", tuple(accesses), compute_s=1.0)
    return mount, trace


class TestSpecs:
    def test_paper_services_present(self):
        names = {spec.name for spec in SERVICES}
        assert names == {"redis", "memcached", "nginx", "httpd"}

    def test_databases_have_set_get_ratio(self):
        # memtier 1:10 SET-GET -> ~9% writes.
        assert BY_NAME["redis"].write_fraction == pytest.approx(0.09)


class TestRun:
    def test_throughput_positive_and_deterministic(self):
        mount, trace = make_env()
        clock = SimClock()
        result = run_service(clock, mount, trace, BY_NAME["nginx"])
        assert result.requests == REQUESTS
        assert result.requests_per_second > 0

        mount2, trace2 = make_env()
        clock2 = SimClock()
        result2 = run_service(clock2, mount2, trace2, BY_NAME["nginx"])
        assert result2.duration_s == pytest.approx(result.duration_s)

    def test_writes_land_in_writable_layer(self):
        mount, trace = make_env()
        run_service(SimClock(), mount, trace, BY_NAME["redis"])
        written = [p for p, _ in mount.upper.iter_files()]
        assert written  # SETs persisted

    def test_short_trace_rejected(self):
        mount, _ = make_env()
        empty = AccessTrace("x", (), compute_s=0.1)
        with pytest.raises(ValueError):
            run_service(SimClock(), mount, empty, BY_NAME["redis"])

    def test_steady_state_rate_independent_of_mount_depth(self):
        # The Fig. 11a claim: once resident, Gear's extra layer costs ~0.
        mount, trace = make_env()
        clock = SimClock()
        first = run_service(clock, mount, trace, BY_NAME["httpd"])
        second = run_service(clock, mount, trace, BY_NAME["httpd"])
        # Identical warm runs take identical time.
        assert second.duration_s == pytest.approx(first.duration_s, rel=0.05)
