"""Task models driving startup traces."""

import pytest

from repro.blob import Blob
from repro.blob import blob as blob_module
from repro.common.clock import SimClock
from repro.vfs.overlay import OverlayMount
from repro.vfs.tree import FileSystemTree
from repro.workloads.access import AccessTrace
from repro.workloads.tasks import TaskModel, task_for_category


def make_mount_and_trace():
    tree = FileSystemTree()
    tree.write_file("/bin/app", b"x" * 10_000, parents=True)
    tree.write_file("/etc/conf", b"y" * 500, parents=True)
    mount = OverlayMount([tree.freeze()])
    trace = AccessTrace(
        reference="app:v1",
        accesses=(("/bin/app", 10_000), ("/etc/conf", 500)),
        compute_s=0.5,
    )
    return mount, trace


class TestTaskRun:
    def test_reads_all_trace_files(self):
        clock = SimClock()
        mount, trace = make_mount_and_trace()
        result = task_for_category("Linux Distro").run(clock, mount, trace)
        assert result.files_read == 2
        assert result.bytes_read == 10_500

    def test_advances_clock_by_at_least_compute(self):
        clock = SimClock()
        mount, trace = make_mount_and_trace()
        result = task_for_category("Linux Distro").run(clock, mount, trace)
        assert result.duration_s >= trace.compute_s
        assert clock.now == pytest.approx(result.duration_s)

    def test_write_categories_write_files(self):
        clock = SimClock()
        mount, trace = make_mount_and_trace()
        task = task_for_category("Database")
        result = task.run(clock, mount, trace)
        assert result.bytes_written == task.writes * task.write_bytes
        assert mount.exists("/var/run/task-0.out")

    def test_a_payload_is_hashed_once_for_every_mount(self, monkeypatch):
        task = task_for_category("Database")
        runs = [make_mount_and_trace() for _ in range(2)]
        task._payload  # minted once, before counting starts
        hashed = []
        fingerprint_bytes = blob_module.fingerprint_bytes
        monkeypatch.setattr(
            blob_module, "fingerprint_bytes",
            lambda data: hashed.append(data) or fingerprint_bytes(data),
        )
        for mount, trace in runs:
            task.run(SimClock(), mount, trace)
        assert hashed == []
        first, second = (mount.read_blob("/var/run/task-0.out") for mount, _ in runs)
        assert first is second
        assert first.fingerprint == Blob.from_bytes(b"x" * 65536).fingerprint

    def test_unknown_category_raises(self):
        with pytest.raises(KeyError):
            task_for_category("Mystery")

    def test_every_catalog_category_has_task(self):
        from repro.workloads.series import CATEGORIES

        for category in CATEGORIES:
            assert task_for_category(category).category == category


class TestAccessTrace:
    def test_aggregates(self):
        trace = AccessTrace("r", (("/a", 10), ("/b", 20)), compute_s=1.0)
        assert trace.file_count == 2

    def test_head(self):
        trace = AccessTrace("r", (("/a", 10), ("/b", 20)), compute_s=1.0)
        assert trace.head(1).accesses == (("/a", 10),)
