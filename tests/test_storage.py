"""Disk models and the content-addressed object store."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError, StorageError
from repro.storage.disk import Disk, DiskProfile, HDD, SSD
from repro.storage.objectstore import ObjectStore


class TestDisk:
    def test_read_time_formula(self):
        clock = SimClock()
        disk = Disk(clock, DiskProfile(name="t", sequential_bps=100.0, per_file_op_s=0.5))
        assert disk.read_time(200, file_ops=2) == pytest.approx(3.0)

    def test_read_advances_clock(self):
        clock = SimClock()
        disk = Disk(clock, HDD)
        duration = disk.read(1_000_000, file_ops=3)
        assert clock.now == pytest.approx(duration)
        assert disk.bytes_read == 1_000_000
        assert disk.file_ops == 3

    def test_write_accounting(self):
        clock = SimClock()
        disk = Disk(clock, SSD)
        disk.write(500, file_ops=1)
        assert disk.bytes_written == 500

    def test_metadata_op(self):
        clock = SimClock()
        disk = Disk(clock, HDD)
        disk.metadata_op()
        assert clock.now == pytest.approx(HDD.per_file_op_s) and disk.file_ops == 1

    def test_ssd_is_faster_than_hdd(self):
        clock = SimClock()
        assert Disk(clock, SSD).read_time(10**9, 1000) < Disk(clock, HDD).read_time(
            10**9, 1000
        )

    def test_rejects_negative(self):
        disk = Disk(SimClock(), HDD)
        with pytest.raises(ValueError):
            disk.read(-1)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DiskProfile(name="bad", sequential_bps=0, per_file_op_s=0)
        with pytest.raises(ValueError):
            DiskProfile(name="bad", sequential_bps=1, per_file_op_s=-1)


class TestObjectStore:
    def test_upload_query_download(self):
        store = ObjectStore()
        assert store.upload("k1", "payload", size=100, stored_size=40)
        assert store.query("k1")
        record, payload = store.download("k1")
        assert payload == "payload"
        assert record.size == 100
        assert record.stored_size == 40

    def test_duplicate_upload_is_dedup(self):
        store = ObjectStore()
        store.upload("k", "a", size=10)
        assert not store.upload("k", "b", size=10)
        assert store.download("k")[1] == "a"  # first write wins
        assert store.object_count == 1

    def test_missing_download_raises(self):
        with pytest.raises(NotFoundError):
            ObjectStore().download("nope")

    def test_delete(self):
        store = ObjectStore()
        store.upload("k", "v", size=1)
        store.delete("k")
        assert not store.query("k")
        with pytest.raises(NotFoundError):
            store.delete("k")

    def test_totals(self):
        store = ObjectStore()
        store.upload("a", None, size=100, stored_size=30)
        store.upload("b", None, size=200, stored_size=60)
        assert store.total_stored_size == 90
        assert len(store) == 2

    def test_stored_size_defaults_to_size(self):
        store = ObjectStore()
        store.upload("a", None, size=100)
        assert store.stat("a").stored_size == 100

    def test_negative_size_rejected(self):
        with pytest.raises(StorageError):
            ObjectStore().upload("a", None, size=-1)

    def test_contains(self):
        store = ObjectStore()
        store.upload("x", None, size=1)
        assert store.query("x")
        assert not store.query("y")
