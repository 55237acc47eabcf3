"""Link and RPC transport cost accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import TransportError
from repro.net.link import Link, TransferLog, TransferRecord
from repro.net.transport import RpcEndpoint, RpcTransport


def logged(records):
    """A transfer log holding ``records``, oldest first."""
    log = TransferLog()
    for record in records:
        log.append(*record)
    return log


class TestLink:
    def test_transfer_time_formula(self):
        clock = SimClock()
        link = Link(clock, bandwidth_mbps=8)
        # 8 Mbps = 1e6 bytes/s; 1e6 bytes -> 1 s payload + 2 ms fixed.
        assert link.transfer_time(1_000_000) == pytest.approx(1.002)

    def test_transfer_advances_clock_and_logs(self):
        clock = SimClock()
        link = Link(clock, bandwidth_mbps=8)
        duration = link.transfer(500_000, label="x")
        assert clock.now == pytest.approx(duration)
        assert link.log.total_bytes == 500_000
        assert link.log.total_requests == 1

    def test_zero_payload_request(self):
        clock = SimClock()
        link = Link(clock)
        link.transfer(0, "request")
        assert clock.now > 0
        assert link.log.total_bytes == 0

    def test_rejects_bad_parameters(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            Link(clock, bandwidth_mbps=0)
        with pytest.raises(ValueError):
            Link(clock).transfer(-1)

    def test_lower_bandwidth_is_slower(self):
        clock = SimClock()
        fast = Link(clock, bandwidth_mbps=904)
        slow = Link(clock, bandwidth_mbps=5)
        assert slow.transfer_time(10_000_000) > fast.transfer_time(10_000_000)

    def test_lan_link_default(self):
        # A link defaults to the paper's testbed: a measured 904 Mbps LAN.
        assert Link(SimClock()).bandwidth_mbps == 904

    def test_transfer_gen_matches_transfer(self):
        """Generator and call transfers replay the same schedule.

        Two identical contended scenarios — one with thread processes
        calling ``transfer``, one with generator processes delegating to
        ``transfer_gen`` — must land on the same virtual time and move
        the same bytes.
        """
        from repro.common.clock import SimScheduler

        def run(mode):
            clock = SimClock()
            link = Link(clock, bandwidth_mbps=8)
            sizes = (500_000, 250_000, 750_000)

            def client_call(size):
                clock.advance(0.01)
                link.transfer(size)

            def client_gen(size):
                yield 0.01
                yield from link.transfer_gen(size)

            target = client_gen if mode == "gen" else client_call
            with SimScheduler(clock) as scheduler:
                for size in sizes:
                    scheduler.spawn(target, size)
                scheduler.run()
            return clock.now, link.log.total_bytes, link.log.total_requests

        assert run("thread") == run("gen")


class TestTransferLog:
    def test_totals_are_running_counters(self):
        # The totals are maintained on append (no per-query re-summing);
        # they must still agree with a full walk of the records.
        clock = SimClock()
        link = Link(clock, bandwidth_mbps=8)
        for payload in (100, 2_000, 30_000):
            link.transfer(payload)
        log = link.log
        assert log.total_bytes == sum(r.payload_bytes for r in log.records)
        assert log.total_requests == len(log.records)

    def test_preseeded_records_counted(self):
        log = logged([
            TransferRecord(start=0.0, duration=1.5, payload_bytes=10, label="a"),
            TransferRecord(start=1.5, duration=0.5, payload_bytes=20, label="b"),
        ])
        assert log.total_bytes == 30
        assert sum(r.duration for r in log.records) == 2.0
        assert log.total_requests == 2
        assert log.records[1] == TransferRecord(1.5, 0.5, 20, "b")

    def test_records_are_flat_and_immutable(self):
        record = TransferRecord(start=1.5, duration=0.5, payload_bytes=20, label="b")
        assert record == TransferRecord(1.5, 0.5, 20, "b")
        assert record.start + record.duration == 2.0
        for name in ("start", "label", "anything_else"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert not hasattr(record, "__dict__")

    def test_a_deploy_keeps_two_records_per_rpc(
        self, published_testbed, small_corpus
    ):
        from repro.bench.deploy import deploy_with_gear

        bed = published_testbed
        endpoints = [
            bed.transport.endpoint(name)
            for name in ("docker-registry", "gear-registry")
        ]
        records_before = len(bed.link.log.records)
        calls_before = sum(endpoint.stats.calls for endpoint in endpoints)
        deploy_with_gear(bed, small_corpus.by_series["nginx"][0])
        calls = sum(endpoint.stats.calls for endpoint in endpoints) - calls_before
        records = bed.link.log.records[records_before:]
        assert calls > 0 and len(records) == 2 * calls
        assert [r.label.rsplit(":", 1)[1] for r in records] == [
            "request", "response"
        ] * calls


class TestTransferRecordsView:
    """``TransferLog.records`` reads the log's columns as a sequence of
    :class:`TransferRecord` (DESIGN.md §17)."""

    ROWS = [
        TransferRecord(0.0, 0.1, 10, "a"),
        TransferRecord(0.1, 0.25, 0, "b"),
        TransferRecord(0.35, 1.0 / 3.0, 2**31 + 7, "c"),
    ]

    def test_reads_like_a_list_of_records(self):
        records = logged(self.ROWS).records
        assert len(records) == 3
        assert records[0] == self.ROWS[0] and records[-1] == self.ROWS[2]
        assert records[1:] == self.ROWS[1:]
        assert records[::-1] == self.ROWS[::-1] == list(reversed(records))
        assert list(records) == self.ROWS
        assert records == self.ROWS and self.ROWS == records
        assert records != self.ROWS[:2]
        assert records != self.ROWS[:2] + self.ROWS[:1]
        assert self.ROWS[1] in records and records.index(self.ROWS[1]) == 1
        assert isinstance(records[0], TransferRecord)
        assert records[2].duration == self.ROWS[2].duration
        for index in (3, -4):
            with pytest.raises(IndexError):
                records[index]
        with pytest.raises(TypeError):
            hash(records)

    def test_floats_and_a_payload_past_two_gib_round_trip_exactly(self):
        (_, _, big) = logged(self.ROWS).records
        assert big.duration == 1.0 / 3.0 and big.payload_bytes == 2**31 + 7
        assert type(big.payload_bytes) is int and type(big.start) is float

    def test_the_view_is_live_and_an_epoch_is_read_from_a_mark(self):
        link = Link(SimClock(), bandwidth_mbps=8)
        records = link.log.records
        assert records == [] and len(records) == 0
        link.transfer(100, "x")
        assert [record.label for record in records] == ["x"]
        mark = len(records)
        bytes_before = link.log.total_bytes
        assert records[mark:] == [] and link.log.records[mark:] == []
        link.transfer(7, "y")
        assert link.log.records[mark:] == [
            TransferRecord(records[mark].start, link.transfer_time(7), 7, "y")
        ]
        assert link.log.total_bytes - bytes_before == 7
        assert link.log.total_requests - mark == 1
        # The log still holds the epoch before the mark.
        assert [record.label for record in records] == ["x", "y"]

    def test_two_links_sharing_a_log_fill_one_set_of_columns(self):
        # make_ha_testbed: every replica link accounts on the base log.
        clock = SimClock()
        base_link, replica_link = Link(clock), Link(clock, bandwidth_mbps=8)
        replica_link.log = base_link.log
        base_link.transfer(10, "base")
        replica_link.transfer(20, "replica")
        assert base_link.log.records == replica_link.log.records
        assert [(r.label, r.payload_bytes) for r in base_link.log.records] == [
            ("base", 10), ("replica", 20)
        ]
        assert base_link.log.total_bytes == 30

    @given(
        st.lists(
            st.one_of(
                st.none(),  # a reader takes a mark
                st.tuples(
                    st.floats(0, 1e6), st.floats(0, 1e3),
                    st.integers(0, 2**40), st.sampled_from("abc"),
                ),
            ),
            max_size=30,
        )
    )
    def test_any_append_and_mark_sequence_matches_a_list(self, steps):
        log, model, mark = TransferLog(), [], 0
        for step in steps:
            if step is None:
                mark = len(model)
            else:
                log.append(*step)
                model.append(TransferRecord(*step))
            assert log.records == model and list(log.records) == model
            assert log.records[mark:] == model[mark:]
            assert log.records[len(model) // 2:] == model[len(model) // 2:]
            assert log.total_requests == len(model)
            assert log.total_bytes == sum(r.payload_bytes for r in model)


class TestTransport:
    def make(self):
        clock = SimClock()
        link = Link(clock, bandwidth_mbps=8)
        transport = RpcTransport(link)
        endpoint = RpcEndpoint("svc")
        endpoint.register("echo", lambda value: (value, 1000))
        endpoint.register("free", lambda: (None, 0))
        transport.bind(endpoint)
        return clock, link, transport, endpoint

    def test_call_returns_handler_result(self):
        _, _, transport, _ = self.make()
        assert transport.call("svc", "echo", 42) == 42

    def test_call_charges_request_and_response(self):
        clock, link, transport, _ = self.make()
        transport.call("svc", "echo", 1)
        # Request frame (256 B) + response (1000 B), two transfers.
        assert link.log.total_requests == 2
        assert link.log.total_bytes == 256 + 1000

    def test_zero_byte_response_skips_transfer(self):
        _, link, transport, _ = self.make()
        transport.call("svc", "free")
        assert link.log.total_requests == 1

    def test_upload_payload_charged_on_request(self):
        _, link, transport, _ = self.make()
        transport.call("svc", "free", request_payload_bytes=5000)
        assert link.log.total_bytes == 256 + 5000

    def test_stats_accumulate(self):
        _, _, transport, endpoint = self.make()
        transport.call("svc", "echo", 1)
        transport.call("svc", "echo", 2)
        assert endpoint.stats.calls == 2
        assert endpoint.stats.response_bytes == 2000

    def test_has_endpoint(self):
        _, _, transport, _ = self.make()
        assert transport.has_endpoint("svc")
        assert not transport.has_endpoint("nope")

    def test_unknown_endpoint_and_method(self):
        _, _, transport, endpoint = self.make()
        with pytest.raises(TransportError):
            transport.call("nope", "echo", 1)
        with pytest.raises(TransportError):
            transport.call("svc", "nope")

    def test_duplicate_binding_rejected(self):
        _, _, transport, _ = self.make()
        with pytest.raises(TransportError):
            transport.bind(RpcEndpoint("svc"))

    def test_duplicate_method_rejected(self):
        endpoint = RpcEndpoint("e")
        endpoint.register("m", lambda: (None, 0))
        with pytest.raises(TransportError):
            endpoint.register("m", lambda: (None, 0))
