"""Gear Registry: the three verbs, dedup, compression accounting, RPC."""

import pytest

from repro.blob import Blob
from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.gear.gearfile import GearFile
from repro.gear.registry import GearRegistry
from repro.net.link import Link
from repro.net.transport import RpcTransport


def gear_file(content=b"payload" * 100):
    return GearFile.from_blob(Blob.from_bytes(content))


class TestVerbs:
    def test_query_upload_download(self):
        registry = GearRegistry()
        gf = gear_file()
        assert not registry.query(gf.identity)
        assert registry.upload(gf)
        assert registry.query(gf.identity)
        assert registry.download(gf.identity).blob == gf.blob

    def test_upload_dedups_by_identity(self):
        registry = GearRegistry()
        gf = gear_file()
        registry.upload(gf)
        assert not registry.upload(gear_file())
        assert registry.file_count == 1

    def test_download_missing_raises(self):
        with pytest.raises(NotFoundError):
            GearRegistry().download("nope")


class TestAccounting:
    def test_compressed_storage(self):
        registry = GearRegistry()
        gf = gear_file(b"z" * 100_000)
        registry.upload(gf)
        assert registry.stored_bytes == gf.compressed_size < gf.size


class TestRpc:
    def make(self):
        clock = SimClock()
        link = Link(clock, bandwidth_mbps=904)
        transport = RpcTransport(link)
        registry = GearRegistry()
        transport.bind(registry.endpoint())
        return link, transport, registry

    def test_download_charges_compressed_bytes(self):
        link, transport, registry = self.make()
        gf = gear_file(b"q" * 50_000)
        registry.upload(gf)
        fetched = transport.call(GearRegistry.ENDPOINT_NAME, "download", gf.identity)
        assert fetched.identity == gf.identity
        assert link.log.total_bytes >= gf.compressed_size

    def test_query_and_upload_over_rpc(self):
        _, transport, registry = self.make()
        gf = gear_file()
        assert not transport.call(GearRegistry.ENDPOINT_NAME, "query", gf.identity)
        transport.call(
            GearRegistry.ENDPOINT_NAME, "upload", gf,
            request_payload_bytes=gf.compressed_size,
        )
        assert registry.query(gf.identity)

    def test_chunk_map_and_chunk_download(self):
        link, transport, registry = self.make()
        gf = GearFile.from_blob(Blob.synthetic("big", 128 * 1024 * 4))
        registry.upload(gf)
        blob = transport.call(GearRegistry.ENDPOINT_NAME, "chunk_map", gf.identity)
        assert len(blob.chunks) == 4
        chunk = transport.call(
            GearRegistry.ENDPOINT_NAME, "download_chunk", gf.identity, 2
        )
        assert chunk.token == blob.chunks[2].token

    def test_chunk_download_out_of_range(self):
        _, transport, registry = self.make()
        gf = gear_file()
        registry.upload(gf)
        with pytest.raises(NotFoundError):
            transport.call(
                GearRegistry.ENDPOINT_NAME, "download_chunk", gf.identity, 99
            )
