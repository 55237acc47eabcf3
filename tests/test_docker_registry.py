"""Registry behaviour: layer dedup, manifests, RPC surface."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.docker.builder import ImageBuilder
from repro.docker.registry import DockerRegistry
from repro.net.link import Link
from repro.net.transport import RpcTransport
from tests.test_docker_image import layer_from_files


def make_images():
    base = ImageBuilder("debian", "v1").add_file("/b", b"base" * 100).build()
    child = ImageBuilder("nginx", "v1", base=base).add_file("/n", b"ngx" * 100).build()
    return base, child


class TestPush:
    def test_layer_dedup_on_push(self):
        registry = DockerRegistry()
        base, child = make_images()
        assert registry.push_image(base) == (1, 0)
        # Child shares the base layer: only its own layer travels.
        assert registry.push_image(child) == (1, 1)
        assert registry.layer_count == 2
        assert registry.has_manifest(base.reference)
        assert registry.has_manifest(child.reference)

    def test_manifest_requires_layers_present(self):
        registry = DockerRegistry()
        base, _ = make_images()
        with pytest.raises(NotFoundError):
            registry.push_manifest(base.manifest())

    def test_repush_same_image_stores_nothing_new(self):
        registry = DockerRegistry()
        base, _ = make_images()
        registry.push_image(base)
        before = registry.stored_bytes
        registry.push_image(base)
        assert registry.stored_bytes == before


class TestPull:
    def test_get_manifest_and_layer(self):
        registry = DockerRegistry()
        base, _ = make_images()
        registry.push_image(base)
        manifest = registry.get_manifest("debian:v1")
        layer = registry.get_layer(manifest.layer_digests[0])
        assert layer.digest == base.layers[0].digest

    def test_missing_lookups_raise(self):
        registry = DockerRegistry()
        with pytest.raises(NotFoundError):
            registry.get_manifest("nope:v1")
        layer = layer_from_files([("/x", b"y")])
        with pytest.raises(NotFoundError):
            registry.get_layer(layer.digest)


class TestAccounting:
    def test_stored_bytes_is_compressed_plus_manifests(self):
        registry = DockerRegistry()
        base, _ = make_images()
        registry.push_image(base)
        expected = base.layers[0].compressed_size + base.manifest().size_bytes
        assert registry.stored_bytes == expected


class TestRpcSurface:
    def test_endpoint_roundtrip_charges_bytes(self):
        clock = SimClock()
        link = Link(clock, bandwidth_mbps=904)
        transport = RpcTransport(link)
        registry = DockerRegistry()
        transport.bind(registry.endpoint())
        base, _ = make_images()
        registry.push_image(base)

        manifest = transport.call(
            DockerRegistry.ENDPOINT_NAME, "get_manifest", "debian:v1"
        )
        layer = transport.call(
            DockerRegistry.ENDPOINT_NAME, "get_layer", manifest.layer_digests[0]
        )
        assert layer.digest == base.layers[0].digest
        # Response bytes: manifest size + compressed layer size.
        assert link.log.total_bytes >= manifest.size_bytes + layer.compressed_size

    def test_has_layer_over_rpc(self):
        clock = SimClock()
        transport = RpcTransport(Link(clock))
        registry = DockerRegistry()
        transport.bind(registry.endpoint())
        base, _ = make_images()
        assert not transport.call(
            DockerRegistry.ENDPOINT_NAME, "has_layer", base.layers[0].digest
        )
        registry.push_image(base)
        assert transport.call(
            DockerRegistry.ENDPOINT_NAME, "has_layer", base.layers[0].digest
        )
