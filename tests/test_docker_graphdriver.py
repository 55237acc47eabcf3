"""Overlay2 graph driver: layer store and mount construction."""

import pytest

from repro.common.errors import NotFoundError
from repro.docker.builder import ImageBuilder
from repro.docker.graphdriver import Overlay2Driver
from repro.docker.image import Image
from repro.vfs.tar import LayerArchive
from tests.test_docker_image import layer_from_files


def make_image():
    base = ImageBuilder("base", "v1").add_file("/low", b"low").build()
    return (
        ImageBuilder("app", "v1", base=base)
        .add_file("/high", b"high")
        .build()
    )


class TestLayerStore:
    def test_register_and_lookup(self):
        driver = Overlay2Driver()
        layer = layer_from_files([("/a", b"x")])
        assert driver.register_layer(layer)
        assert driver.has_layer(layer.digest)
        assert driver.get_layer(layer.digest) is layer

    def test_register_is_idempotent(self):
        driver = Overlay2Driver()
        layer = layer_from_files([("/a", b"x")])
        driver.register_layer(layer)
        assert not driver.register_layer(layer)
        assert driver.get_layer(layer.digest) is layer

    def test_missing_layer_raises(self):
        driver = Overlay2Driver()
        layer = layer_from_files([("/a", b"x")])
        with pytest.raises(NotFoundError):
            driver.get_layer(layer.digest)
        with pytest.raises(NotFoundError):
            driver.diff_tree(layer.digest)


@pytest.fixture
def unpacks(monkeypatch):
    """Every archive ``LayerArchive._extract_diff_uncached`` unpacks."""
    seen = []
    unpack = LayerArchive._extract_diff_uncached

    def counting(self):
        seen.append(self)
        return unpack(self)

    monkeypatch.setattr(LayerArchive, "_extract_diff_uncached", counting)
    return seen


def unpacked_image():
    """Two layers whose archives nothing has unpacked yet (an
    ``ImageBuilder`` on a base unpacks the base to build on it)."""
    return Image(
        "app", "v1",
        [layer_from_files([("/low", b"low")]), layer_from_files([("/high", b"high")])],
    )


class TestUnpackAtFirstMount:
    def test_register_unpacks_nothing(self, unpacks):
        driver = Overlay2Driver()
        for layer in unpacked_image().layers:
            driver.register_layer(layer)
        assert unpacks == []

    def test_first_mount_unpacks_each_layer_once(self, unpacks):
        driver = Overlay2Driver()
        image = unpacked_image()
        for layer in image.layers:
            driver.register_layer(layer)
        driver.mount(image)
        driver.mount(image)
        assert sorted(map(id, unpacks)) == sorted(id(l.archive) for l in image.layers)


class TestMount:
    def test_mount_requires_all_layers(self):
        driver = Overlay2Driver()
        image = make_image()
        with pytest.raises(NotFoundError):
            driver.mount(image)

    def test_mount_merges_layers_top_first(self):
        driver = Overlay2Driver()
        image = make_image()
        for layer in image.layers:
            driver.register_layer(layer)
        mount = driver.mount(image)
        assert mount.read_bytes("/low") == b"low"
        assert mount.read_bytes("/high") == b"high"
        assert driver.mounts_created == 1

    def test_mounts_share_diff_trees(self):
        driver = Overlay2Driver()
        image = make_image()
        for layer in image.layers:
            driver.register_layer(layer)
        a = driver.mount(image)
        b = driver.mount(image)
        assert a.lowers[0] is b.lowers[0]

    def test_mount_lowers_are_read_only(self):
        driver = Overlay2Driver()
        image = make_image()
        for layer in image.layers:
            driver.register_layer(layer)
        mount = driver.mount(image)
        assert all(lower.read_only for lower in mount.lowers)

    def test_whiteout_layer_hides_lower_in_mount(self):
        base = ImageBuilder("base", "v1").add_file("/doomed", b"x").build()
        removing = ImageBuilder("app", "v1", base=base).remove("/doomed").build()
        driver = Overlay2Driver()
        for layer in removing.layers:
            driver.register_layer(layer)
        mount = driver.mount(removing)
        assert not mount.exists("/doomed")
