"""DupHunter-style and layer-restructuring baselines (§VI-A)."""

import pytest

from repro.baselines.duphunter import DupHunterRegistry
from repro.baselines.layerpack import pack_layers
from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.docker.builder import ImageBuilder


def version_chain(n=4):
    base = ImageBuilder("base", "v1").add_file("/shared", b"common" * 2000).build()
    images = []
    for index in range(n):
        images.append(
            ImageBuilder("app", f"v{index + 1}", base=base)
            .add_file("/app/bin", f"release {index}".encode() * 800)
            .add_file("/app/lib.so", b"stable library" * 900)
            .build()
        )
    return images


class TestDupHunter:
    def make(self):
        clock = SimClock()
        registry = DupHunterRegistry(clock)
        for image in version_chain():
            registry.push_image(image)
        return clock, registry

    def test_storage_is_file_deduplicated(self):
        _, registry = self.make()
        # /shared and /app/lib.so stored once; /app/bin per version.
        assert len(registry._files) == 2 + 4

    def test_pull_still_ships_full_layers(self):
        clock, registry = self.make()
        manifest = registry.get_manifest("app:v1")
        total_wire = 0
        for digest in manifest.layer_digests:
            layer, wire = registry.serve_layer(digest)
            total_wire += wire
            assert wire == layer.compressed_size
        # The client downloads the whole image despite registry dedup —
        # the paper's core criticism of dedup-only approaches.
        images = version_chain()
        assert total_wire == images[0].compressed_size

    def test_reconstruction_costs_registry_time(self):
        clock, registry = self.make()
        manifest = registry.get_manifest("app:v1")
        before = clock.now
        registry.serve_layer(manifest.layer_digests[0])
        assert clock.now > before
        assert registry.stats.reconstructions == 1

    def test_every_pull_reconstructs(self):
        clock, registry = self.make()
        manifest = registry.get_manifest("app:v1")
        registry.serve_layer(manifest.layer_digests[0])
        time_after_first = clock.now
        registry.serve_layer(manifest.layer_digests[0])
        assert clock.now > time_after_first  # no layer cache hides it
        assert registry.stats.reconstructions == 2

    def test_missing_lookups(self):
        clock, registry = self.make()
        with pytest.raises(NotFoundError):
            registry.get_manifest("ghost:v1")
        from repro.common.hashing import Digest

        with pytest.raises(NotFoundError):
            registry.serve_layer(Digest("0" * 64))


class TestLayerPack:
    def test_shared_content_stored_once(self):
        layout = pack_layers(version_chain(), min_layer_bytes=1000)
        # /shared + /app/lib.so live in one shared layer (same image set);
        # each version's /app/bin lands in a residual layer.
        assert layout.shared_layer_count == 1
        assert layout.residual_layer_count == 4

    def test_beats_historical_layers_on_storage(self):
        from repro.dedup.engines import layer_level_dedup

        images = version_chain()
        packed = pack_layers(images, min_layer_bytes=1000)
        historical = layer_level_dedup(images)
        assert packed.stored_bytes < historical.storage_bytes

    def test_never_beats_file_level(self):
        from repro.dedup.engines import file_level_dedup

        images = version_chain()
        packed = pack_layers(images, min_layer_bytes=1000)
        assert packed.stored_bytes >= file_level_dedup(images).storage_bytes

    def test_min_layer_bytes_folds_small_groups(self):
        images = version_chain()
        fine = pack_layers(images, min_layer_bytes=1)
        coarse = pack_layers(images, min_layer_bytes=10**9)
        assert coarse.shared_layer_count == 0
        assert fine.shared_layer_count >= 1
        # Folding duplicates shared content into residuals: more bytes.
        assert coarse.stored_bytes >= fine.stored_bytes

    def test_layers_per_image_reported(self):
        layout = pack_layers(version_chain(), min_layer_bytes=1000)
        assert len(layout.layers_per_image) == 4
        assert sum(layout.layers_per_image) / 4 == pytest.approx(2.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            pack_layers(version_chain(), min_layer_bytes=0)
