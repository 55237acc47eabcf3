"""The Gear Converter: image → (index, files), costs, dedup, removal.

The golden conversion pins every index a small corpus converts to
(``tests/fixtures/convert_golden.json``).  Regenerate it only when the
conversion is *supposed* to change::

    PYTHONPATH=src python tests/test_gear_converter.py --record
"""

import dataclasses
import json
import os

import pytest

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError
from repro.docker.builder import ImageBuilder
from repro.docker.registry import DockerRegistry
from repro.gear.converter import GearConverter
from repro.gear.index import GearIndex
from repro.gear.registry import GearRegistry
from repro.storage.disk import Disk, HDD, SSD
from repro.workloads.corpus import CorpusBuilder, CorpusConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "convert_golden.json")


def make_env(disk_profile=HDD):
    clock = SimClock()
    docker_registry = DockerRegistry()
    gear_registry = GearRegistry()
    converter = GearConverter(
        clock, docker_registry, gear_registry, disk=Disk(clock, disk_profile)
    )
    base = ImageBuilder("debian", "v1").add_file("/bin/sh", b"sh" * 2000).build()
    app = (
        ImageBuilder("nginx", "v1", base=base)
        .add_file("/usr/nginx", b"ngx" * 3000)
        .add_file("/etc/conf", b"conf")
        .build()
    )
    docker_registry.push_image(base)
    docker_registry.push_image(app)
    return clock, docker_registry, gear_registry, converter


class TestConversion:
    def test_produces_index_and_files(self):
        _, docker_registry, gear_registry, converter = make_env()
        index, report = converter.convert("nginx:v1")
        assert isinstance(index, GearIndex)
        assert len(index.entries) == 3
        assert gear_registry.file_count == 3
        assert report.gear_files_new == 3
        assert report.collisions == 0

    def test_index_image_published_in_docker_registry(self):
        _, docker_registry, _, converter = make_env()
        converter.convert("nginx:v1")
        manifest = docker_registry.get_manifest("nginx.gear:v1")
        assert manifest.gear_index

    def test_index_preserves_config(self):
        clock = SimClock()
        docker_registry = DockerRegistry()
        gear_registry = GearRegistry()
        converter = GearConverter(clock, docker_registry, gear_registry)
        image = (
            ImageBuilder("app", "v1")
            .with_env(LANG="C")
            .add_file("/f", b"x")
            .build()
        )
        docker_registry.push_image(image)
        index, _ = converter.convert("app:v1")
        # "it is necessary to copy the environmental variables and the
        # configuration from the original Docker image" (§III-C).
        assert index.config.env_dict() == {"LANG": "C"}

    def test_cross_image_file_dedup(self):
        _, _, gear_registry, converter = make_env()
        _, first = converter.convert("debian:v1")
        _, second = converter.convert("nginx:v1")
        # nginx contains debian's /bin/sh: already uploaded.
        assert second.gear_files_deduped == 1
        assert second.gear_files_new == 2
        assert gear_registry.file_count == 3

    def test_missing_image_raises(self):
        _, _, _, converter = make_env()
        with pytest.raises(NotFoundError):
            converter.convert("ghost:v1")

    def test_index_suffix(self):
        # The index is published as {name}.gear beside the original.
        _, docker_registry, _, converter = make_env()
        converter.convert("nginx:v1")
        assert docker_registry.has_manifest("nginx.gear:v1")
        assert docker_registry.has_manifest("nginx:v1")


class TestCosts:
    def test_conversion_takes_virtual_time(self):
        clock, _, _, converter = make_env()
        _, report = converter.convert("nginx:v1")
        assert report.duration_s > 0
        assert clock.now == pytest.approx(report.duration_s)

    def test_ssd_is_faster_than_hdd(self):
        _, _, _, hdd_converter = make_env(HDD)
        _, hdd_report = hdd_converter.convert("nginx:v1")
        _, _, _, ssd_converter = make_env(SSD)
        _, ssd_report = ssd_converter.convert("nginx:v1")
        # Fig. 6: SSDs cut node-series conversion by ~66%.
        assert ssd_report.duration_s < hdd_report.duration_s

    def test_bigger_image_takes_longer(self):
        clock = SimClock()
        docker_registry = DockerRegistry()
        converter = GearConverter(clock, docker_registry, GearRegistry())
        small = ImageBuilder("small", "v1").add_file("/f", b"x" * 100).build()
        big_builder = ImageBuilder("big", "v1")
        for index in range(40):
            big_builder.add_file(f"/f{index}", bytes([index % 251]) * 50_000)
        big = big_builder.build()
        docker_registry.push_image(small)
        docker_registry.push_image(big)
        _, small_report = converter.convert("small:v1")
        _, big_report = converter.convert("big:v1")
        assert big_report.duration_s > small_report.duration_s

    def test_report_counts_nodes_and_bytes(self):
        _, _, _, converter = make_env()
        _, report = converter.convert("nginx:v1")
        assert report.image_bytes > 0
        assert report.node_count >= report.file_count
        assert report.index_bytes > 0


def golden_conversions():
    """Convert a small corpus in catalog order: per image, the index
    layer digest (the serialized index) and every report field."""
    corpus = CorpusBuilder(CorpusConfig(
        seed=7, file_scale=0.1, size_scale=0.1,
        series_names=("nginx", "redis"), versions_cap=2,
    )).build()
    clock = SimClock()
    docker_registry = DockerRegistry()
    converter = GearConverter(clock, docker_registry, GearRegistry())
    for generated in corpus.images:
        docker_registry.push_image(generated.image)
    converted = []
    for generated in corpus.images:
        index, report = converter.convert(generated.reference)
        converted.append({
            "layer": str(index.to_image().layers[0].digest),
            "report": dataclasses.asdict(report),
        })
    return converted


def test_golden_conversion():
    with open(GOLDEN) as handle:
        assert golden_conversions() == json.load(handle)


if __name__ == "__main__":
    import sys

    if "--record" in sys.argv:
        with open(GOLDEN, "w") as handle:
            json.dump(golden_conversions(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(GOLDEN)}")
    else:
        print(__doc__)
