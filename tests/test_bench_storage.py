"""Registry footprints (Fig. 7) and the analysis modules (Table II, Fig. 2)."""

import pytest

from repro.analysis import compute_dedup_table, category_redundancy, series_redundancy
from repro.bench.environment import make_testbed, publish_images
from repro.bench.paper import registry_bytes
from repro.common.clock import SimClock
from repro.docker.registry import DockerRegistry
from repro.gear.converter import GearConverter
from repro.gear.registry import GearRegistry
from repro.storage.disk import Disk


@pytest.fixture(scope="module")
def converted(small_corpus):
    """``small_corpus`` published and converted once, as Fig. 7 does."""
    testbed = make_testbed()
    publish_images(testbed, small_corpus.images)
    return testbed


def registries_of(images):
    """The oracle: fresh registries holding ``images`` alone, converted
    by a converter of their own; ``(docker, gear files, gear indexes)``
    bytes, Docker's read before any index image lands beside its layers."""
    clock = SimClock()
    docker_registry, gear_registry = DockerRegistry(), GearRegistry()
    converter = GearConverter(clock, docker_registry, gear_registry, disk=Disk(clock))
    for generated in images:
        docker_registry.push_image(generated.image)
    docker = docker_registry.stored_bytes
    indexes = sum(converter.convert(generated.reference)[0].to_image().compressed_size
                  for generated in images)
    return docker, gear_registry.stored_bytes, indexes


class TestRegistryBytes:
    @pytest.mark.parametrize("series", ["debian", "java", "nginx", "tomcat", None],
                             ids=lambda series: series or "whole")
    def test_one_pass_counts_what_a_registry_of_the_subset_stores(
            self, series, small_corpus, converted):
        """Per series (Fig. 7a) and whole (``None``, Fig. 7b): read from
        the one conversion pass, byte for byte what registries built for
        those images alone store."""
        images = small_corpus.images if series is None else small_corpus.by_series[series]
        docker, files, indexes = registry_bytes(converted, images)
        assert (docker, files, indexes) == registries_of(images)
        # §V-C: Gear saves space, and its indexes are a sliver of it.
        assert 0 < files + indexes < docker
        assert 0 < indexes < 0.1 * (files + indexes)


class TestDedupTable:
    def test_shape_on_small_corpus(self, small_corpus):
        table = compute_dedup_table(small_corpus.docker_images())
        rows = table.rows()
        assert [r[0] for r in rows] == [
            "No", "Layer-level", "File-level", "Chunk-level",
        ]
        storage = [r[1] for r in rows]
        assert storage[0] >= storage[1] >= storage[2] >= storage[3]
        objects = [r[2] for r in rows]
        assert objects[0] <= objects[1] <= objects[2] <= objects[3]

    def test_reductions_and_blowup(self, small_corpus):
        table = compute_dedup_table(small_corpus.docker_images())
        reductions = table.reduction_vs_none()
        assert reductions["layer"] < reductions["file"] <= reductions["chunk"]
        assert table.chunk_object_blowup >= 1.0


class TestRedundancy:
    def test_series_redundancy_in_unit_interval(self, small_corpus):
        result = series_redundancy(small_corpus.by_series["tomcat"])
        assert 0 <= result.redundancy_ratio < 1
        assert result.total_necessary_bytes >= result.unique_necessary_bytes
        assert result.series == "tomcat"

    def test_versions_create_redundancy(self, small_corpus):
        # A single image has no cross-version redundancy; four do.
        single = series_redundancy(small_corpus.by_series["tomcat"][:1])
        many = series_redundancy(small_corpus.by_series["tomcat"])
        assert single.redundancy_ratio == 0.0
        assert many.redundancy_ratio > 0.1

    def test_category_summary_has_average(self, small_corpus):
        summary = category_redundancy(small_corpus)
        assert "Average" in summary
        assert all(0 <= v < 1 for v in summary.values())

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            series_redundancy([])
