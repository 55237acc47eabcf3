"""Per-category structural invariants of the synthetic corpus.

One representative series per Table I category, generated tiny, checked
against the structural promises DESIGN.md makes about the generator.
"""

import pytest

from repro.workloads.corpus import CorpusBuilder, CorpusConfig
from repro.workloads.series import CATEGORY_PROFILES

#: (series, category) — one representative per category.
REPRESENTATIVES = [
    ("debian", "Linux Distro"),
    ("python", "Language"),
    ("mysql", "Database"),
    ("nginx", "Web Component"),
    ("wordpress", "Application Platform"),
    ("vault", "Others"),
]


@pytest.fixture(scope="module")
def category_corpus():
    config = CorpusConfig(
        seed=11,
        file_scale=0.15,
        size_scale=0.05,
        series_names=tuple(name for name, _ in REPRESENTATIVES),
        versions_cap=6,
    )
    return CorpusBuilder(config).build()


@pytest.mark.parametrize("name,category", REPRESENTATIVES)
class TestPerCategory:
    def test_category_assignment(self, category_corpus, name, category):
        for generated in category_corpus.by_series[name]:
            assert generated.category == category

    def test_layer_structure(self, category_corpus, name, category):
        generated = category_corpus.by_series[name][0]
        layer_count = len(generated.image.layers)
        if category == "Linux Distro":
            assert layer_count == 1  # single-layer base, like Fig. 1's debian
        elif category == "Language":
            assert layer_count == 3  # base + runtime + app
        else:
            assert layer_count == 4  # base + runtime + app + config

    def test_trace_covers_plausible_byte_fraction(
        self, category_corpus, name, category
    ):
        for generated in category_corpus.by_series[name]:
            read = sum(size for _, size in generated.trace.accesses)
            ratio = read / generated.image.uncompressed_size
            assert 0.02 < ratio < 0.65, (name, ratio)

    def test_trace_orders_configs_before_data(
        self, category_corpus, name, category
    ):
        generated = category_corpus.by_series[name][-1]
        kinds = []
        for path, _ in generated.trace.accesses:
            if path.endswith(".conf"):
                kinds.append("config")
            elif path.endswith(".dat"):
                kinds.append("data")
        if "config" in kinds and "data" in kinds:
            assert kinds.index("config") < kinds.index("data")

    def test_versions_monotone_tags(self, category_corpus, name, category):
        tags = [g.tag for g in category_corpus.by_series[name]]
        assert tags == [f"v{i + 1}" for i in range(len(tags))]

    def test_compute_time_near_profile(self, category_corpus, name, category):
        profile = CATEGORY_PROFILES[category]
        for generated in category_corpus.by_series[name]:
            assert (
                0.85 * profile.task_compute_s
                <= generated.trace.compute_s
                <= 1.15 * profile.task_compute_s
            )


class TestCrossCategoryInvariants:
    def test_distro_series_churn_most(self, category_corpus):
        """File survival across versions: distro lowest, Web highest."""

        def survival(name):
            series = category_corpus.by_series[name]
            first = {
                node.blob.fingerprint
                for _, node in series[0].image.flatten().iter_files()
            }
            last = {
                node.blob.fingerprint
                for _, node in series[-1].image.flatten().iter_files()
            }
            return len(first & last) / len(first)

        assert survival("debian") < survival("nginx")
        assert survival("python") < survival("nginx")

    def test_base_epoch_pinning(self, category_corpus):
        nginx = category_corpus.by_series["nginx"]
        # Versions 1-5 share one base epoch; version 6 crosses into the
        # next (BASE_EPOCH = 5).
        assert (
            nginx[0].image.layers[0].digest == nginx[4].image.layers[0].digest
        )
        assert (
            nginx[4].image.layers[0].digest != nginx[5].image.layers[0].digest
        )

    def test_config_layer_is_tiny(self, category_corpus):
        generated = category_corpus.by_series["mysql"][0]
        config_layer = generated.image.layers[-1]
        assert config_layer.uncompressed_size < (
            0.05 * generated.image.uncompressed_size
        )

    def test_deterministic_across_builders(self, category_corpus):
        rebuilt = CorpusBuilder(category_corpus.config).build()
        assert [g.reference for g in rebuilt.images] == [
            g.reference for g in category_corpus.images]
