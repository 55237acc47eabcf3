"""The Table I catalog."""

from collections import Counter

from repro.workloads.series import (
    CATEGORIES,
    CATEGORY_PROFILES,
    RUNTIME_SOURCE,
    SERIES,
)

BY_NAME = {spec.name: spec for spec in SERIES}


class TestCatalog:
    def test_fifty_series(self):
        assert len(SERIES) == 50

    def test_corpus_total_matches_paper(self):
        # "In total, these 50 image series contain 971 images" (§V-A).
        assert sum(spec.versions for spec in SERIES) == 971

    def test_category_sizes_match_table1(self):
        sizes = Counter(spec.category for spec in SERIES)
        assert sizes["Linux Distro"] == 6
        assert sizes["Language"] == 6
        assert sizes["Database"] == 11
        assert sizes["Web Component"] == 11
        assert sizes["Application Platform"] == 8
        assert sizes["Others"] == 8

    def test_paper_named_exceptions_have_fewer_versions(self):
        # hello-world, centos, eclipse-mosquitto (§V-A).
        assert BY_NAME["hello-world"].versions < 20
        assert BY_NAME["centos"].versions < 20
        assert BY_NAME["eclipse-mosquitto"].versions < 20

    def test_series_names_unique(self):
        names = [spec.name for spec in SERIES]
        assert len(names) == len(set(names))

    def test_distro_series_have_no_base(self):
        for spec in SERIES:
            if spec.category == "Linux Distro":
                assert spec.base_distro == ""
            else:
                assert spec.base_distro

    def test_bases_are_distro_series(self):
        distros = {s.name for s in SERIES if s.category == "Linux Distro"}
        for spec in SERIES:
            if spec.base_distro:
                assert spec.base_distro in distros

    def test_runtime_sources_are_language_series(self):
        languages = {s.name for s in SERIES if s.category == "Language"}
        for consumer, source in RUNTIME_SOURCE.items():
            assert source in languages
            assert BY_NAME[consumer].category not in ("Linux Distro", "Language")

    def test_tags_ordering(self):
        tags = BY_NAME["nginx"].tags()
        assert tags[0] == "v1"
        assert tags[-1] == "v20"
        assert len(tags) == 20


class TestProfiles:
    def test_every_category_has_a_profile(self):
        for category in CATEGORIES:
            assert category in CATEGORY_PROFILES

    def test_base_categories_churn_more_than_app_categories(self):
        # §V-C: base-image updates change most data; app updates change
        # mostly application data.
        base_churn = min(
            CATEGORY_PROFILES["Linux Distro"].app_churn,
            CATEGORY_PROFILES["Language"].app_churn,
        )
        app_churn = max(
            CATEGORY_PROFILES[c].app_churn
            for c in ("Database", "Web Component", "Application Platform")
        )
        assert base_churn > app_churn

    def test_necessary_fraction_within_literature_range(self):
        # Remote-image formats download 6.4%–33.3% on demand (§II-D);
        # our profile targets sit in that band (plus config noise).
        for profile in CATEGORY_PROFILES.values():
            assert 0.05 <= profile.necessary_byte_frac <= 0.40

    def test_profile_sanity(self):
        for profile in CATEGORY_PROFILES.values():
            assert 0 < profile.app_churn < 1
            assert 0 < profile.chunk_churn <= 1
            assert profile.runtime_refresh >= 1
            assert profile.task_compute_s > 0
