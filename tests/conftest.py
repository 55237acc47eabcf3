"""Shared fixtures: tiny corpora and wired testbeds.

Corpus construction is the expensive part of many tests, so the small
corpora are session-scoped; tests must not mutate the corpus images
(testbeds and registries are rebuilt per test instead).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.bench.environment import make_testbed, publish_images
from repro.workloads.corpus import Corpus, CorpusBuilder, CorpusConfig, GeneratedImage

# Tier-1 runs every property test on the same examples each time, and the
# tests that leave the count to the profile (the shared-clone machine and
# the overlay and ``apply_to`` oracles, ~12 s at their old counts) on few
# enough to cost under 5 s together.  ``scripts/check.sh`` hunts with
# ``--hypothesis-profile=wide``: fresh examples, at least the old counts.
settings.register_profile("tier1", max_examples=40, derandomize=True)
settings.register_profile("wide", max_examples=150)
settings.load_profile("tier1")


def image_of(corpus: Corpus, reference: str) -> GeneratedImage:
    """The corpus image published as ``reference`` (``name:tag``)."""
    (generated,) = [g for g in corpus.images if g.reference == reference]
    return generated


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """nginx + tomcat (+ their bases/runtimes), 4 versions, scaled down."""
    config = CorpusConfig(
        seed=7,
        file_scale=0.25,
        size_scale=0.1,
        series_names=("nginx", "tomcat"),
        versions_cap=4,
    )
    return CorpusBuilder(config).build()


@pytest.fixture(scope="session")
def distro_corpus() -> Corpus:
    """A single distro series (debian), 3 versions, tiny."""
    config = CorpusConfig(
        seed=7,
        file_scale=0.2,
        size_scale=0.05,
        series_names=("debian",),
        versions_cap=3,
    )
    return CorpusBuilder(config).build()


@pytest.fixture
def testbed():
    """A fresh two-node testbed at the paper's 904 Mbps."""
    return make_testbed()


@pytest.fixture
def published_testbed(small_corpus):
    """A testbed with the small corpus pushed and converted."""
    bed = make_testbed()
    publish_images(bed, small_corpus.images, convert=True)
    return bed
