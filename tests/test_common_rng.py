"""Deterministic RNG helpers."""

import pytest

from repro.common.rng import bounded_lognormal, rng_for


def test_rng_for_is_reproducible():
    a = rng_for("corpus", "nginx")
    b = rng_for("corpus", "nginx")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_for_differs_by_tokens():
    assert rng_for("a").random() != rng_for("b").random()


def test_bounded_lognormal_respects_bounds():
    rng = rng_for("ln")
    for _ in range(200):
        value = bounded_lognormal(rng, median=1000, sigma=2.0, lo=10, hi=5000)
        assert 10 <= value <= 5000


def test_bounded_lognormal_rejects_bad_bounds():
    rng = rng_for("ln2")
    with pytest.raises(ValueError):
        bounded_lognormal(rng, 100, 1.0, lo=10, hi=5)
    with pytest.raises(ValueError):
        bounded_lognormal(rng, -1, 1.0, lo=0, hi=5)
