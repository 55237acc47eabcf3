"""Metrics registry semantics: stat groups and callbacks, one snapshot.

Counters are never reset; a reader diffs two snapshots for one epoch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.metrics import MetricSet, MetricsRegistry


@dataclasses.dataclass
class _FakeStats(MetricSet):
    hits: int = 0
    misses: int = 0


class TestMetricSet:
    def test_metrics_lists_numeric_fields_in_order(self):
        stats = _FakeStats(hits=2, misses=1)
        assert stats.metrics() == {"hits": 2, "misses": 1}


class TestMetricsRegistry:
    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.register("x", _FakeStats(), zone="eu", tier="hot")
        registry.register("x", _FakeStats(hits=2), tier="hot", zone="eu")
        assert list(registry.snapshot()) == [
            "x.hits{tier=hot,zone=eu}", "x.misses{tier=hot,zone=eu}"
        ]
        assert registry.snapshot()["x.hits{tier=hot,zone=eu}"] == 2

    def test_register_rejects_non_metric_set(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.register("pool", object())

    def test_register_replaces_at_the_same_key(self):
        # fresh_client() re-registers its new pool over the old one.
        registry = MetricsRegistry()
        old = _FakeStats(hits=5)
        new = _FakeStats()
        registry.register("pool", old)
        registry.register("pool", new)
        new.hits = 1
        assert registry.snapshot()["pool.hits"] == 1

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.register_callback("b_breaker", lambda: {"trips": 2})
        registry.register_callback("a_retry", lambda: {"spent_s": 1.5}, zone="eu")
        registry.register("stats", _FakeStats(hits=3), node="n0")
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["b_breaker.trips"] == 2
        assert snapshot["a_retry.spent_s{zone=eu}"] == 1.5
        assert snapshot["stats.hits{node=n0}"] == 3
        assert snapshot["stats.misses{node=n0}"] == 0

    def test_an_epoch_is_a_delta_of_two_snapshots(self):
        registry = MetricsRegistry()
        stats = registry.register("stats", _FakeStats(hits=4))
        spend = {"spent_s": 2.5}
        registry.register_callback("retry", lambda: dict(spend))
        before = registry.snapshot()
        stats.hits += 3
        spend["spent_s"] += 0.5
        after = registry.snapshot()
        assert {key: after[key] - before[key] for key in after} == {
            "retry.spent_s": 0.5, "stats.hits": 3, "stats.misses": 0,
        }
        # The counters themselves kept their history.
        assert stats.hits == 7

    def test_groups_lists_registered_keys(self):
        registry = MetricsRegistry()
        registry.register("pool", _FakeStats())
        registry.register("rpc", _FakeStats(), endpoint="gear")
        assert list(registry.snapshot()) == [
            "pool.hits", "pool.misses", "rpc.hits{endpoint=gear}", "rpc.misses{endpoint=gear}"
        ]
