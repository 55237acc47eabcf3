"""Reflection over registered testbed metrics groups.

Every group a testbed registers (``rpc``, ``pool``, ``journal``, ``ha``,
``edge``, ``faas``, ``chunk``, ``timeline``, …) must survive a *double*
``reset()`` — reset is idempotent, never destructive — and must snapshot
to exactly the same key set after reset as before: resetting zeroes
values, it never changes the schema a dashboard scrapes.
"""

import pytest

from repro.bench.environment import (
    attach_edge,
    make_faas_testbed,
    make_ha_testbed,
    make_testbed,
    make_timeline_sampler,
)

MAKERS = {
    "base": make_testbed,
    "ha": make_ha_testbed,
    "edge": lambda: attach_edge(make_testbed()),
    "faas": make_faas_testbed,
}

#: Group keys that must be present somewhere across the testbed matrix.
REQUIRED_GROUPS = {
    "rpc", "pool", "journal", "chunk", "timeline", "ha", "edge", "faas",
}


def _group_names(testbed):
    return {key.partition("{")[0] for key in testbed.metrics.groups()}


@pytest.fixture(params=sorted(MAKERS))
def testbed(request):
    return MAKERS[request.param]()


class TestGroupMatrix:
    def test_required_groups_all_covered_by_the_matrix(self):
        seen = set()
        for maker in MAKERS.values():
            seen |= _group_names(maker())
        assert REQUIRED_GROUPS <= seen

    def test_timeline_group_registered_on_every_testbed(self, testbed):
        assert "timeline" in _group_names(testbed)


class TestResetDiscipline:
    def _dirty(self, testbed):
        """Put nonzero numbers in the groups we can reach directly."""
        testbed.gear_driver.pool.stats.hits += 3
        testbed.gear_driver.chunk_stats.chunks_fetched += 2
        testbed.timeline_stats.samples += 5
        testbed.timeline_stats.points += 25
        sampler = make_timeline_sampler(testbed)
        sampler.sample()

    def test_double_reset_is_idempotent(self, testbed):
        self._dirty(testbed)
        testbed.metrics.reset()
        first = testbed.metrics.snapshot()
        testbed.metrics.reset()
        second = testbed.metrics.snapshot()
        assert first == second

    def test_snapshot_keys_survive_reset(self, testbed):
        self._dirty(testbed)
        before = set(testbed.metrics.snapshot())
        testbed.metrics.reset()
        testbed.metrics.reset()
        after = set(testbed.metrics.snapshot())
        assert before == after

    def test_reset_zeroes_timeline_accounting(self, testbed):
        self._dirty(testbed)
        assert testbed.timeline_stats.samples > 0
        testbed.metrics.reset()
        assert testbed.timeline_stats.metrics() == {
            "samples": 0, "points": 0, "events": 0,
        }

    def test_fresh_client_keeps_groups_stable(self, testbed):
        before = _group_names(testbed)
        fresh = testbed.fresh_client()
        assert _group_names(fresh) == before
        # The shared timeline accounting rides along to the new client.
        assert fresh.timeline_stats is testbed.timeline_stats
