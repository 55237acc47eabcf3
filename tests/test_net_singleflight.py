"""The one single-flight table (:class:`repro.net.resilience.SingleFlight`).

The node pool, each partial big file and the FaaS shared tier coalesce
identical concurrent fetches through it; what a waiter does after it
wakes is tested where it lives (viewer, bigfile, tier).  Here: the
protocol itself.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock, SimScheduler
from repro.net.resilience import SingleFlight


def test_waiters_wake_at_the_release_instant_with_the_leaders_debt_settled():
    clock = SimClock()
    flights = SingleFlight()
    woke = {}

    def leader():
        announce = flights.claim("k", clock)
        try:
            yield from clock.advance_gen(1.0, "fetch")
            clock.advance_deferred(0.25, "store")  # owed at the release
        finally:
            yield from flights.release("k", announce)
        woke["leader"] = clock.now

    def waiter(name):
        yield from clock.advance_gen(0.5)
        pending = flights.pending("k")
        assert pending is not None and len(flights) == 1
        yield from pending.wait_gen()
        woke[name] = clock.now

    with SimScheduler(clock) as scheduler:
        scheduler.spawn(leader, name="leader")
        scheduler.spawn(waiter, "w1", name="w1")
        scheduler.spawn(waiter, "w2", name="w2")
        scheduler.run()
        assert scheduler.handoffs == 0
    # Nobody observes the store as still unpaid: the flight ends at 1.25.
    assert woke == {"leader": 1.25, "w1": 1.25, "w2": 1.25}
    assert flights.pending("k") is None and len(flights) == 0


def test_a_leader_that_raises_still_releases():
    clock = SimClock()
    flights = SingleFlight()
    seen = []

    def leader():
        announce = flights.claim("k", clock)
        try:
            yield from clock.advance_gen(1.0)
            raise KeyError("fetch failed")
        finally:
            yield from flights.release("k", announce)

    def waiter():
        yield from flights.pending("k").wait_gen()
        seen.append((clock.now, flights.pending("k")))

    with SimScheduler(clock) as scheduler:
        scheduler.spawn(leader, name="leader")
        scheduler.spawn(waiter, name="waiter")
        with pytest.raises(KeyError):
            scheduler.run()
    # The waiter woke when the leader died and found the key free.
    assert seen == [(1.0, None)]


def test_release_unregisters_only_a_flight_that_is_still_the_leaders():
    clock = SimClock()
    flights = SingleFlight()
    with SimScheduler(clock):
        first = flights.claim("k", clock)
        second = flights.claim("k", clock)  # a waiter refilling: replaces it
        assert flights.pending("k") is second
        clock.drive(flights.release("k", first))
        assert first._fired and not second._fired
        assert flights.pending("k") is second
        clock.drive(flights.release("k", second))
        assert second._fired and flights.pending("k") is None
        # Released twice (``abandon`` got there first): nothing to undo.
        clock.drive(flights.release("k", second))
        assert len(flights) == 0


def test_abandon_fires_and_forgets_every_flight_and_counts_them():
    clock = SimClock()
    flights = SingleFlight()
    assert flights.abandon() == 0
    with SimScheduler(clock):
        events = [flights.claim(key, clock) for key in ("a", "b", 3)]
        assert len(flights) == 3
        assert flights.abandon() == 3
        assert all(event._fired for event in events)
        assert len(flights) == 0 and flights.pending("a") is None
        # The dead leader's late release touches nothing newer.
        newer = flights.claim("a", clock)
        clock.drive(flights.release("a", events[0]))
        assert flights.pending("a") is newer


def test_nothing_is_registered_without_a_scheduler():
    clock = SimClock()
    flights = SingleFlight()
    assert flights.claim("k", clock) is None  # sequential: nobody to wait
    assert flights.claim("k", None) is None  # an offline mount has no clock
    assert len(flights) == 0 and flights.pending("k") is None
    assert clock.drive(flights.release("k", None)) is None
    assert clock.now == 0.0
