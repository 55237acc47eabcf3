"""Virtual clock semantics."""

import pytest

from repro.common.clock import SimClock


def test_clock_starts_at_zero():
    assert SimClock().now == 0.0


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.25)
    assert clock.now == pytest.approx(1.75)


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().advance(-0.1)


def test_advance_zero_is_allowed():
    clock = SimClock()
    clock.advance(0.0)
    assert clock.now == 0.0


def test_trace_records_labels_when_enabled():
    clock = SimClock()
    clock.attach_tracer()
    clock.advance(1.0, "pull")
    clock.advance(2.0, "run")
    assert [(e.at_s, e.name) for e in clock.tracer.instants] == [(1.0, "pull"), (3.0, "run")]


def test_trace_disabled_by_default():
    clock = SimClock()
    clock.advance(1.0, "pull")
    assert clock.tracer is None


def test_stopwatch_measures_elapsed():
    clock = SimClock()
    watch = clock.timer()
    clock.advance(2.0)
    assert watch.elapsed() == pytest.approx(2.0)


def test_stopwatch_restart_returns_lap():
    clock = SimClock()
    watch = clock.timer()
    clock.advance(1.0)
    assert watch.restart() == pytest.approx(1.0)
    clock.advance(0.5)
    assert watch.elapsed() == pytest.approx(0.5)
