"""Timeline sampler: cadence determinism, append-only series, exports."""

import pytest

from repro.common.clock import SimClock, SimScheduler
from repro.obs import (
    NULL_TIMELINE,
    NullTimelineSampler,
    TimelineSampler,
    chrome_counter_events,
    chrome_trace,
    dump_json,
)


def _sampled_run(seed="timeline", period_s=0.25, jitter=0.2, horizon_s=3.0):
    """One scheduler run with a sampler and a gauge that ramps."""
    clock = SimClock()
    sampler = TimelineSampler(
        clock, period_s=period_s, jitter=jitter, seed=seed
    )
    state = {"value": 0.0}
    sampler.add_probe("ramp", lambda: state["value"])

    def worker():
        for _ in range(6):
            yield horizon_s / 6
            state["value"] += 1.0

    with SimScheduler(clock) as scheduler:
        scheduler.spawn(sampler.run, name="timeline")
        work = scheduler.spawn(worker, name="worker")
        scheduler.run_until(work)
        sampler.stop()
        scheduler.run()
    return sampler


class TestTimeSeries:
    def test_append_only_in_order(self):
        sampler = _sampled_run()
        times = sampler.series["ramp"].times()
        assert times == sorted(times)
        assert len(sampler.series["ramp"]) == sampler.stats.samples

    def test_values_track_the_probe(self):
        sampler = _sampled_run()
        values = sampler.series["ramp"].values()
        # The ramp only ever goes up; samples must too.
        assert values == sorted(values)
        assert sampler.series["ramp"].last() is not None


class TestCadence:
    def test_jittered_cadence_is_seed_deterministic(self):
        first = _sampled_run(seed="cadence")
        second = _sampled_run(seed="cadence")
        assert first.series["ramp"].points == second.series["ramp"].points
        assert dump_json(first.as_dict()) == dump_json(second.as_dict())

    def test_different_seed_different_phase(self):
        first = _sampled_run(seed="a")
        second = _sampled_run(seed="b")
        assert first.series["ramp"].times() != second.series["ramp"].times()

    def test_zero_jitter_is_exact_period(self):
        sampler = _sampled_run(jitter=0.0, period_s=0.5)
        times = sampler.series["ramp"].times()
        assert times == pytest.approx(
            [0.5 * (i + 1) for i in range(len(times))]
        )

    def test_stop_halts_future_rows(self):
        sampler = _sampled_run()
        count = sampler.stats.samples
        sampler.sample()  # manual sample still works...
        assert sampler.stats.samples == count + 1
        # ...but the generator exits on its next wake (already drained).

    def test_validation(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            TimelineSampler(clock, period_s=0.0)
        with pytest.raises(ValueError):
            TimelineSampler(clock, jitter=1.0)
        sampler = TimelineSampler(clock)
        sampler.add_probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.add_probe("x", lambda: 1.0)


class TestNullSampler:
    def test_null_is_detached_and_processless(self):
        assert NULL_TIMELINE.attached is False
        assert TimelineSampler(SimClock()).attached is True
        # Detached means no process: the null object has no run().
        assert not hasattr(NullTimelineSampler, "run")

    def test_null_ops_are_free_noops(self):
        NULL_TIMELINE.sample()
        NULL_TIMELINE.record("x", 1.0, 2.0)
        NULL_TIMELINE.stop()


class TestEvents:
    def test_record_lands_in_named_series(self):
        clock = SimClock()
        sampler = TimelineSampler(clock)
        sampler.record("ready_s", 1.5, 0.25)
        sampler.record("ready_s", 2.0, 0.75)
        assert sampler.series["ready_s"].as_list() == [[1.5, 0.25], [2.0, 0.75]]
        assert sampler.stats.events == 2


class TestExport:
    def test_chrome_counter_events_are_sorted_and_typed(self):
        sampler = _sampled_run()
        sampler.record("ready_s", 0.5, 1.0)
        events = chrome_counter_events(sampler)
        assert events
        assert {event["ph"] for event in events} == {"C"}
        names = [event["name"] for event in events]
        assert names == sorted(names)
        assert all(event["tid"] == 0 for event in events)

    def test_chrome_trace_merges_counter_tracks(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        with clock.span("work"):
            clock.advance(1.0, "work")
        sampler = TimelineSampler(clock)
        sampler.record("ready_s", 0.5, 1.0)
        merged = chrome_trace(tracer, sampler)
        assert any(event.get("ph") == "C" for event in merged["traceEvents"])
        without = chrome_trace(tracer)
        assert not any(
            event.get("ph") == "C" for event in without["traceEvents"]
        )

    def test_as_dict_is_canonical_json_stable(self):
        sampler = _sampled_run()
        assert dump_json(sampler.as_dict()) == dump_json(sampler.as_dict())
