"""Timeline sampler: cadence determinism, append-only series, exports."""

import pytest

from repro.common.clock import SimClock, SimScheduler
from repro.obs import TimelineSampler, dump_json
from repro.obs.timeline import JITTER


def _sampled_run(seed="timeline", period_s=0.25, horizon_s=3.0):
    """One scheduler run with a sampler and a gauge that ramps."""
    clock = SimClock()
    sampler = TimelineSampler(clock, period_s=period_s, seed=seed)
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
        times = [at_s for at_s, _ in sampler.series["ramp"].points]
        assert times == sorted(times)
        assert len(times) == sampler.stats.samples

    def test_values_track_the_probe(self):
        sampler = _sampled_run()
        values = sampler.series["ramp"].values()
        # The ramp only ever goes up; samples must too.
        assert values == sorted(values)
        assert values


class TestCadence:
    def test_jittered_cadence_is_seed_deterministic(self):
        first = _sampled_run(seed="cadence")
        second = _sampled_run(seed="cadence")
        assert first.series["ramp"].points == second.series["ramp"].points
        assert dump_json(first.as_dict()) == dump_json(second.as_dict())

    def test_different_seed_different_phase(self):
        first = _sampled_run(seed="a")
        second = _sampled_run(seed="b")
        assert first.series["ramp"].points != second.series["ramp"].points

    def test_every_sleep_stays_within_the_jitter(self):
        sampler = _sampled_run(period_s=0.5)
        times = [0.0] + [at_s for at_s, _ in sampler.series["ramp"].points]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert len(gaps) >= 4 and len(set(gaps)) > 1
        assert all(0.5 * (1 - JITTER) <= gap <= 0.5 * (1 + JITTER) for gap in gaps)

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
        sampler = TimelineSampler(clock)
        sampler.add_probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.add_probe("x", lambda: 1.0)


class TestEvents:
    def test_record_lands_in_named_series(self):
        clock = SimClock()
        sampler = TimelineSampler(clock)
        sampler.record("ready_s", 1.5, 0.25)
        sampler.record("ready_s", 2.0, 0.75)
        assert sampler.series["ready_s"].as_list() == [[1.5, 0.25], [2.0, 0.75]]
        assert sampler.stats.events == 2


class TestExport:
    def test_as_dict_is_canonical_json_stable(self):
        sampler = _sampled_run()
        assert dump_json(sampler.as_dict()) == dump_json(sampler.as_dict())
