"""Deployment schedule generation."""

import pytest

from repro.workloads.schedule import (
    BurstWindow,
    ScheduleBuilder,
    zipf_weights,
)
from repro.workloads.corpus import Corpus


class TestZipf:
    def test_weights_decrease(self):
        weights = zipf_weights(5, skew=1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_zero_skew_is_uniform(self):
        assert zipf_weights(4, skew=0.0) == [1.0] * 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(3, skew=-1)


class TestPopularityStream:
    def test_deterministic(self, small_corpus):
        builder = ScheduleBuilder(small_corpus)
        a = builder.popularity_stream(25)
        b = builder.popularity_stream(25)
        assert [event.image.reference for event in a] == [
            event.image.reference for event in b
        ]

    def test_length_and_positions(self, small_corpus):
        schedule = ScheduleBuilder(small_corpus).popularity_stream(10)
        assert len(schedule) == 10
        assert [event.position for event in schedule] == list(range(10))

    def test_repeats_marked_correctly(self, small_corpus):
        schedule = ScheduleBuilder(small_corpus).popularity_stream(40)
        seen = set()
        for event in schedule:
            assert event.is_repeat == (event.image.reference in seen)
            seen.add(event.image.reference)

    def test_popular_series_dominate(self, small_corpus):
        schedule = ScheduleBuilder(small_corpus).popularity_stream(
            200, skew=1.5
        )
        counts = {}
        for event in schedule:
            counts[event.image.spec.name] = (
                counts.get(event.image.spec.name, 0) + 1
            )
        top = max(counts.values())
        assert top > 200 / len(small_corpus.by_series)  # skewed, not uniform

    def test_version_drift_moves_forward_only(self, small_corpus):
        schedule = ScheduleBuilder(small_corpus).popularity_stream(100)
        last_seen = {}
        for event in schedule:
            name = event.image.spec.name
            if name in last_seen:
                assert event.image.tag_index >= last_seen[name]
            last_seen[name] = event.image.tag_index

    def test_zero_length(self, small_corpus):
        builder = ScheduleBuilder(small_corpus)
        assert builder.popularity_stream(0) == []

    def test_negative_length_rejected(self, small_corpus):
        with pytest.raises(ValueError):
            ScheduleBuilder(small_corpus).popularity_stream(-1)


class TestBurstWindow:
    def test_covers_is_half_open(self):
        window = BurstWindow(start_s=2.0, duration_s=3.0, factor=10.0)
        assert window.end_s == 5.0
        assert not window.covers(1.999)
        assert window.covers(2.0)
        assert window.covers(4.999)
        assert not window.covers(5.0)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            BurstWindow(start_s=-1.0, duration_s=1.0, factor=2.0)
        with pytest.raises(ValueError):
            BurstWindow(start_s=0.0, duration_s=0.0, factor=2.0)
        with pytest.raises(ValueError):
            BurstWindow(start_s=0.0, duration_s=1.0, factor=0.0)


class TestInvocationStream:
    def _stream(self, corpus, **kwargs):
        params = dict(duration_s=10.0, rate_per_s=5.0, functions=8)
        params.update(kwargs)
        return ScheduleBuilder(corpus).invocation_stream(**params)

    def test_same_seed_is_byte_identical(self, small_corpus):
        """The whole timeline replays: instants, functions, images."""
        a = self._stream(small_corpus)
        b = self._stream(small_corpus)
        assert [
            (e.position, e.at_s, e.function, e.image.reference, e.is_repeat)
            for e in a
        ] == [
            (e.position, e.at_s, e.function, e.image.reference, e.is_repeat)
            for e in b
        ]

    def test_different_seed_diverges(self, small_corpus):
        a = ScheduleBuilder(small_corpus, seed="a").invocation_stream(
            duration_s=10.0, rate_per_s=5.0, functions=8
        )
        b = ScheduleBuilder(small_corpus, seed="b").invocation_stream(
            duration_s=10.0, rate_per_s=5.0, functions=8
        )
        assert [e.at_s for e in a] != [e.at_s for e in b]

    def test_arrivals_monotonic_and_within_duration(self, small_corpus):
        stream = self._stream(small_corpus)
        assert stream  # 10 s at 5/s: the process produced arrivals
        last = 0.0
        for event in stream:
            assert last < event.at_s < 10.0
            last = event.at_s
        assert [e.position for e in stream] == list(range(len(stream)))

    def test_burst_window_densifies_arrivals(self, small_corpus):
        burst = BurstWindow(start_s=4.0, duration_s=2.0, factor=10.0)
        stream = self._stream(small_corpus, bursts=(burst,))
        inside = sum(1 for e in stream if burst.covers(e.at_s))
        outside = len(stream) - inside
        # 2 s at 50/s vs 8 s at 5/s: the spike must dominate.
        assert inside > outside

    def test_repeats_marked_per_function(self, small_corpus):
        stream = self._stream(small_corpus, rate_per_s=8.0)
        seen = set()
        for event in stream:
            assert event.is_repeat == (event.function in seen)
            seen.add(event.function)

    def test_functions_map_to_stable_images(self, small_corpus):
        stream = self._stream(small_corpus, rate_per_s=8.0)
        bound = {}
        for event in stream:
            assert bound.setdefault(event.function, event.image.reference) == (
                event.image.reference
            )

    def test_empty_corpus_is_a_typed_error(self, small_corpus):
        empty = Corpus(small_corpus.config, [])
        with pytest.raises(ValueError, match="no images"):
            ScheduleBuilder(empty).invocation_stream(
                duration_s=1.0, rate_per_s=1.0, functions=1
            )

    def test_rejects_bad_parameters(self, small_corpus):
        builder = ScheduleBuilder(small_corpus)
        with pytest.raises(ValueError):
            builder.invocation_stream(
                duration_s=0.0, rate_per_s=1.0, functions=1
            )
        with pytest.raises(ValueError):
            builder.invocation_stream(
                duration_s=1.0, rate_per_s=0.0, functions=1
            )
        with pytest.raises(ValueError):
            builder.invocation_stream(
                duration_s=1.0, rate_per_s=1.0, functions=0
            )


class TestRollingUpdates:
    def test_all_versions_in_order(self, small_corpus):
        # A rolling update deploys one series' versions in corpus order.
        versions = small_corpus.by_series["nginx"]
        assert [image.tag for image in versions] == ["v1", "v2", "v3", "v4"]
