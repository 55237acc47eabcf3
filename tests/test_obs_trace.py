"""Span tracer invariants, export determinism, and advance labels.

The tracer's contract has three load-bearing pieces:

* **structure** — spans nest correctly per track, parents always exist,
  and spawned processes inherit the spawner's innermost span;
* **determinism** — the exported Chrome trace and metrics snapshot are
  byte-identical across double runs, even under a faulty + hedged HA
  fleet wave (the `scripts/check.sh` gate's property);
* **labels** — a labelled clock advance and a note land on the tracer
  as instants (what the old ``SimClock.trace`` list of ``(timestamp,
  label)`` tuples showed), and an untraced clock records nowhere.
"""

from __future__ import annotations

import pytest

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_testbed, publish_images
from repro.common.clock import NULL_SPAN, SimClock, SimScheduler
from repro.net.faults import BrownoutWindow, FaultPlan
from repro.net.topology import HACluster
from repro.obs import (
    SpanTracer,
    chrome_trace,
    critical_path,
    dump_json,
    metrics_snapshot,
    trace_json,
)


class TestSpanBasics:
    def test_begin_end_records_interval(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        span = tracer.begin("work", job="x")
        clock.advance(2.5)
        tracer.end(span)
        assert span.start_s == 0.0
        assert span.end_s == 2.5
        assert span.duration_s == 2.5
        assert span.labels == {"job": "x"}

    def test_context_manager_pairs_begin_with_end(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        with clock.span("outer") as outer:
            clock.advance(1.0)
            with clock.span("inner") as inner:
                clock.advance(1.0)
        assert inner.parent_id == outer.id
        assert outer.parent_id is None
        assert tracer.finished_spans() == [outer, inner]

    def test_annotate_merges_labels_and_returns_span(self):
        clock = SimClock()
        clock.attach_tracer()
        with clock.span("fetch", fp="abc") as span:
            assert span.annotate(bytes=42) is span
        assert span.labels == {"fp": "abc", "bytes": 42}

    def test_recording_costs_zero_virtual_time(self):
        clock = SimClock()
        clock.attach_tracer()
        with clock.span("outer"):
            with clock.span("inner"):
                clock.instant("tick")
        assert clock.now == 0.0

    def test_open_span_has_zero_duration_and_is_not_finished(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        span = tracer.begin("open")
        clock.advance(5.0)
        assert span.duration_s == 0.0
        assert tracer.finished_spans() == []

    def test_exception_unwinding_closes_nested_spans(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        with pytest.raises(RuntimeError):
            with clock.span("outer"):
                with clock.span("inner"):
                    raise RuntimeError("boom")
        assert all(s.end_s is not None for s in tracer.spans)

    def test_span_ids_are_unique_and_increasing(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        for index in range(5):
            with clock.span(f"s{index}"):
                clock.advance(0.1)
        ids = [span.id for span in tracer.spans]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_an_epoch_is_the_spans_after_a_mark(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        with clock.span("a") as first:
            clock.note("a-note")
        spans, instants = len(tracer.spans), len(tracer.instants)
        with clock.span("b") as span:
            clock.note("b-note")
        assert [s.name for s in tracer.spans[spans:]] == ["b"]
        assert [i.name for i in tracer.instants[instants:]] == ["b-note"]
        assert [t.name for t in tracer.tracks()] == ["main"]
        # Ids keep counting across the mark: nothing rewinds them.
        assert span.id == first.id + 1


class TestNullSpan:
    def test_detached_clock_hands_out_the_shared_null_span(self):
        clock = SimClock()
        assert clock.tracer is None
        assert clock.span("anything", label=1) is NULL_SPAN
        assert clock.instant("tick") is NULL_SPAN

    def test_null_span_supports_the_full_span_protocol(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN
            assert span.annotate(bytes=1) is NULL_SPAN

    def test_detach_makes_telemetry_free_again(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        with clock.span("recorded"):
            pass
        assert clock.detach_tracer() is tracer
        assert clock.span("dropped") is NULL_SPAN
        assert len(tracer.finished_spans()) == 1


class TestSpawnParenting:
    def test_spawned_process_inherits_spawner_span(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        child_spans = []

        def worker():
            with clock.span("child_work") as span:
                clock.advance(1.0)
            child_spans.append(span)

        with SimScheduler(clock) as scheduler:
            with clock.span("parent") as parent:
                scheduler.spawn(worker, name="worker")
                scheduler.run()
        (child,) = child_spans
        assert child.parent_id == parent.id
        assert child.track != parent.track
        names = [t.name for t in tracer.tracks()]
        assert names == ["main", "worker"]

    def test_sibling_processes_get_separate_tracks(self):
        clock = SimClock()
        tracer = clock.attach_tracer()

        def worker():
            with clock.span("w"):
                clock.advance(1.0)

        with SimScheduler(clock) as scheduler:
            for index in range(3):
                scheduler.spawn(worker, name=f"w{index}")
            scheduler.run()
        tracks = {s.track for s in tracer.finished_spans()}
        assert len(tracks) == 3


def _span_index(tracer):
    return {span.id: span for span in tracer.finished_spans()}


class TestDeploymentSpanTree:
    """Structural invariants over a real traced Gear deployment."""

    @pytest.fixture()
    def traced_deploy(self, small_corpus):
        testbed = make_testbed(bandwidth_mbps=100)
        publish_images(testbed, small_corpus.images, convert=True)
        tracer = testbed.attach_tracer()
        generated = small_corpus.by_series["nginx"][0]
        result = deploy_with_gear(testbed, generated)
        return tracer, result

    def test_every_parent_exists(self, traced_deploy):
        tracer, _ = traced_deploy
        by_id = _span_index(tracer)
        for span in tracer.finished_spans():
            assert span.parent_id is None or span.parent_id in by_id

    def test_same_track_children_nest_within_parents(self, traced_deploy):
        tracer, _ = traced_deploy
        by_id = _span_index(tracer)
        for span in tracer.finished_spans():
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            if parent.track != span.track:
                continue
            assert span.start_s >= parent.start_s - 1e-9
            assert span.end_s <= parent.end_s + 1e-9

    def test_deploy_span_matches_report_total(self, traced_deploy):
        tracer, result = traced_deploy
        (deploy,) = [
            s for s in tracer.finished_spans() if s.name == "deploy"
        ]
        assert deploy.duration_s == pytest.approx(result.total_s, abs=1e-9)

    def test_tracing_moves_no_virtual_number(self, traced_deploy, small_corpus):
        _, traced = traced_deploy
        testbed = make_testbed(bandwidth_mbps=100)
        publish_images(testbed, small_corpus.images, convert=True)
        untraced = deploy_with_gear(
            testbed, small_corpus.by_series["nginx"][0]
        )
        assert traced == untraced

    def test_critical_path_covers_the_makespan(self, traced_deploy):
        tracer, result = traced_deploy
        report = critical_path(tracer, root="deploy")
        assert report is not None
        assert report.coverage >= 0.95
        assert report.phase_sum() == pytest.approx(report.total_s, abs=1e-9)
        assert report.total_s == pytest.approx(result.total_s, abs=1e-9)

    def test_expected_phases_appear(self, traced_deploy):
        tracer, _ = traced_deploy
        names = {s.name for s in tracer.finished_spans()}
        assert {"deploy", "pull_index", "fetch_file", "link"} <= names


def _traced_ha_wave(seed: str, images):
    """A faulty + hedged HA fleet wave with the tracer attached.

    Returns the exported (trace_json, metrics_json) pair — the byte
    strings the determinism gate compares.
    """
    slow = FaultPlan(
        brownouts=(BrownoutWindow(start_s=0.0, duration_s=1e9, factor=8.0),),
        seed=f"{seed}-slow",
    )
    cluster = HACluster(
        3,
        replicas=2,
        bandwidth_mbps=904.0,
        seed=seed,
        replica_fault_plans=[slow],
    )
    testbed = cluster.registry_testbed
    publish_images(testbed, images, convert=True)
    testbed.arm_faults()
    tracer = testbed.attach_tracer()
    generated_ref = images[0]
    cluster.deploy_wave(
        lambda node: deploy_with_gear(node.testbed, generated_ref),
        concurrency=3,
    )
    return trace_json(tracer), dump_json(metrics_snapshot(testbed.metrics))


class TestExportDeterminism:
    @pytest.mark.parametrize("seed", ["obs-seed-a", "obs-seed-b"])
    def test_double_run_is_byte_identical(self, seed, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        first = _traced_ha_wave(seed, [generated])
        second = _traced_ha_wave(seed, [generated])
        assert first[0] == second[0], "trace JSON diverged between runs"
        assert first[1] == second[1], "metrics JSON diverged between runs"

    def test_wave_trace_has_per_client_tracks(self, small_corpus):
        generated = small_corpus.by_series["nginx"][0]
        trace, _ = _traced_ha_wave("obs-seed-a", [generated])
        assert '"node-000"' in trace
        assert '"node-002"' in trace

    def test_chrome_trace_shape(self):
        clock = SimClock()
        tracer = clock.attach_tracer()
        with clock.span("deploy", ref="app:v1"):
            clock.advance(1.5, "pull")
        doc = chrome_trace(tracer)
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        completes = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert metas[0]["args"]["name"] == "main"
        (span_event,) = completes
        assert span_event["name"] == "deploy"
        assert span_event["dur"] == pytest.approx(1.5e6)
        assert span_event["args"]["ref"] == "app:v1"
        (instant_event,) = instants
        assert instant_event["name"] == "pull"
        assert instant_event["ts"] == pytest.approx(1.5e6)


class TestCompatShim:
    """Advance labels as instants: the old ``SimClock.trace`` view, read
    off the tracer."""

    def test_trace_flag_records_advance_labels(self):
        clock = SimClock()
        clock.attach_tracer()
        clock.advance(1.0, "pull")
        clock.advance(2.0, "run")
        assert [(e.at_s, e.name) for e in clock.tracer.instants] == [(1.0, "pull"), (3.0, "run")]

    def test_untraced_clock_has_empty_trace(self):
        clock = SimClock()
        clock.advance(1.0, "pull")
        assert clock.tracer is None

    def test_note_lands_in_the_compat_view(self):
        clock = SimClock()
        clock.attach_tracer()
        clock.advance(0.5)
        clock.note("checkpoint")
        assert [(e.at_s, e.name) for e in clock.tracer.instants] == [(0.5, "checkpoint")]

    def test_unlabeled_advance_records_nothing(self):
        clock = SimClock()
        clock.attach_tracer()
        clock.advance(1.0)
        assert clock.tracer.instants == []
