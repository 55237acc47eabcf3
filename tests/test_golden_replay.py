"""Golden replay suite: the refactored simulator must replay the past.

The PR-7 speed refactor (generator-native scheduler fast paths, pooled
handoffs, the incremental fair-share link model) is only acceptable if
behaviour is preserved, not just "close".  This suite pins that down
with one seeded workload that deliberately crosses every hot path at
once — mixed generator/call processes, contended flows on a shared
link, sole flows on a fast link, a mid-flight cancellation, SimEvent
waits, joins, spans, instants, and metrics:

* **double-run byte-identity** — running the workload twice must yield
  byte-identical canonical JSON (records, Chrome trace, metrics);
* **fixture field-identity** — the run must match fixtures recorded on
  the *pre-refactor* scheduler (``tests/fixtures/golden_replay_*.json``)
  on two seeds.  Floats are canonicalized to 12 significant digits:
  that absorbs ULP-level reassociation drift from the incremental
  fair-share arithmetic while still detecting any real behaviour change
  (the smallest modelled cost is ~1e-4 s, eight orders of magnitude
  above the tolerance).

Regenerate fixtures (only legitimate when behaviour is *supposed* to
change, alongside refreshed BENCH artifacts)::

    PYTHONPATH=src python tests/test_golden_replay.py --record
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import pytest

from repro.common.clock import SimClock, SimEvent, SimScheduler
from repro.common.errors import FetchCancelledError
from repro.common.rng import rng_for
from repro.net.link import Link
from repro.obs.export import chrome_trace, dump_json, metrics_snapshot
from repro.obs.metrics import MetricSet, MetricsRegistry

SEEDS = ("11", "42")

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture_path(seed: str) -> str:
    return os.path.join(FIXTURE_DIR, f"golden_replay_{seed}.json")


def canonicalize(obj):
    """Round every float to 12 significant digits, recursively.

    Fixture comparisons must tolerate ULP-level drift (float ops
    reassociated by the incremental link model) without tolerating any
    actual behaviour change; 12 significant digits sits comfortably
    between the two regimes.
    """
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: canonicalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    return obj


@dataclass
class GoldenStats(MetricSet):
    transfers: int = 0
    cancelled: int = 0


#: Inclusive upper edges of the transfer-duration buckets.
DURATION_BOUNDS = (0.5, 2.0, 10.0, 60.0)


def duration_buckets(durations: list) -> dict:
    """Durations per bucket (first bound ``>=`` the value, else ``inf``),
    plus their ``sum`` and ``count``."""
    out = {f"le_{bound:g}": 0 for bound in DURATION_BOUNDS}
    out["le_inf"] = 0
    for value in durations:
        bound = next((b for b in DURATION_BOUNDS if value <= b), None)
        out["le_inf" if bound is None else f"le_{bound:g}"] += 1
    out["sum"] = sum(durations, 0.0)
    out["count"] = len(durations)
    return out


def run_workload(seed: str) -> dict:
    """One seeded mixed workload; returns a canonical-JSON-able summary."""
    clock = SimClock()
    tracer = clock.attach_tracer()
    registry = MetricsRegistry()
    golden = registry.register("golden", GoldenStats())
    durations: list = []
    registry.register_callback(
        "golden.duration_s", lambda: duration_buckets(durations)
    )
    shared = Link(clock, bandwidth_mbps=100.0)
    fast = Link(clock, bandwidth_mbps=904.0)
    rng = rng_for("golden-replay", seed)

    plans = []
    for idx in range(6):
        # Client 2 moves 10x the payload so the canceller reliably finds
        # it mid-flight, far from any completion-ordering boundary.
        scale = 10 if idx == 2 else 1
        sizes = [rng.randrange(200_000, 4_000_000) * scale for _ in range(3)]
        thinks = [round(rng.random() * 0.4, 6) for _ in range(3)]
        plans.append((sizes, thinks))
    cancel_at = 2.0 + round(rng.random(), 6)

    with SimScheduler(clock) as scheduler:

        def client(idx, sizes, thinks):
            moved = 0
            with clock.span("client", idx=idx):
                for size, think in zip(sizes, thinks):
                    clock.advance(think, f"think-{idx}")
                    try:
                        duration = shared.transfer(size, label=f"c{idx}")
                    except FetchCancelledError as error:
                        golden.cancelled += 1
                        moved += error.bytes_transferred
                        continue
                    golden.transfers += 1
                    durations.append(duration)
                    moved += size
            return moved

        procs = [
            scheduler.spawn(client, idx, sizes, thinks, name=f"client-{idx}")
            for idx, (sizes, thinks) in enumerate(plans)
        ]
        gate = SimEvent(clock)

        def watcher():
            yield 0.25
            yield procs[0]  # generator joining a call process
            gate.fire()
            yield None  # bare reschedule
            yield 0.125
            return "watched"

        def sleeper(steps):
            waited = 0.0
            yield gate  # generator waiting on a SimEvent
            for i in range(steps):
                delay = 0.05 * (i + 1)
                yield delay
                waited += delay
            return round(waited, 9)

        def canceller():
            clock.advance(cancel_at, "cancel-arm")
            victims = shared.cancel_flows(procs[2])
            gate.wait()  # call process waiting on a SimEvent
            return victims

        def bulk():
            total = 0.0
            for i in range(3):
                total += fast.transfer(1_000_000 + i, label=f"bulk-{i}")
                clock.advance(0.01, "bulk-think")
            return round(total, 9)

        procs.append(scheduler.spawn(watcher, name="watcher"))
        # Spawn a generator *object* (not function) to cover that path.
        procs.append(scheduler.spawn(sleeper(3), name="sleeper"))
        procs.append(scheduler.spawn(canceller, name="canceller"))
        procs.append(scheduler.spawn(bulk, name="bulk"))
        scheduler.run()

    return {
        "seed": seed,
        "final_now": clock.now,
        "shared_records": [
            [r.start, r.duration, r.payload_bytes, r.label]
            for r in shared.log.records
        ],
        "fast_records": [
            [r.start, r.duration, r.payload_bytes, r.label]
            for r in fast.log.records
        ],
        "shared_totals": [
            shared.log.total_bytes,
            shared.log.total_time,
            shared.log.total_requests,
        ],
        "busy_seconds": shared.busy_seconds,
        "processes": [
            [p.name, p.started_at, p.finished_at, p.result] for p in procs
        ],
        "trace": chrome_trace(tracer),
        "metrics": metrics_snapshot(registry),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_double_run_byte_identical(seed):
    first = dump_json(run_workload(seed))
    second = dump_json(run_workload(seed))
    assert first == second


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_recorded_fixture(seed):
    with open(_fixture_path(seed)) as handle:
        recorded = json.load(handle)
    assert canonicalize(run_workload(seed)) == recorded


@pytest.mark.parametrize("seed", SEEDS)
def test_workload_exercises_hot_paths(seed):
    """The workload must actually cross the paths it claims to pin."""
    summary = run_workload(seed)
    metrics = summary["metrics"]
    assert metrics["golden.transfers"] > 0
    assert metrics["golden.cancelled"] >= 1  # mid-flight cancellation hit
    labels = [record[3] for record in summary["shared_records"]]
    assert any(label.endswith(":cancelled") or label == "cancelled"
               for label in labels)
    # Contention happened: some shared-link record outlasts its nominal
    # sole-flow cost (duration is the stretched elapsed time).
    nominal = [
        Link(SimClock(), bandwidth_mbps=100.0).transfer_time(record[2])
        for record in summary["shared_records"]
    ]
    assert any(record[1] > cost * 1.5
               for record, cost in zip(summary["shared_records"], nominal))
    names = [row[0] for row in summary["processes"]]
    assert names == [
        "client-0", "client-1", "client-2", "client-3", "client-4",
        "client-5", "watcher", "sleeper", "canceller", "bulk",
    ]


def _record() -> None:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    for seed in SEEDS:
        path = _fixture_path(seed)
        summary = canonicalize(run_workload(seed))
        with open(path, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path)}")


if __name__ == "__main__":
    import sys

    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
