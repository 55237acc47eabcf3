"""The ledger's own tests, on ``--smoke`` sizes.  Run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests/test_ledger.py -q

(``testpaths`` keeps this directory out of the tier-1 suite.)
"""

from __future__ import annotations

import gc
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
RUN = [sys.executable, str(LEDGER / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


sys.path.insert(0, str(ROOT))  # pytest puts this directory there, not the root
from benchmarks.ledger import compare, metrics, run, tracing  # noqa: E402


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + list(args), cwd=str(ROOT), capture_output=True, text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two complete smoke runs of the same seed: one traced, one not."""
    out = tmp_path_factory.mktemp("ledger")
    results = []
    for name, trace in (("a.json", "1"), ("b.json", "0")):
        path = out / name
        done = _run("--smoke", "--seconds", "0.3", "--trace", trace,
                    "--out", str(path))
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        results.append(json.loads(path.read_text()))
    return results


def test_benchmark_json_names_what_the_ledger_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert bench["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    from benchmarks.ledger import workloads  # imports the program: needs PYTHONPATH=src

    assert [(w.name, w.why) for w in workloads.WORKLOADS] == [
        (w["name"], w["why"]) for w in bench["workloads"]
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == [tuple(entry) for entry in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == [tuple(entry) for entry in metrics.PER_LAYER]
    assert len(bench["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])


def test_every_metric_present_for_every_workload(smoke):
    traced, _ = smoke
    wanted_e2e = [name for name, *_ in metrics.END_TO_END + metrics.EXACT_ONLY]
    wanted_layers = [name for name, *_ in metrics.PER_LAYER]
    assert list(traced["workloads"]) == list(run.WORKLOAD_NAMES)
    for name, record in traced["workloads"].items():
        assert record["correct"], (name, record["problems"])
        assert record["end_to_end"]["ops_failed_share"]["value"] == 0
        assert sorted(record["end_to_end"]) == sorted(wanted_e2e), name
        assert list(record["per_layer"]) == wanted_layers, name
        for metric, entry in {**record["end_to_end"], **record["per_layer"]}.items():
            assert NAME.fullmatch(metric)
            assert isinstance(entry["value"], (int, float)), (name, metric)
            assert entry["unit"] == metrics.UNITS[metric]
    env = traced["env"]
    assert {"nproc", "pinned_cpu", "load_average_at_start", "python",
            "host.calib_s", "seed", "git_commit"} <= set(env)


def test_two_runs_agree_exactly_on_every_virtual_metric(smoke):
    first, second = smoke
    rows = compare.compare(first, second, compare.load_bounds())
    exact = [row for row in rows if row[1] not in compare.HOST_METRICS]
    assert len(exact) == 6 * len(run.WORKLOAD_NAMES)
    assert all(row[-1] == "unchanged" for row in exact), [
        row for row in exact if row[-1] != "unchanged"
    ]


def test_layers_a_workload_bypasses_stay_silent(smoke):
    """The interaction table's 'nothing elsewhere' predictions."""
    workloads = smoke[0]["workloads"]

    def calls(workload, layer):
        return workloads[workload]["per_layer"][f"{layer}.calls"]["value"]

    assert calls("chunkreads", "gear.bigfile") > 0
    for other in ("wave", "microflows", "convert", "seqdeploy", "fabrics"):
        assert calls(other, "gear.bigfile") == 0
    for layer in ("net.ha", "net.edge", "net.faas"):
        assert calls("fabrics", layer) > 0
        assert calls("wave", layer) == calls("seqdeploy", layer) == 0
    for layer in ("gear.viewer", "gear.pool", "gear.driver", "net.transport"):
        assert calls("microflows", layer) == 0
    assert calls("convert", "common.clock") > 0  # SimClock.advance only
    assert workloads["convert"]["per_layer"]["common.clock.events"]["value"] == 0
    assert calls("convert", "workloads.corpus") == 1
    assert calls("seqdeploy", "docker.daemon") > 0


def test_span_tree_of_a_real_trace_is_well_formed(smoke):
    record = smoke[0]["workloads"]["wave"]
    exported = json.loads((ROOT / record["trace_file"]).read_text())
    assert exported["fields"] == list(tracing.SPAN_FIELDS)
    assert len(exported["spans"]) > 100
    assert tracing.check_tree(exported) == []
    # One trace id per operation: every deploy's root span has its own.
    roots = [span for span in exported["spans"] if span[3] == "op.deploy"]
    assert len(roots) == record["ops"]
    assert len({span[2] for span in roots}) == len(roots)


def test_tracer_self_times_threads_and_generators():
    class Layer:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            return i * i

        def stream(self, n):
            total = 0
            for i in range(n):
                total += yield i
            return total

    tracer = tracing.Tracer()
    tracer.wrap(Layer, "outer", "a")
    tracer.wrap(Layer, "inner", "b")
    tracer.wrap(Layer, "stream", "c")
    layer = Layer()
    try:
        assert layer.outer(3) == 5  # installed but not recording: no spans
        assert tracer.spans == []
        with tracer.recording():
            with tracer.op("op.main"):
                assert layer.outer(4) == 14
            worker = threading.Thread(target=layer.outer, args=(2,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            generator = layer.stream(2)
            assert next(generator) == 0
            assert generator.send(10) == 1
            with pytest.raises(StopIteration) as stop:
                generator.send(5)
            assert stop.value.value == 15
    finally:
        tracer.uninstall()
    assert "__wrapped__" not in vars(Layer.outer)  # restored
    exported = tracer.export()
    assert tracing.check_tree(exported) == []
    summary = tracing.summarize(exported)
    assert summary["boundaries"]["Layer.outer"]["calls"] == 2
    assert summary["boundaries"]["Layer.inner"]["calls"] == 6
    # one generator created, three steps recorded
    assert summary["boundaries"]["Layer.stream"]["calls"] == 1
    assert sum(1 for span in exported["spans"] if span[3] == "Layer.stream") == 3
    by_id = {span[0]: span for span in exported["spans"]}
    main = next(span for span in exported["spans"] if span[3] == "op.main")
    inners = [span for span in exported["spans"] if span[3] == "Layer.inner"]
    on_main = [span for span in inners if span[4] == main[4]]
    assert len(on_main) == 4 and all(span[2] == main[2] for span in on_main)
    assert all(by_id[span[1]][3] == "Layer.outer" for span in inners)
    # the worker thread's spans are their own tree with no operation
    assert {span[2] for span in inners if span[4] != main[4]} == {0}
    assert summary["layers"]["a"]["busy_s"] >= 0


def test_collector_runs_are_billed_to_their_own_layer():
    tracer = tracing.Tracer()
    with tracer.recording():
        with tracer.op("op.main"):
            gc.collect()
    assert tracer._collector_ran not in gc.callbacks  # unhooked again
    exported = tracer.export()
    assert tracing.check_tree(exported) == []
    main = next(span for span in exported["spans"] if span[3] == "op.main")
    runs = [span for span in exported["spans"] if span[3] == tracing.GC_SPAN]
    assert runs and all(span[1] == main[0] and span[2] == main[2] for span in runs)
    layers = tracing.summarize(exported)["layers"]
    assert layers[tracing.GC_LAYER]["calls"] == len(runs)


def test_a_broken_tree_is_reported():
    exported = {
        "fields": list(tracing.SPAN_FIELDS), "layers": {"x": "l"},
        "generator_calls": {},
        "spans": [[1, 0, 0, "x", 1, 0.0, 1.0, 0.0, 1.0],
                  [2, 1, 0, "x", 1, 0.5, 1.5, 0.5, 0.6],
                  [3, 9, 0, "x", 1, 0.1, 0.2, 0.1, 0.2]],
    }
    problems = tracing.check_tree(exported)
    assert any("not inside parent" in problem for problem in problems)
    assert any("unknown parent" in problem for problem in problems)


def test_a_raising_op_is_counted_not_thrown():
    """Chunk faults the default retry ladders cannot ride out: readers
    raise (the 256 MiB ``chunk-faults`` crash of the CLI, in small)."""
    done = _run("--workload", "chunkreads", "--smoke", "--seconds", "0.2",
                "--size-override", json.dumps({"drop_rate": 0.5, "big_mib": 16}))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr + done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]
    assert "ops_failed_share" in done.stdout


def test_unpinnable_platform_falls_back_with_a_warning(monkeypatch):
    warnings = []
    assert run._pin(10 ** 6, warnings) is None  # no such CPU: OSError
    assert len(warnings) == 1 and warnings[0].startswith("unpinned:")
    monkeypatch.delattr(run.os, "sched_setaffinity")
    assert run._pin(0, warnings) is None
    assert "not available" in warnings[1]
    assert run._pin(-1, warnings) is None and len(warnings) == 2  # by request


def test_unpinned_child_still_measures_and_says_so():
    done = subprocess.run(
        RUN + ["--child", "timed", "--workload", "microflows", "--smoke",
               "--seconds", "0.05", "--cpu", str(10 ** 6)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    assert payload["pinned_cpu"] is None
    assert payload["wall_s"] and payload["warnings"][0].startswith("unpinned:")


def _entry(median, q1, q3):
    return {"value": median, "median": median, "q1": q1, "q3": q3}


@pytest.mark.parametrize("new, expected", [
    (_entry(1.00, 0.99, 1.01), "unchanged"),
    (_entry(1.30, 1.28, 1.33), "regressed"),
    (_entry(0.50, 0.49, 0.51), "improved"),
    (_entry(0.70, 0.60, 1.10), "unresolved"),  # better median, ranges overlap
    (_entry(1.05, 0.80, 1.40), "unresolved"),  # spread wider than the bound
])
def test_compare_verdicts(new, expected):
    base = _entry(1.00, 0.98, 1.02)
    assert compare.verdict_host(base, new, 0.25) == expected


def test_compare_exits_nonzero_on_a_virtual_regression(smoke, tmp_path):
    first, _ = smoke
    worse = json.loads(json.dumps(first))
    worse["workloads"]["wave"]["end_to_end"]["virt_net_bytes"]["value"] += 1
    base_path, new_path = tmp_path / "base.json", tmp_path / "new.json"
    base_path.write_text(json.dumps(first))
    new_path.write_text(json.dumps(worse))
    assert compare.main([str(base_path), str(base_path)]) == 0
    assert compare.main([str(base_path), str(new_path)]) == 1
    failing = json.loads(json.dumps(first))
    failing["workloads"]["wave"]["end_to_end"]["ops_failed_share"]["value"] = 0.5
    assert compare.report(first, failing) == 1


def test_compare_refuses_results_that_lost_a_workload_or_a_metric(smoke):
    first, _ = smoke
    fewer = json.loads(json.dumps(first))
    del fewer["workloads"]["fabrics"]
    assert compare.report(first, fewer) == compare.report(fewer, first) == 2
    thinner = json.loads(json.dumps(first))
    del thinner["workloads"]["wave"]["end_to_end"]["virt_net_bytes"]
    assert compare.report(first, thinner) == 2
    other_seed = json.loads(json.dumps(first))
    other_seed["env"]["seed"] += 1
    assert compare.report(first, other_seed) == 2


def test_baseline_gate_runs_inside_the_run_command(smoke, tmp_path):
    """``--baseline``: the exact gate on virtual metrics, wired into the run."""
    _, plain = smoke
    base = json.loads(json.dumps({**plain, "workloads": {
        "microflows": plain["workloads"]["microflows"]}}))
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base))
    same = _run("--smoke", "--workload", "microflows", "--seconds", "0.2",
                "--baseline", str(base_path))
    assert same.returncode == 0, same.stdout + same.stderr
    base["workloads"]["microflows"]["end_to_end"]["virt_makespan_s"]["value"] -= 1e-9
    base_path.write_text(json.dumps(base))
    worse = _run("--smoke", "--workload", "microflows", "--seconds", "0.2",
                 "--baseline", str(base_path))
    assert worse.returncode == 1
    assert "regressed" in worse.stdout
    assert json.loads(worse.stdout.strip().splitlines()[-1])["correct"] is True
