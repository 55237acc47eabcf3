"""Perf ledger: run the workloads, print every metric, check the outputs.

    python3 benchmarks/ledger/run.py [--workload W] [--seed S] [--seconds T]
                                     [--trace [0|1]] [--out FILE]
                                     [--baseline FILE] [--smoke]

(``PYTHONPATH=src python -m benchmarks.ledger.run`` is the same program.)
Without ``--workload`` all six run and the results file is written; with
one workload the last line of standard output is the driver's JSON
object (end-to-end metrics, or the per-layer metrics under ``--trace 1``).

Run discipline.  Every workload runs in fresh subprocesses, each pinned
to one CPU and driven from one harness thread; the program's own thread
processes are the program's business.  ``SETUP_REPEATS`` *timed*
children each import the program, generate the inputs from the seed, run
one untimed warm-up pass (``setup_s`` ends there) and then timed passes
until their share of ``--seconds`` is used (at least one).  Host metrics
are medians over those children and passes, in seconds relative to a
calibration loop run beside them (:func:`_calibrate`); virtual metrics
must come out bit-identical from every pass of every child, and any
drift fails the run.  With ``--trace`` two of the three children become
one *traced* child (one pass under :mod:`tracing`, per-layer
``busy_s``/``calls`` and counters) and one *unpinned* child (what
pinning buys).  End-to-end numbers never come from a traced pass.

A failing operation is counted (``ops_failed_share``, ``failed``), never
raised: the exit code is 0 whenever every selected workload produced a
result, red or green.  It is nonzero only when the harness itself could
not run — for instance without the program's sources next to it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not __package__:
    # Run as a script: load the directory as a package under a private
    # name, so sibling modules import each other relatively without
    # relying on a top-level ``benchmarks`` package being importable.
    import importlib.util

    _spec = importlib.util.spec_from_file_location(
        "ledger", HERE / "__init__.py", submodule_search_locations=[str(HERE)]
    )
    assert _spec is not None and _spec.loader is not None
    _package = importlib.util.module_from_spec(_spec)
    sys.modules["ledger"] = _package
    _spec.loader.exec_module(_package)
    __package__ = "ledger"

from . import metrics  # noqa: E402  (after the script-mode bootstrap)

#: Timed children per run: ``setup_s`` is the median of this many set-ups.
SETUP_REPEATS = 3
#: Measuring time of one run when ``--seconds`` is not given.
DEFAULT_SECONDS = 8.0
#: The speed host times are normalised to: a box on which one
#: :func:`_calibrate` loop takes this long (roughly this one, when quiet).
CALIB_NOMINAL_S = 0.1
#: One workload's run, all children together, is abandoned after this
#: long (contract: a run ends within 180 s).
RUN_BUDGET_S = 170.0
WORKLOAD_NAMES = ("wave", "microflows", "convert", "seqdeploy", "fabrics", "chunkreads")


class HarnessError(RuntimeError):
    """The harness could not produce a result (not a counted op failure)."""


# ---------------------------------------------------------------------------
# child side: one subprocess, one workload


def _pin(cpu: int, warnings: List[str]) -> Optional[int]:
    """Pin this process (and every thread it will start) to ``cpu``.

    Returns the CPU actually pinned to, or ``None`` with a recorded
    warning where pinning is unavailable or refused.
    """
    if cpu < 0:
        return None
    setter = getattr(os, "sched_setaffinity", None)
    if setter is None:
        warnings.append("unpinned: os.sched_setaffinity is not available here")
        return None
    try:
        setter(0, {cpu})
    except OSError as error:
        warnings.append(f"unpinned: sched_setaffinity({cpu}) failed: {error}")
        return None
    return cpu


class _Cell:
    """Calibration-loop fodder: attribute access and a method call."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def bump(self, amount: int) -> int:
        self.total += amount
        return self.total


def _calibrate() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now
    (about 0.1 s on the build box): integer arithmetic, then the
    dict / string / tuple / method-call mix a simulator is made of.

    The box's speed drifts by a quarter over minutes (see README.md), so
    every host time is reported *relative to this loop run beside it*:
    ``seconds * CALIB_NOMINAL_S / calibration``.
    """
    collecting = gc.isenabled()
    gc.disable()  # the loop measures the core, not the size of the heap
    try:
        begun = time.perf_counter()
        total = 0
        for i in range(800_000):
            total += (i * i) % 7
        table: Dict[str, int] = {}
        recent: List[Any] = []
        cell = _Cell()
        for i in range(120_000):
            key = "k%d" % (i % 997)
            table[key] = table.get(key, 0) + cell.bump(i)
            recent.append((i, key))
            if len(recent) > 1000:
                recent = recent[500:]
        sorted(table.items())
        return time.perf_counter() - begun
    finally:
        if collecting:
            gc.enable()


def _normalised(seconds: float, calibration_s: float) -> float:
    """Host seconds as they would read on a box where the calibration
    loop takes exactly :data:`CALIB_NOMINAL_S`."""
    return seconds * CALIB_NOMINAL_S / calibration_s


def _one_pass(workload: Any, tracer: Any, nearest_rank: Any) -> Dict[str, Any]:
    """Build a fresh world, time the run, check the outputs."""
    world = workload.build()
    cpu_begun = time.process_time()
    begun = time.perf_counter()
    with tracer.recording():
        raw = workload.run(world, tracer)
    wall_s = time.perf_counter() - begun
    cpu_s = time.process_time() - cpu_begun
    result = workload.check(world, raw)
    latencies = result["latencies_s"]
    virt = {
        "virt_makespan_s": result["makespan_s"],
        "virt_op_p50_s": nearest_rank(latencies, 50) if latencies else 0.0,
        "virt_op_p99_s": nearest_rank(latencies, 99) if latencies else 0.0,
        "virt_net_bytes": result["net_bytes"],
        "virt_store_bytes": result["store_bytes"],
    }
    failures = result["failures"]
    fingerprint = hashlib.sha256(
        json.dumps(
            [virt, result["ops"], sorted(failures), result["outputs"]],
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": result["ops"],
        "failed": min(result["ops"], len(failures)),
        "failures": failures[:5],
        "virt": virt,
        "fingerprint": fingerprint,
        "counters": result["counters"],
    }


def child_main(args: argparse.Namespace) -> int:
    warnings: List[str] = []
    pinned = _pin(args.cpu, warnings)
    calibrations = [_calibrate()]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from . import adapters, tracing, workloads

    workload = workloads.BY_NAME[args.workload]()
    size = dict(workload.sizes["smoke" if args.smoke else "full"])
    size.update(json.loads(args.size_override))
    workload.prepare(args.seed, size)
    null = tracing.NullTracer()
    timed: List[Dict[str, Any]] = []

    def measured(tracer: Any) -> Dict[str, Any]:
        """One pass; then the heap is swept and the core's speed sampled,
        so every pass and every sample starts from the same heap."""
        one = _one_pass(workload, tracer, adapters.nearest_rank)
        gc.collect()
        calibrations.append(_calibrate())
        return one

    passes = [measured(null)]  # warm-up
    setup_raw_s = time.time() - args.spawned_at - sum(calibrations)

    payload: Dict[str, Any] = {"mode": args.child, "pinned_cpu": pinned}
    if args.child == "traced":
        tracer = tracing.Tracer()
        observed = adapters.install_tracing(tracer)
        try:
            traced = measured(tracer)
        finally:
            tracer.uninstall()
        exported = tracer.export()
        problems = tracing.check_tree(exported)
        if problems:
            warnings.append(f"span tree: {len(problems)} problems, first: {problems[0]}")
        counters = traced.pop("counters")
        counters.update(observed())
        if hasattr(workload, "virtual_phases"):
            counters.update(workload.virtual_phases())
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            exported["workload"] = args.workload
            exported["seed"] = args.seed
            tracing.write_trace(args.trace_out, exported)
        payload.update(
            traced=traced,
            counters=counters,
            layers=tracing.summarize(exported)["layers"],
            spans=len(exported["spans"]),
        )
        passes.append(traced)
    else:
        begun = time.perf_counter()
        while True:
            timed.append(measured(null))
            spent = time.perf_counter() - begun
            # Stop when the next pass would overrun this child's share.
            if spent + spent / len(timed) > args.seconds:
                break
        passes += timed
    first = passes[0]
    drifted = [
        index for index, one in enumerate(passes)
        if one["fingerprint"] != first["fingerprint"]
    ]
    # A calibration sample takes 0.1 s and is as noisy as a pass (bursts
    # of a few hundred ms slow either); this child's few seconds share
    # one speed, the median of its samples.
    calib_s = metrics.spread(calibrations)["median"]
    if args.child == "traced":
        traced["wall_raw_s"] = traced["wall_s"]
        traced["wall_s"] = _normalised(traced["wall_s"], calib_s)
    payload.update(
        setup_s=_normalised(setup_raw_s, calib_s),
        setup_raw_s=setup_raw_s,
        wall_s=[_normalised(one["wall_s"], calib_s) for one in timed],
        wall_raw_s=[one["wall_s"] for one in timed],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=first["ops"],
        failed=first["failed"],
        failures=first["failures"],
        virt=first["virt"],
        fingerprint=first["fingerprint"],
        drifted_passes=drifted,
        calib_s=calib_s,
        warnings=warnings,
    )
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# parent side: spawn, aggregate, report


def _spawn(
    mode: str,
    workload: str,
    seed: int,
    seconds: float,
    cpu: int,
    smoke: bool,
    size_override: str,
    deadline: float,
    trace_out: str = "",
) -> Dict[str, Any]:
    """Run one child to its end, or until the run's ``deadline``
    (``time.monotonic()``)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--cpu", str(cpu), "--size-override", size_override,
        "--trace-out", trace_out,
    ]
    if smoke:
        command.append("--smoke")
    command += ["--spawned-at", repr(time.time())]
    left_s = deadline - time.monotonic()
    try:
        if left_s <= 0:
            raise subprocess.TimeoutExpired(command, 0)
        done = subprocess.run(
            command, cwd=str(ROOT), capture_output=True, text=True, timeout=left_s,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(
            f"{workload}: run not finished after {RUN_BUDGET_S:g} s "
            f"(in its {mode} child)"
        )
    if done.returncode != 0:
        raise HarnessError(
            f"{workload}: {mode} child exited {done.returncode}:\n"
            + done.stderr[-2000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _pin_target() -> int:
    getter = getattr(os, "sched_getaffinity", None)
    if getter is None:
        return 0  # the child will record that it could not pin
    return max(getter(0))


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    size_override: str = "{}",
) -> Dict[str, Any]:
    """All children of one workload, folded into one record.

    A traced run is for the per-layer metrics: it spends two of its
    three children on the traced and the unpinned pass and keeps one
    timed child as their reference, so it costs what a plain run costs.
    """
    cpu = _pin_target()
    deadline = time.monotonic() + RUN_BUDGET_S
    share = seconds / SETUP_REPEATS
    children = [
        _spawn("timed", name, seed, share, cpu, smoke, size_override, deadline)
        for _ in range(1 if trace else SETUP_REPEATS)
    ]
    extra: List[Dict[str, Any]] = []
    if trace:
        trace_out = str(HERE / "out" / f"trace_{name}.json")
        extra.append(_spawn(
            "traced", name, seed, 0.0, cpu, smoke, size_override, deadline, trace_out
        ))
        extra.append(_spawn(
            "unpinned", name, seed, share, -1, smoke, size_override, deadline
        ))

    first = children[0]
    everyone = children + extra
    problems: List[str] = list(first["failures"])
    for child in everyone:
        if child["drifted_passes"]:
            problems.append(
                f"virtual results drifted between passes of one {child['mode']} child"
            )
        if child["fingerprint"] != first["fingerprint"]:
            problems.append(
                f"virtual results of the {child['mode']} child differ from the first child's"
            )
    drift = len(problems) > len(first["failures"])
    ops = first["ops"]
    failed = ops if drift else first["failed"]
    walls = [wall for child in children for wall in child["wall_s"]]
    host = {
        "setup_s": metrics.spread([child["setup_s"] for child in children]),
        "wall_s": metrics.spread(walls),
        "peak_rss_mb": metrics.spread([child["peak_rss_mb"] for child in children]),
    }
    end_to_end: Dict[str, Dict[str, Any]] = {}
    for metric, stats in host.items():
        end_to_end[metric] = {"value": stats["median"], **stats}
    for metric, value in first["virt"].items():
        end_to_end[metric] = {"value": value}
    end_to_end["ops_failed_share"] = {"value": failed / ops if ops else 1.0}
    for metric, entry in end_to_end.items():
        entry["unit"] = metrics.UNITS[metric]
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "ops": ops,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems[:10],
        "warnings": sorted({w for child in everyone for w in child["warnings"]}),
        "pinned_cpu": first["pinned_cpu"],
        "calib_s": metrics.spread([child["calib_s"] for child in everyone])["median"],
        "raw": {
            "setup_s": metrics.spread([child["setup_raw_s"] for child in children]),
            "wall_s": metrics.spread(
                [wall for child in children for wall in child["wall_raw_s"]]
            ),
        },
        "end_to_end": end_to_end,
    }
    if trace:
        record["per_layer"] = _per_layer(extra[0], extra[1], host["wall_s"]["median"], record)
        record["trace_file"] = os.path.relpath(trace_out, ROOT)
    return record


def _per_layer(
    traced: Dict[str, Any], unpinned: Dict[str, Any], wall_s: float,
    record: Dict[str, Any],
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, zero where the workload bypasses a layer."""
    values: Dict[str, float] = {name: 0.0 for name, _, _ in metrics.PER_LAYER}
    layers = traced["layers"]
    for layer in metrics.TRACED_LAYERS:
        # Operation root spans hold the glue between the boundaries:
        # repro.bench.deploy, the startup task model, the harness guard.
        source = layers.get("harness.op" if layer == "bench.deploy" else layer)
        if source:
            values[f"{layer}.busy_s"] = source["busy_s"]
            values[f"{layer}.calls"] = source["calls"]
    counters = traced["counters"]
    for name, value in counters.items():
        if name in values:
            values[name] = value
    run = traced["traced"]
    traced_wall = run["wall_s"]
    fetches = counters.get("gear.viewer.fetches", 0)
    hits = counters.get("gear.viewer.cache_hits", 0)
    seen = counters.get("gear.converter.files_seen", 0)
    makespan = run["virt"]["virt_makespan_s"]
    busy_total = sum(layer["busy_s"] for layer in layers.values())
    values.update({
        "common.clock.events_per_s": counters.get("common.clock.events", 0) / wall_s,
        "common.clock.unpinned_wall_ratio": (
            metrics.spread(unpinned["wall_s"])["median"] / wall_s
        ),
        "net.link.virt_busy_share": (
            counters.get("net.link.virt_busy_s", 0.0) / makespan if makespan else 0.0
        ),
        "gear.viewer.hit_ratio": hits / (hits + fetches) if hits + fetches else 0.0,
        "gear.converter.dedup_ratio": (
            counters.get("gear.converter.files_uploaded", 0) / seen if seen else 0.0
        ),
        "virt.net_bytes": run["virt"]["virt_net_bytes"],
        "virt.store_bytes": run["virt"]["virt_store_bytes"],
        "host.calib_s": record["calib_s"],
        "host.cpu_s": run["cpu_s"],
        # busy_s is raw thread CPU, so it is held against the raw pass time
        "host.untraced_share": max(0.0, 1.0 - busy_total / run["wall_raw_s"]),
        "trace.overhead_ratio": traced_wall / wall_s,
    })
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in metrics.PER_LAYER
    }


def _environment(
    seed: int, records: Sequence[Dict[str, Any]], load_average: Any
) -> Dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": records[0]["pinned_cpu"] if records else None,
        "load_average_at_start": load_average,
        "python": platform.python_version(),
        "host.calib_s": (
            metrics.spread([r["calib_s"] for r in records])["median"]
            if records else None
        ),
        "seed": seed,
        "git_commit": commit,
    }


def _print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    status = "green" if record["correct"] else "RED"
    print(f"== {name}: {record['ops']} ops, {record['failed']} failed, {status}")
    for metric, entry in record["end_to_end"].items():
        line = f"{name:<11} {metric:<40} {entry['value']:>16.9g} {entry['unit']}"
        if "q1" in entry:
            line += (
                f"   [q1 {entry['q1']:.4g}  q3 {entry['q3']:.4g}  min {entry['min']:.4g}"
                f"  max {entry['max']:.4g}  n {entry['n']}]"
            )
        print(line)
    for metric, entry in record.get("per_layer", {}).items():
        print(f"{name:<11} {metric:<40} {entry['value']:>16.9g} {entry['unit']}")
    for problem in record["problems"]:
        print(f"{name:<11} problem: {problem}")
    for warning in record["warnings"]:
        print(f"{name:<11} warning: {warning}")


def driver_line(record: Dict[str, Any], trace: bool) -> str:
    """The contract's last line: exactly the metrics ``BENCHMARK.json``
    names for this kind of run."""
    if trace:
        chosen = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["per_layer"].items()
        }
    else:
        chosen = {
            name: {"value": record["end_to_end"][name]["value"], "unit": unit}
            for name, unit, _, _ in metrics.END_TO_END
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["ops"],
        "failed": record["failed"],
        "metrics": chosen,
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time of one run, split over the timed children")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="the per-layer run: one timed, one traced, one unpinned child")
    parser.add_argument("--out", default=str(HERE / "out" / "results.json"),
                        help="results file (written when all workloads run)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="compare the results with an earlier results file "
                             "(compare.py) and exit 1 on a regression: the exact "
                             "gate on virt_* and ops_failed_share")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the ledger's own tests")
    parser.add_argument("--size-override", default="{}", help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=("timed", "traced", "unpinned"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, default=-1, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: the program's sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    load_average = os.getloadavg() if hasattr(os, "getloadavg") else None
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    try:
        for name in names:
            record = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke,
                args.size_override,
            )
            _print_record(record)
            records.append(record)
    except HarnessError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 1
    results = {
        "env": _environment(args.seed, records, load_average),
        "trace": bool(args.trace), "smoke": args.smoke, "seconds": args.seconds,
        "workloads": {record["workload"]: record for record in records},
    }
    if args.workload is None or args.out != parser.get_default("out"):
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
        print(f"wrote {args.out}")
    status = 0
    if args.baseline:
        from . import compare

        with open(args.baseline) as handle:
            status = compare.report(json.load(handle), results)
    if args.workload:
        print(driver_line(records[0], bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
