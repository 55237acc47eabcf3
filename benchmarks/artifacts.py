#!/usr/bin/env python
"""Emit the checked-in perf-trajectory artifacts (``BENCH_ext_*.json``).

One small, fully deterministic scenario per row of ``repro.cli.GATES``
(the paper's own studies included), each written as a canonical JSON
artifact into ``benchmarks/artifacts/``.  Every number in the artifacts
is *simulated* (virtual seconds, modeled bytes) — never wall clock — so
reruns are byte-identical and a diff against the committed artifact is a
real regression signal, not noise.

``scripts/check.sh`` regenerates the artifacts and fails if they drift
from the committed copies: a PR that changes deploy times, egress, or
failover accounting must commit the refreshed artifacts alongside the
code, which is exactly how the trajectory stays tracked in-repo.

``--full`` additionally records the one full-size run of the ``paper``
sweep (the whole Table I corpus, seed 7; 128 s and 147 s wall over two
runs, 0.94 GB peak RSS, on a 2-core box, so nothing routine passes it)
as ``PAPER_full.json`` and regenerates EXPERIMENTS.md's tables from it.
The file embeds the smoke-size ``paper`` report of the commit that made
it; ``tests/test_paper_full.py`` compares that with
``BENCH_ext_paper.json``, so a change that moves a paper number has to
record the full-size run again.

Usage::

    PYTHONPATH=src python benchmarks/artifacts.py [--out-dir DIR] [--full]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from repro import cli
from repro.bench import paper
from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_testbed, publish_images
from repro.net.faults import FaultPlan, OutageWindow
from repro.net.resilience import RetryPolicy
from repro.workloads.corpus import CorpusBuilder, CorpusConfig

DEFAULT_OUT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")
EXPERIMENTS_MD = os.path.join(
    os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md"
)

#: The seed every seeded gate row is recorded at.
ARTIFACT_SEED = 11

#: CLI-backed artifacts: the rows of the ``repro.cli`` gate table — the
#: same small configurations ``scripts/check.sh`` double-runs, so
#: run-to-run byte-identity is already certified before the numbers land
#: in an artifact.  The edge equivalence row certifies an identity (its
#: report holds no trajectory), so it records nothing.
CLI_SCENARIOS = {
    name: cli.gate_argv(name, ARTIFACT_SEED)
    for name in cli.GATES
    if name != "edge-equivalence"
}

#: The full-size ``paper`` run: ``CorpusConfig()``'s corpus — every series
#: (a bare ``--series``), every version the catalog has, nothing scaled.
FULL_PAPER = ["paper", "--seed", "7", "--scale", "1", "--versions", "20",
              "--series", "--json"]


def _run_cli(argv) -> dict:
    """Run a ``repro.cli`` command in-process; parse its JSON report."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(
            f"artifact scenario failed (exit {code}): {' '.join(argv)}"
        )
    return json.loads(buffer.getvalue())


def _resilience_report() -> dict:
    """One hostile-wire cell (no CLI surface for this extension): drops
    + corruption + a 2 s registry outage, and the invariant that faults
    are paid for in virtual time, never in a degraded deployment.
    """
    corpus = CorpusBuilder(
        CorpusConfig(
            seed=7, file_scale=0.2, size_scale=0.2,
            series_names=("nginx",), versions_cap=2,
        )
    ).build()
    sample = corpus.by_series["nginx"]
    plan = FaultPlan(
        seed="artifact-resilience",
        drop_rate=0.05,
        corrupt_rate=0.05,
        timeout_s=0.2,
        outages=(OutageWindow(start_s=0.0, duration_s=2.0),),
        targets=("gear-registry",),
    )
    policy = RetryPolicy(max_attempts=6, base_backoff_s=0.1,
                         max_backoff_s=4.0, deadline_s=60.0, budget_s=600.0)
    testbed = make_testbed(fault_plan=plan, retry_policy=policy)
    testbed.disarm_faults()
    publish_images(testbed, sample, convert=True)
    testbed.arm_faults()
    report = {"drop_rate": 0.05, "corrupt_rate": 0.05, "outage_s": 2.0,
              "images": len(sample), "total_s": 0.0, "retries": 0,
              "errors": 0, "degraded": 0}
    for generated in sample:
        result = deploy_with_gear(testbed, generated)
        report["total_s"] += result.total_s
        report["retries"] += result.retries
        report["errors"] += result.errors
        report["degraded"] += int(result.degraded)
    report["faults_injected"] = testbed.link.fault_stats.total_faults
    if report["degraded"]:
        raise SystemExit("resilience artifact scenario degraded")
    return report


def _write(path: str, payload: dict) -> str:
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True))
        handle.write("\n")
    return path


def write_artifacts(out_dir: str, full: bool = False) -> list:
    os.makedirs(out_dir, exist_ok=True)
    reports = {name: _run_cli(argv) for name, argv in CLI_SCENARIOS.items()}
    reports["resilience"] = _resilience_report()
    written = [
        _write(
            os.path.join(out_dir, f"BENCH_ext_{name}.json"),
            {"scenario": CLI_SCENARIOS.get(name, ["(inline)"]),
             "report": reports[name]},
        )
        for name in sorted(reports)
    ]
    if full:
        recorded = _run_cli(FULL_PAPER)
        written.append(_write(
            os.path.join(out_dir, "PAPER_full.json"),
            {"scenario": FULL_PAPER, "report": recorded,
             "smoke": reports["paper"]},
        ))
        with open(EXPERIMENTS_MD) as handle:
            document = handle.read()
        with open(EXPERIMENTS_MD, "w") as handle:
            handle.write(paper.splice(document, recorded["cells"]))
        written.append(EXPERIMENTS_MD)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    parser.add_argument(
        "--full", action="store_true",
        help="also record the full-size paper run (~2.5 min) as "
             "PAPER_full.json and regenerate EXPERIMENTS.md's tables",
    )
    args = parser.parse_args(argv)
    for path in write_artifacts(args.out_dir, args.full):
        print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
