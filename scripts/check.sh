#!/usr/bin/env sh
# Repo health gate: tier-1 tests with warnings as errors and the wide
# Hypothesis profile, the rulebook (scripts/guards.py: every source guard
# and the census, one table), the determinism gate (all ten rows of the
# repro.cli gate table, double-run), the checked-in perf-trajectory
# artifacts, the perf ledger's output checks and harness tests, and a
# full bytecode compile.
#
# Usage: sh scripts/check.sh   (from the repo root)
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 test suite under -W error, wide Hypothesis profile =="
# Tier-1 alone replays a small fixed example set (tests/conftest.py);
# here the property tests draw fresh examples, at their full counts.
python -W error -m pytest -x -q --hypothesis-profile=wide

echo "== the rulebook: source guards and the census =="
# scripts/guards.py holds the repo's structural rules as one table, each
# row a rule, its DESIGN.md section, the files it reads, an ast matcher
# and the sites where a match is allowed; tests/test_guards.py turns each
# rule red with its mutants.  Its last two rows are the census
# (scripts/census.py): every defaulted parameter under src/ is set by
# some call, and every definition under src/ is used outside tests/ or
# allowlisted with the DESIGN section that keeps it.  It prints each
# finding as file:line, the enclosing function, the rule and its section.
python scripts/guards.py

echo "== determinism gate: every gate-table row, double-run =="
# Each of the ten rows of repro.cli.GATES (paper, fleet, crash, HA, trace,
# edge, edge equivalence, FaaS, chunks, SLO) at seeds 11 and 42 — a row
# without a seed flag once — runs twice under -W error.  Every run must
# exit 0, which certifies the row's own invariants (the paper's shape
# claims, resume equivalence, zero degraded deploys, span coverage, ...),
# and the two runs must emit byte-identical stdout and, for trace,
# byte-identical --out-dir exports.  The two runs are fresh interpreters
# on purpose: string-hash randomisation differs between them, so a set or
# dict order leaking into a report shows here and would not in-process.
gate_tmp="$(mktemp -d)"
trap 'rm -rf "$gate_tmp"' EXIT
python - > "$gate_tmp/rows.txt" <<'EOF'
from repro.cli import GATES, SEED, gate_argv
for name, row in GATES.items():
    for seed in (11, 42) if SEED in row else (11,):
        print(name, seed, *gate_argv(name, seed))
EOF
while read -r gate seed argv; do
    for run in 1 2; do
        out="$gate_tmp/$gate-$seed-run$run"
        mkdir "$out"
        case "$argv" in trace*) exports="--out-dir $out" ;; *) exports="" ;; esac
        # Unquoted on purpose: no gate argument holds a space.
        python -W error -m repro.cli $argv $exports > "$out.json" \
            || { echo "gate $gate (seed $seed, run $run) failed:" \
                      "python -m repro.cli $argv $exports" >&2; exit 1; }
    done
    diff "$gate_tmp/$gate-$seed-run1.json" "$gate_tmp/$gate-$seed-run2.json"
    diff -r "$gate_tmp/$gate-$seed-run1" "$gate_tmp/$gate-$seed-run2"
done < "$gate_tmp/rows.txt"
echo "$(wc -l < "$gate_tmp/rows.txt") gate runs identical across fresh interpreters"

echo "== perf-trajectory artifacts =="
# Regenerate the checked-in BENCH_ext_*.json artifacts; a PR that moves
# any simulated number must commit the refreshed artifacts with it.  (The
# full-size paper run is `artifacts.py --full`, by hand: tier-1 reads it.)
python benchmarks/artifacts.py
if command -v git >/dev/null 2>&1 && git rev-parse --git-dir >/dev/null 2>&1
then
    git diff --exit-code -- benchmarks/artifacts \
        || { echo "BENCH_ext artifacts drifted: commit the refreshed \
benchmarks/artifacts/*.json" >&2; exit 1; }
    # An artifact git does not track yet (a new GATES row's) is no diff,
    # and a fresh clone would lack it: it fails here too.
    untracked="$(git status --porcelain -- benchmarks/artifacts)"
    [ -z "$untracked" ] \
        || { echo "benchmarks/artifacts holds files git does not track:" >&2
             echo "$untracked" >&2; exit 1; }
fi
echo "perf-trajectory artifacts fresh"

echo "== perf-ledger output checks =="
# One short pass of each ledger workload: the run checks its own outputs
# (every client's filesystem digest equals a sequential control, bytes
# conserved, no failed operation) and says so on its last line.  Host
# timings are not gated here; nothing is written.
for ledger_workload in wave microflows convert seqdeploy fabrics chunkreads; do
    python3 benchmarks/ledger/run.py --smoke --workload "$ledger_workload" \
        --seconds 1 | tail -n 1 > "$gate_tmp/ledger-$ledger_workload.json"
    grep -q '"correct": true' "$gate_tmp/ledger-$ledger_workload.json" \
        && grep -q '"failed": 0[,}]' "$gate_tmp/ledger-$ledger_workload.json" \
        || { echo "ledger workload $ledger_workload failed its output checks" >&2
             cat "$gate_tmp/ledger-$ledger_workload.json" >&2; exit 1; }
done
echo "ledger outputs correct on all six workloads"
# The traced pass wraps the program's boundaries from outside; on `wave`
# the wrapped names are now facades over driven generators, stepped on
# the loop thread inside other wrapped calls.
python3 benchmarks/ledger/run.py --smoke --workload wave --seconds 1 --trace 1 \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "traced ledger pass of wave failed" >&2; exit 1; }
echo "traced wave pass correct"

echo "== perf-ledger harness tests =="
python -m pytest benchmarks/ledger/tests/test_ledger.py -q

echo "== compileall src =="
python -m compileall -q src

echo "all checks passed"
