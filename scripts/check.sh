#!/usr/bin/env sh
# Repo health gate: tier-1 tests, warnings-as-errors on the fault-injection,
# scheduler, journal/recovery, heap-budget, HA + download-chain, telemetry,
# edge, FaaS, chunk read-path, and VFS suites, the one-download-chain and
# one-read-path source guards, fleet-contention / crash / HA / trace /
# edge / FaaS / chunk
# determinism gates, the checked-in perf-trajectory artifacts, the perf
# ledger's output checks and harness tests, and a full bytecode compile.
#
# Usage: sh scripts/check.sh   (from the repo root)
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 test suite =="
python -m pytest -x -q

echo "== fault-injection suite under -W error =="
python -W error -m pytest tests/test_net_faults.py -q

echo "== scheduler suites under -W error =="
python -W error -m pytest tests/test_sim_scheduler.py tests/test_sim_drive.py \
    tests/test_sim_cost.py -q

echo "== journal/recovery and heap-budget suites under -W error =="
python -W error -m pytest tests/test_gear_journal.py tests/test_gear_recovery.py \
    tests/test_heap_budget.py -q

echo "== HA registry and download-chain suites under -W error =="
python -W error -m pytest tests/test_net_ha.py tests/test_gear_replication.py \
    tests/test_net_chain.py -q

echo "== telemetry suites under -W error =="
python -W error -m pytest tests/test_obs_trace.py tests/test_obs_metrics.py \
    tests/test_obs_timeline.py tests/test_obs_slo.py \
    tests/test_metrics_groups.py tests/test_readiness_golden.py -q

echo "== edge/P2P suites under -W error =="
python -W error -m pytest tests/test_net_edge.py tests/test_gear_gc.py -q

echo "== FaaS tier suites under -W error =="
python -W error -m pytest tests/test_net_faas.py tests/test_workloads_schedule.py \
    tests/test_common_stats.py -q

echo "== one download chain: the copies must not grow back =="
# The whole-round backoff lives in resilience.py (transport.py retries
# single attempts), and the fabrics stay below the bench layer.
if grep -l "next_backoff(" src/repro/net/*.py | grep -v -e /resilience.py -e /transport.py \
    || grep -n "from repro.bench" src/repro/net/edge.py src/repro/net/faas.py
then echo "a fabric grew its own backoff tail or imports repro.bench" >&2; exit 1; fi

echo "== one read path: a synchronous twin must not grow back =="
# Each blocking function on the plain Gear read path exists once, as a
# generator; its sync name is a facade over SimScheduler.drive (DESIGN.md
# §5).  Thread identity belongs to the scheduler alone.
if grep -rln "threading.get_ident" src/repro --include='*.py' \
    | grep -v '^src/repro/common/clock.py$'
then echo "thread identity used outside common/clock.py" >&2; exit 1; fi
once() {  # once FILE MAX PATTERN: PATTERN occurs at most MAX times in FILE
    count="$(grep -c -- "$3" "$1" || true)"
    [ "$count" -le "$2" ] || {
        echo "$1: '$3' occurs $count times (at most $2): a sync twin grew back" >&2
        exit 1; }
}
once src/repro/gear/viewer.py 1 "def _materialize"
once src/repro/gear/viewer.py 1 "def _fault_in"
once src/repro/gear/viewer.py 1 "def _fetch_remote"
once src/repro/net/transport.py 1 "def _attempt"
once src/repro/net/link.py 0 "def _transfer_flow"

echo "== chunk read-path suites under -W error =="
python -W error -m pytest tests/test_gear_bigfile.py tests/test_gear_chunks.py -q

echo "== VFS suites under -W error =="
python -W error -m pytest tests/test_vfs_*.py -q

echo "== fleet-contention determinism gate =="
# The concurrent simulation must be replayable: two identical sweeps
# have to emit byte-identical JSON reports.
fleet_tmp="$(mktemp -d)"
trap 'rm -rf "$fleet_tmp"' EXIT
fleet_cmd="python -m repro.cli deploy --series nginx --versions 2 \
    --scale 0.2 --clients 8 --bandwidth 100 --json"
$fleet_cmd > "$fleet_tmp/run1.json"
$fleet_cmd > "$fleet_tmp/run2.json"
diff "$fleet_tmp/run1.json" "$fleet_tmp/run2.json"
echo "fleet reports identical across runs"

echo "== crash-sweep determinism gate =="
# Crash injection, fsck, and resume must be replayable too: for each
# seed, two identical sweeps have to emit byte-identical JSON reports
# (and exit 0, which certifies resume equivalence at every crash point).
for crash_seed in 11 42; do
    crash_cmd="python -m repro.cli crash --series nginx --versions 1 \
        --scale 0.2 --target nginx --crash-seed $crash_seed --json"
    $crash_cmd > "$fleet_tmp/crash-$crash_seed-run1.json"
    $crash_cmd > "$fleet_tmp/crash-$crash_seed-run2.json"
    diff "$fleet_tmp/crash-$crash_seed-run1.json" \
        "$fleet_tmp/crash-$crash_seed-run2.json"
done
echo "crash sweeps identical across runs for both seeds"

echo "== HA determinism gate =="
# Failover, hedging, backoff jitter, and load shedding all draw from
# seeded streams: for each seed, two identical HA sweeps have to emit
# byte-identical JSON reports (and exit 0, which certifies that no
# deployment fell back to degraded mode while a replica quorum was
# healthy).  The p2c run exercises the seeded selection stream too.
for ha_seed in 11 42; do
    ha_cmd="python -m repro.cli ha --series nginx --versions 2 \
        --scale 0.2 --clients 6 --concurrency 3 --strategy p2c \
        --ha-seed $ha_seed --json"
    $ha_cmd > "$fleet_tmp/ha-$ha_seed-run1.json"
    $ha_cmd > "$fleet_tmp/ha-$ha_seed-run2.json"
    diff "$fleet_tmp/ha-$ha_seed-run1.json" \
        "$fleet_tmp/ha-$ha_seed-run2.json"
done
echo "HA sweeps identical across runs for both seeds"

echo "== edge determinism gate =="
# Peer selection, gossip jitter, churn, and the mid-serve crash all draw
# from seeded streams: for each seed, two identical churn+byzantine
# sweeps have to emit byte-identical JSON reports (and exit 0, which
# certifies zero degraded deploys, zero integrity violations, and the
# corrupt peer blacklisted).
for edge_seed in 11 42; do
    edge_cmd="python -m repro.cli edge --series nginx --versions 2 \
        --scale 0.2 --target nginx --clients 8 \
        --scenario churn+byzantine --edge-seed $edge_seed --json"
    $edge_cmd > "$fleet_tmp/edge-$edge_seed-run1.json"
    $edge_cmd > "$fleet_tmp/edge-$edge_seed-run2.json"
    diff "$fleet_tmp/edge-$edge_seed-run1.json" \
        "$fleet_tmp/edge-$edge_seed-run2.json"
done
echo "edge sweeps identical across runs for both seeds"

echo "== FaaS spike determinism gate =="
# Arrival schedules, placement, coalescing order, breaker state, and
# backoff jitter all draw from seeded streams: for each seed, two
# identical spike+outage sweeps have to emit byte-identical JSON reports
# (and exit 0, which certifies zero failed invocations, zero duplicate
# upstream fetches, zero integrity violations, and cold-started
# filesystems byte-identical to the fault-free registry-only control).
for faas_seed in 11 42; do
    faas_cmd="python -m repro.cli faas --series nginx --versions 2 \
        --scale 0.2 --functions 10 --duration 8 --rate 4 --nodes 4 \
        --spike-start 3 --spike-len 3 --outage-start 4 --outage-len 1.5 \
        --scenario spike+outage --faas-seed $faas_seed --json"
    $faas_cmd > "$fleet_tmp/faas-$faas_seed-run1.json"
    $faas_cmd > "$fleet_tmp/faas-$faas_seed-run2.json"
    diff "$fleet_tmp/faas-$faas_seed-run1.json" \
        "$fleet_tmp/faas-$faas_seed-run2.json"
done
echo "FaaS sweeps identical across runs for both seeds"

echo "== chunk-sweep determinism gate =="
# The chunk-granular read path draws faults, retry jitter, and the
# mid-chunk crash from seeded streams: for each seed, two identical
# sweeps (clean / chunk-faults / crash / byzantine) have to emit
# byte-identical JSON reports (and exit 0, which certifies every run
# ended byte-identical to the whole-file control with zero poisoned
# commits, zero duplicate chunk fetches, and zero re-fetched salvaged
# chunks after crash recovery).
for chunk_seed in 11 42; do
    chunk_cmd="python -m repro.cli chunks --clients 8 --big-mib 4 \
        --chunk-seed $chunk_seed --json"
    $chunk_cmd > "$fleet_tmp/chunks-$chunk_seed-run1.json"
    $chunk_cmd > "$fleet_tmp/chunks-$chunk_seed-run2.json"
    diff "$fleet_tmp/chunks-$chunk_seed-run1.json" \
        "$fleet_tmp/chunks-$chunk_seed-run2.json"
done
echo "chunk sweeps identical across runs for both seeds"

echo "== readiness/SLO determinism gate =="
# The SLO command already double-runs every scenario internally (exit 1
# on any violated objective, any burn-rate breach, or any intra-run
# byte drift); the gate additionally double-runs the whole command per
# seed under -W error, so the full report — sampled timelines included
# — must be byte-identical across processes too.
for slo_seed in 11 42; do
    slo_cmd="python -W error -m repro.cli slo --series nginx --versions 2 \
        --scale 0.2 --target nginx --clients 6 --bandwidth 200 \
        --slo-seed $slo_seed --json"
    $slo_cmd > "$fleet_tmp/slo-$slo_seed-run1.json"
    $slo_cmd > "$fleet_tmp/slo-$slo_seed-run2.json"
    diff "$fleet_tmp/slo-$slo_seed-run1.json" \
        "$fleet_tmp/slo-$slo_seed-run2.json"
done
echo "SLO reports identical across runs for both seeds"

echo "== edge single-tier equivalence gate =="
# With no peers and no churn the edge tier must cost exactly nothing:
# the run has to be byte- and virtual-time-identical to the single-tier
# testbed (exit 1 on any divergence).
python -m repro.cli edge --series nginx --versions 2 --scale 0.2 \
    --target nginx --equivalence --json > "$fleet_tmp/edge-equiv.json"
echo "peer-less edge run identical to single-tier testbed"

echo "== simulator speed gate =="
# The perf command exits 1 on cross-mode or double-run drift of the
# deterministic fields; the floor below additionally catches a gross
# core regression (the recorded pre-refactor baseline was ~17k events/s;
# the refactored generator mode runs >150k, so 60k trips only on a real
# slowdown, not machine noise).
python -m repro.cli perf --scale 0.2 --json > "$fleet_tmp/perf.json"
python - "$fleet_tmp/perf.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["ok"], "perf determinism gates failed"
from repro.bench.speed import run_microflows
events_per_s = run_microflows(mode="gen").events_per_s
floor = 60_000.0
if events_per_s < floor:
    sys.exit(f"simulator core regressed: {events_per_s:,.0f} events/s "
             f"< {floor:,.0f} floor")
print(f"gen-mode microflows: {events_per_s:,.0f} events/s (floor 60,000)")
EOF
echo "simulator speed gate passed"

echo "== perf-trajectory artifacts =="
# Regenerate the checked-in BENCH_ext_*.json artifacts; a PR that moves
# any simulated number must commit the refreshed artifacts with it.
python benchmarks/artifacts.py
if command -v git >/dev/null 2>&1 && git rev-parse --git-dir >/dev/null 2>&1
then
    git diff --exit-code -- benchmarks/artifacts \
        || { echo "BENCH_ext artifacts drifted: commit the refreshed \
benchmarks/artifacts/*.json" >&2; exit 1; }
fi
echo "perf-trajectory artifacts fresh"

echo "== trace-determinism gate =="
# The telemetry plane must not disturb determinism, and its own exports
# must be replayable: for each seed, two identical traced deployments
# have to emit byte-identical Chrome-trace and metrics JSON files (and
# exit 0, which certifies the span tree covers >= 95% of the deploy
# makespan and the per-phase totals sum to the deploy total).
for trace_seed in 11 42; do
    trace_cmd="python -m repro.cli trace --series nginx --versions 1 \
        --scale 0.2 --target nginx --seed $trace_seed --json"
    $trace_cmd --out-dir "$fleet_tmp/trace-$trace_seed-run1" \
        > "$fleet_tmp/trace-$trace_seed-run1.json"
    $trace_cmd --out-dir "$fleet_tmp/trace-$trace_seed-run2" \
        > "$fleet_tmp/trace-$trace_seed-run2.json"
    diff "$fleet_tmp/trace-$trace_seed-run1.json" \
        "$fleet_tmp/trace-$trace_seed-run2.json"
    diff "$fleet_tmp/trace-$trace_seed-run1/trace.json" \
        "$fleet_tmp/trace-$trace_seed-run2/trace.json"
    diff "$fleet_tmp/trace-$trace_seed-run1/metrics.json" \
        "$fleet_tmp/trace-$trace_seed-run2/metrics.json"
done
echo "trace exports identical across runs for both seeds"

echo "== perf-ledger output checks =="
# One short pass of each ledger workload: the run checks its own outputs
# (every client's filesystem digest equals a sequential control, bytes
# conserved, no failed operation) and says so on its last line.  Host
# timings are not gated here; nothing is written.
for ledger_workload in wave microflows convert seqdeploy fabrics chunkreads; do
    python3 benchmarks/ledger/run.py --smoke --workload "$ledger_workload" \
        --seconds 1 | tail -n 1 > "$fleet_tmp/ledger-$ledger_workload.json"
    grep -q '"correct": true' "$fleet_tmp/ledger-$ledger_workload.json" \
        && grep -q '"failed": 0[,}]' "$fleet_tmp/ledger-$ledger_workload.json" \
        || { echo "ledger workload $ledger_workload failed its output checks" >&2
             cat "$fleet_tmp/ledger-$ledger_workload.json" >&2; exit 1; }
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
