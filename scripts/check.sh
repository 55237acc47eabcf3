#!/usr/bin/env sh
# Repo health gate: tier-1 tests with warnings as errors and the wide
# Hypothesis profile, the one-download-chain, one-read-path,
# a-file-lands-one-way, one-walk, tier-wiring,
# one-harness, one-queue-entry, no-record-per-operation, shared-Metadata, immutable-index,
# nothing-rewinds, a-pull-unpacks-nothing/a-payload-is-hashed-once,
# a-conversion-builds-each-thing-once,
# an-index-is-read-back-only-when-foreign, a-chunk-is-named-once and
# virtual-time-only source guards, the census (defaulted parameters no
# caller sets, and definitions only tests use), the
# determinism gate (all ten rows of the repro.cli gate table, double-run), the checked-in perf-trajectory artifacts, the perf ledger's
# output checks and harness tests, and a full bytecode compile.
#
# Usage: sh scripts/check.sh   (from the repo root)
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 test suite under -W error, wide Hypothesis profile =="
# Tier-1 alone replays a small fixed example set (tests/conftest.py);
# here the property tests draw fresh examples, at their full counts.
python -W error -m pytest -x -q --hypothesis-profile=wide

echo "== a value no caller changes is a constant; code only tests call goes =="
# Every defaulted parameter under src/ is set by some call in src/,
# tests/, benchmarks/ or examples/; one that no call sets only ever
# holds its default.  Every function, class and method under src/ is
# used from src/, benchmarks/, examples/ or scripts/ (re-exports do not
# count, and neither does code only tests reach), or is on the census's
# allowlist with the DESIGN section that keeps it.  scripts/census.py
# prints both counts and each finding, and exits nonzero when there is one.
python scripts/census.py

echo "== all time in the program is virtual =="
# Host time is benchmarks/ledger's to read (its microflows and wave
# workloads time the simulator, pinned and in pairs), never src/repro's.
if grep -rnE "perf_counter|process_time|time\.time|monotonic" src/repro --include='*.py'
then echo "src/repro reads the host clock" >&2; exit 1; fi
# One harness: the paper's studies are cells of `repro.cli paper`.
if grep -rnE "REPRO_BENCH_QUIC[K]|benchmark\.pedanti[c]" . --include='*.py' --include='*.toml' --include='*.sh' --include='*.md' --exclude=CHANGES.md --exclude=ROADMAP.md
then echo "the second benchmark harness grew back" >&2; exit 1; fi

echo "== one download chain: the copies must not grow back =="
# The whole-round backoff lives in resilience.py (transport.py retries
# single attempts), and the fabrics stay below the bench layer.  The
# grep stops at src/repro/net on purpose: gear/bigfile.py keeps its own
# tail, because a chunk that hashed wrong is re-fetched under other
# rules than a failed round (N tries where retry_rounds makes N-1
# passes, its own refetch counter, quarantine and a typed
# ChunkIntegrityError at give-up); it asks the same
# RetryPolicy.should_retry, so a new stop condition reaches chunks too.
if grep -l "next_backoff(" src/repro/net/*.py | grep -v -e /resilience.py -e /transport.py \
    || grep -n "from repro.bench" src/repro/net/edge.py src/repro/net/faas.py
then echo "a fabric grew its own backoff tail or imports repro.bench" >&2; exit 1; fi

echo "== one read path: a synchronous twin must not grow back =="
# Each blocking function on the Gear read path, in a fabric route and in
# the chunk pipeline exists once, as a generator; a sync name is a facade
# over SimScheduler.drive (DESIGN.md §5).  Thread identity belongs to the
# scheduler alone, the escape to call mode has one caller left (the
# degraded Docker pull in viewer._fetch_degraded), and the tables of
# fetches in flight are SingleFlight's, not hand-kept dicts.
if grep -rln "threading.get_ident" src/repro --include='*.py' \
    | grep -v '^src/repro/common/clock.py$'
then echo "thread identity used outside common/clock.py" >&2; exit 1; fi
if [ "$(grep -rn "on_worker(" src/repro --include='*.py' \
        | grep -v '^src/repro/common/clock.py:' | cut -d: -f1)" \
    != "src/repro/gear/viewer.py" ]
then echo "on_worker( has a call site other than viewer._fetch_degraded" >&2; exit 1; fi
if grep -rn -e 'inflight\[' -e 'inflight\.pop(' -e 'inflight\.get(' \
    src/repro --include='*.py' | grep -v '^src/repro/net/resilience.py:'
then echo "a single-flight table is kept by hand outside SingleFlight" >&2; exit 1; fi
once() {  # once FILE MAX PATTERN: PATTERN occurs at most MAX times in FILE
    count="$(grep -c -- "$3" "$1" || true)"
    [ "$count" -le "$2" ] || {
        echo "$1: '$3' occurs $count times (at most $2): a copy grew back" >&2
        exit 1; }
}
once src/repro/gear/viewer.py 1 "def _materialize"
once src/repro/gear/viewer.py 1 "def _fault_in"
once src/repro/gear/viewer.py 1 "def _fetch_remote"
once src/repro/net/transport.py 1 "def _attempt"
once src/repro/net/link.py 0 "def _transfer_flow"
once src/repro/gear/bigfile.py 1 "def _get_partial"
once src/repro/gear/bigfile.py 1 "def _fetch_chunk_claimed"

echo "== a file lands one way: one content-address check, one landing tail =="
# Whether bytes are the file their name promises is decided in
# gear/gearfile.py alone (content_addressed / verified, DESIGN.md §10),
# and every file, fetched whole or promoted from chunks, enters the pool
# and is linked over its stub by one tail (GearFileViewer._admit and
# _link, DESIGN.md §15).  The perf ledger's own pool audit
# (`_poisoned` in benchmarks/ledger/adapters.py) spells the rule again:
# the ledger belongs to the benchmark, which a program change leaves
# untouched.
if grep -rn -e '"uid-' -e "'uid-" src/repro --include='*.py' \
        | grep -v '^src/repro/gear/gearfile.py:' \
    || grep -rnE "fingerprint[[:space:]]*[!=]=[[:space:]]*[A-Za-z_.]*identity|identity[[:space:]]*[!=]=[[:space:]]*[A-Za-z_.]*fingerprint" \
        src/repro --include='*.py' | grep -v '^src/repro/gear/gearfile.py:'
then echo "the content-address rule is spelled outside gear/gearfile.py" >&2; exit 1; fi
for call in 'index\.link(' '\.link_begin(' '\.fetch_commit('; do
    count="$(grep -rn --include='*.py' -- "$call" src/repro/gear | wc -l)"
    [ "$count" -eq 1 ] || {
        echo "src/repro/gear: '$call' has $count call sites (exactly one): \
a second landing path grew back" >&2
        exit 1; }
done

echo "== one walk: a fabric lists its sources, resilience.walk tries them =="
# HA, edge and FaaS each build a list of sources per pass and hand it to
# repro.net.resilience.walk, the only caller of retry_rounds; what a 404
# or a retryable failure means is the source's `missed` (DESIGN.md §10).
# Outside a source, only a hedge attempt, the health probe and the write
# fan-out (one call each, not a pass) catch retryable errors.
if grep -rnE "def _one_pass|_resilient_read|_last_served" src/repro/net --include='*.py'
then echo "a fabric hand-writes its own pass again" >&2; exit 1; fi
if grep -rn "retry_rounds(" src/repro --include='*.py' \
    | grep -v '^src/repro/net/resilience.py:'
then echo "retry_rounds( is called outside net/resilience.py" >&2; exit 1; fi
if awk '/^ *def /{name = $2; sub(/\(.*/, "", name)}
        /except RETRYABLE_ERRORS/{print FILENAME ":" FNR ": in " name}' \
        src/repro/net/ha.py src/repro/net/edge.py src/repro/net/faas.py \
    | grep -v -e ': in attempt$' -e ': in probe$' -e ': in _fan_out_write$'
then echo "a fabric catches retryable errors outside a source's missed" >&2; exit 1; fi
once src/repro/net/resilience.py 1 "def walk("

echo "== a tier wires itself: the testbed and the cluster test for no tier =="
# The HA replica set, an edge fabric and a FaaS shared cache each own
# their links, metrics, timeline probes, wave services and wave counters
# (DESIGN.md §10).  The testbed reaches them through Testbed.tiers, the
# one place that looks at the three slots; the cluster runs one wave
# over the root's tiers, and no edge testbed builder forwards
# parameters by hand.
if grep -nE -e '\.(ha|edge|faas) is (not )?None' \
        -e 'if (not )?[A-Za-z_.]*\.(ha|edge|faas)\b' \
        src/repro/bench/environment.py src/repro/net/topology.py
then echo "a tier is tested for outside Testbed.tiers" >&2; exit 1; fi
once src/repro/net/topology.py 1 "def deploy_wave"
once src/repro/net/topology.py 1 "def _wave_counters"
if grep -rn "make_edge_testbed" src tests examples
then echo "make_edge_testbed grew back" >&2; exit 1; fi

echo "== one queue-entry format, known only to common/clock.py =="
# A scheduled event is a `[time, seq, action]` list; cancelling clears its
# action (DESIGN.md §13).  No event freelist may grow back, and the link
# cancels through SimScheduler.cancel instead of indexing an entry.
if grep -rnE "_event_pool|pooled" src/repro --include='*.py' \
    || grep -n '\[2\]' src/repro/net/link.py
then echo "an event pool grew back, or net/link.py indexes a queue entry" >&2; exit 1; fi

echo "== no object per operation: only a view mints a record =="
# The transfer log, the intent journal and a layer archive keep columns
# (DESIGN.md §17).  A TransferRecord / JournalRecord / TarEntry is built
# for a reader of `.records` / `.entries`, in the view class's `_rows`;
# an append path or a producer that builds one is a GC-tracked object
# per operation, or per archive member, again.  Two occurrences per log
# module: the class statement and the view; the dataclass TarEntry's
# statement has no parenthesis, so its view is the one occurrence.
if grep -rnE "(TransferRecord|JournalRecord|TarEntry)\(" src/repro --include='*.py' \
    | grep -v -e '^src/repro/net/link.py:' -e '^src/repro/gear/journal.py:' \
        -e '^src/repro/vfs/tar.py:'
then echo "a record is constructed outside its log's module" >&2; exit 1; fi
once src/repro/net/link.py 2 "TransferRecord("
once src/repro/gear/journal.py 2 "JournalRecord("
once src/repro/vfs/tar.py 1 "TarEntry("
# A LayerArchive holds its members as columns, never as a tuple of them.
if grep -nE "self\._(entries|members|records|rows)\b|Tuple\[TarEntry|tuple\(sorted" \
        src/repro/vfs/tar.py
then echo "a LayerArchive keeps a per-member tuple" >&2; exit 1; fi

echo "== an inode's Metadata is a shared value: replaced, never written =="
# Metadata is immutable and interned (DESIGN.md §17): a change of mode or
# attributes gives the inode a new value (`with_mode` / `with_xattr`).  A
# field assignment would raise at run time; a copy has nothing to protect.
if grep -rnE "\.meta\.(mode|uid|gid|mtime|xattrs)[[:space:]]*=[^=]|meta\.copy\(\)" src/repro --include='*.py'
then echo "a Metadata field is assigned, or a Metadata copied, under src/repro" >&2; exit 1; fi

echo "== a Gear index is immutable: a node links through its table =="
# Every node that pulls one index reads one frozen stub tree; a fetched
# file is hard-linked into GearIndex.links, never into a tree (DESIGN.md
# §9, §17).  Nothing may link an inode into a tree or write the index's.
if grep -rn "link_inode(" src/repro --include='*.py' \
    || grep -rnE "index\.tree\.(write_file|remove|mkdir|symlink|hardlink|whiteout)" \
        src/repro/gear --include='*.py'
then echo "an inode is linked into a tree, or a Gear index tree is written" >&2; exit 1; fi

echo "== nothing rewinds: counters only grow and are read as deltas =="
# Every counter is a MetricSet field that a reader diffs across its epoch
# (DESIGN.md §11); the clock, the transfer log and the tracer only move
# forward.  No labelled-instrument API and no reset path may grow back.
if grep -nE "^class (Counter|Gauge|Histogram)\b|def (counter|gauge|histogram)\(" \
        src/repro/obs/metrics.py
then echo "a metric instrument grew back in obs/metrics.py" >&2; exit 1; fi
if grep -rn "def reset_stats" src/repro --include='*.py'
then echo "a reset_stats grew back" >&2; exit 1; fi
if grep -n "def reset(" src/repro/common/clock.py src/repro/obs/metrics.py \
    || grep -n "def clear(" src/repro/net/link.py src/repro/obs/trace.py
then echo "the clock, the registry, the link log or the tracer rewinds" >&2; exit 1; fi
if grep -rn "reset_spent" src/repro --include='*.py' \
    || grep -rnA4 "register_callback(" src/repro --include='*.py' \
        | grep -E "[^_]reset[[:space:]]*[:=]"
then echo "a reset callback grew back" >&2; exit 1; fi

echo "== a pull unpacks nothing, a payload is hashed once =="
# A graph driver keeps a pulled layer and unpacks its diff tree at first
# mount, which for a Gear index layer is never (DESIGN.md §13).  A task's
# or a service's write payload is one Blob, minted and hashed once per
# model, never bytes hashed again on every write (DESIGN.md §17).
if awk '/^    def register_layer\(/{inside = 1; next}
        inside && /^    [^ ]/{inside = 0}
        inside' src/repro/docker/graphdriver.py \
    | grep -nE "diff_tree\(|extract_diff\(|freeze\("
then echo "register_layer unpacks a layer: unpack at first mount" >&2; exit 1; fi
if grep -rnE "b[\"']x[\"'][[:space:]]*\*" src/repro/workloads --include='*.py' \
    | grep -v "Blob"
then echo "a workload writes raw bytes that are hashed on every write" >&2; exit 1; fi

echo "== a conversion builds each thing once =="
# A Gear index is its root, frozen and cloned copy-on-write, with the
# files swapped for stubs: no second tree is re-created.  A corpus layer
# is built from its archive entries, never written into a throwaway
# tree to be walked back.  A stub blob is minted in one place,
# GearFileEntry.stub's memoized _stub: one per content (DESIGN.md §13).
if grep -n "mirror(" src/repro/gear/index.py \
    || grep -nE "FileSystemTree\(|write_file\(" src/repro/workloads/corpus.py
then echo "a conversion re-creates a tree it already has" >&2; exit 1; fi
minted="$(grep -rn "from_text(.*stub_content()" src/repro --include='*.py' || true)"
if [ "$(printf '%s' "$minted" | grep -c .)" -ne 1 ] \
    || ! awk '/^def _stub\(/{inside = 1; next} inside && /^[^ ]/{inside = 0}
              inside' src/repro/gear/index.py | grep -q "from_text(.*stub_content()"
then echo "a stub blob is minted outside gear/index.py's _stub: $minted" >&2; exit 1; fi

echo "== an index is read back only when foreign =="
# GearIndex.to_image registers the tree and entry table it packs as the
# archive's template, so from_image parses only an archive this process
# did not write (DESIGN.md §13, "Template caches").  The template is
# what a parse would build only because no index node carries what an
# archive entry cannot: an mtime, or an attribute but STUB_XATTR.
parses="$(awk '/^ *def /{name = $2; sub(/\(.*/, "", name)}
        !/def _parse_archive\(/{
            for (n = gsub(/_parse_archive\(/, "&"); n > 0; n--) print FILENAME ": in " name}' \
        $(find src/repro -name '*.py'))"
if [ "$parses" != "src/repro/gear/index.py: in from_image" ]
then echo "_parse_archive( is called outside GearIndex.from_image: $parses" >&2; exit 1; fi
if awk '/^ *def /{name = $2; sub(/\(.*/, "", name)}
        /_INDEX_TEMPLATES(\[|\.(pop|setdefault|update|clear)\()/{
            print FILENAME ":" FNR ": in " name}' $(find src/repro -name '*.py') \
    | grep -v -e '^src/repro/gear/index.py:[0-9]*: in to_image$' \
        -e '^src/repro/gear/index.py:[0-9]*: in from_image$'
then echo "_INDEX_TEMPLATES is written outside to_image and from_image" >&2; exit 1; fi
if grep -rnE "mtime[[:space:]]*=|xattrs[[:space:]]*=|Metadata\(([^,()]*,){3}" \
        src/repro --include='*.py' | grep -v '^src/repro/vfs/inode.py:' \
    || grep -rn "with_xattr(" src/repro --include='*.py' \
        | grep -v -e 'with_xattr(STUB_XATTR, ' -e 'def with_xattr('
then echo "an inode gets an mtime or an attribute other than STUB_XATTR" >&2; exit 1; fi

echo "== a chunk is named once, and pays for hooks only when attached =="
# A chunk's fingerprint is hashed once per content, in blob/blob.py's
# memoized _token_fingerprint; Blob.fingerprint names a whole blob and
# keeps it on the blob (DESIGN.md §17).  The chunk pipeline calls its
# crash checkpoint only with a crash plan attached, and a chunk fetch
# builds its spans only on a traced branch (DESIGN.md §15).
if awk '/^ *def /{name = $2; sub(/\(.*/, "", name)}
        /fingerprint_tokens\(/{print FNR ": in " name}' src/repro/blob/blob.py \
    | grep -v -e ': in _token_fingerprint$' -e ': in fingerprint$'
then echo "blob/blob.py hashes a token outside the chunk memo" >&2; exit 1; fi
if awk '/_chunk_crash_checkpoint\(/ && !/def / && previous !~ /self\.crash is not None/ {
            print FNR ": " $0}
        NF {previous = $0}' src/repro/gear/bigfile.py | grep .
then echo "a chunk crash checkpoint is called with no crash plan attached" >&2; exit 1; fi
if awk '/^    def /{inside = ($2 ~ /^_fetch_chunk_claimed\(/); traced = -1}
        !inside || !NF {next}
        {match($0, /^ */); indent = RLENGTH}
        traced >= 0 && indent <= traced {traced = -1}
        /^ *if traced:/ {traced = indent; next}
        /span\(/ && traced < 0 {print FNR ": " $0}' src/repro/gear/bigfile.py | grep .
then echo "_fetch_chunk_claimed builds a span outside a traced branch" >&2; exit 1; fi

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
        python -W error -m repro.cli $argv $exports > "$out.json"
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
