"""scripts/guards.py: every rule goes red on its mutants, and only that rule.

A mutant is a small edit to one file: ``(path, old, new)`` replaces the
one occurrence of ``old`` (``None``: appends ``new``); a list of such
edits is one mutant over several files.  Each mutant is a
violation the rule exists for; those that name a PR are the mutants its
CHANGES.md entry recorded, and those marked "gap" are violations the
shell guards this table replaced let through.  A look-alike has the
same shape and must leave every rule green: the pattern in a comment or
a docstring, at an allowed site, or one name away.

The rulebook runs over the repo's parses with the mutated modules
re-parsed; only the rows that read an edited file are run again.
"""

import ast
import gc
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import guards  # noqa: E402

# Spelled at run time: the text rules read this file (and its bytecode).
HARNESS_FLAG = "_".join(("REPRO", "BENCH", "QUICK"))
PEDANTIC = ".".join(("benchmark", "pedantic"))
EDGE_BUILDER = "_".join(("make", "edge", "testbed"))

P = "src/repro/"
MUTANTS = {
    "host-clock": [
        (P + "net/link.py", None, "_T0 = time.perf_counter()\n"),
        (P + "obs/trace.py", None, "_T0 = time.process_time()\n"),
        (P + "gear/pool.py", None, "_T0 = time.time()\n"),
        (P + "common/clock.py", None, "_T0 = time.monotonic_ns()\n"),
        (P + "net/ha.py", None, "from time import time\n_T0 = time()\n"),  # gap
        (P + "net/edge.py", None, "import time as t\n_T0 = t.time()\n"),  # gap
        (P + "obs/slo.py", None, "import datetime\n_NOW = datetime.datetime.now()\n"),  # gap
    ],
    "one-harness": [
        ("README.md", None, f"Set {HARNESS_FLAG}=1 for a quick run.\n"),
        ("tests/test_cli.py", None, f"# {PEDANTIC}(run)\n"),
    ],
    "download-chain": [
        (P + "net/edge.py", None, "_B = RetryPolicy().next_backoff(1)\n"),
        (P + "net/faas.py", None, "from repro.bench.environment import make_testbed\n"
                                "_B = make_testbed\n"),
    ],
    "thread-identity": [
        (P + "gear/viewer.py", None, "_ID = threading.get_ident()\n"),
    ],
    "worker-escape": [
        (P + "gear/viewer.py", None, "_W = clock.on_worker(fallback, entry)\n"),
        (P + "gear/bigfile.py", None, "_W = clock.on_worker(fallback, entry)\n"),
        (P + "gear/viewer.py", "yield from self.clock.on_worker(self.fallback, entry)",
         "yield from self.clock.on_worker"),
    ],
    "single-flight": [
        (P + "gear/pool.py", None, "_inflight = {}\n_inflight['x'] = 1\n"),
        (P + "net/faas.py", None, "_F = self.inflight.pop('x', None)\n"),
        (P + "gear/bigfile.py", None, "_F = partial.inflight.get(0)\n"),
    ],
    "sync-twin": [
        (P + "gear/viewer.py", None, "def _materialize(node):\n    return node\n\n\n"
                                     "_materialize(None)\n"),
        (P + "gear/viewer.py", None, "def _fault_in(entry):\n    return entry\n\n\n"
                                     "_fault_in(None)\n"),
        (P + "gear/viewer.py", None, "def _fetch_remote(entry):\n    return entry\n\n\n"
                                     "_fetch_remote(None)\n"),
        (P + "net/transport.py", None, "def _attempt(request):\n    return request\n\n\n"
                                       "_attempt(None)\n"),
        (P + "net/link.py", None, "def _transfer_flow(flow):\n    return flow\n\n\n"
                                  "_transfer_flow(None)\n"),
        (P + "gear/bigfile.py", None, "def _get_partial(identity):\n    return identity\n\n\n"
                                      "_get_partial(None)\n"),
        (P + "gear/bigfile.py", None, "def _fetch_chunk_claimed(chunk):\n    return chunk\n\n\n"
                                      "_fetch_chunk_claimed(None)\n"),
    ],
    "content-address": [
        (P + "gear/commit.py", None, "_NAME = f'uid-{size}'\n"),
        (P + "gear/viewer.py", None, "_SAME = blob.fingerprint == entry.identity\n"),
        (P + "gear/bigfile.py", None, "_SAME = entry.identity != gear_file.fingerprint\n"),
    ],
    "landing-tail": [
        (P + "gear/recovery.py", None, "_L = self.index.link(path, inode)\n"),
        (P + "gear/pool.py", None, "_L = journal.link_begin(identity, path, reference)\n"),
        (P + "gear/viewer.py", None, "_L = self.journal.fetch_commit(identity)\n"),
        (P + "gear/viewer.py", "self.journal.fetch_commit(identity)", "self.journal.fetch_commit"),
    ],
    "own-pass": [
        (P + "net/ha.py", None, "def _one_pass(sources):\n    return sources\n\n\n"
                                "_one_pass(None)\n"),
        (P + "net/edge.py", None, "_resilient_read = None\n"),
        (P + "net/faas.py", None, "_P = self._last_served\n"),
    ],
    "retry-rounds": [
        (P + "net/ha.py", None, "_R = retry_rounds(policy, sources)\n"),
    ],
    "retryable-catch": [
        # gap: code in _HedgedPair.fetch after its nested attempt
        (P + "net/ha.py", '        with clock.span("hedge", tag=tag) as hedge_span:\n',
         '        try:\n            pass\n        except RETRYABLE_ERRORS:\n            pass\n'
         '        with clock.span("hedge", tag=tag) as hedge_span:\n'),
        # gap: a new attempt, or probe, anywhere in a fabric
        (P + "net/edge.py", None, "def attempt(source):\n    try:\n        return source()\n"
                                  "    except RETRYABLE_ERRORS:\n        return None\n"),
        (P + "net/faas.py", None, "def probe(source):\n    try:\n        return source()\n"
                                  "    except (RETRYABLE_ERRORS, KeyError):\n        return None\n"),
    ],
    "one-walk": [
        (P + "net/resilience.py", None, "def walk(sources):\n    return sources\n\n\n"
                                       "walk(None)\n"),
    ],
    "tier-test": [
        (P + "bench/environment.py", None, "_T = bed.ha is None\n"),
        (P + "net/topology.py", None, "if not self.edge:\n    pass\n"),
        (P + "bench/environment.py", None, "_T = [bed for bed in beds if bed.faas.tier]\n"),
    ],
    "one-wave": [
        (P + "net/topology.py", None, "def deploy_wave(nodes):\n    return nodes\n"),
        (P + "net/topology.py", None, "def _wave_counters(bed):\n    return bed\n\n\n"
                                      "_wave_counters(None)\n"),
    ],
    "edge-testbed": [
        ("tests/test_net_edge.py", None, f"from repro.bench.environment import {EDGE_BUILDER}\n"),
        ("tests/fixtures/tier_wiring.json", None, f'"{EDGE_BUILDER}"\n'),
    ],
    "queue-entry": [
        (P + "common/clock.py", None, "_event_pool = []\n"),
        (P + "common/clock.py", None, "_P = scheduler.pooled\n"),
        (P + "net/link.py", None, "_A = entry[2]\n"),
    ],
    "record-per-operation": [
        # PR 40
        (P + "workloads/corpus.py", None, "_E = TarEntry('a', FileKind.FILE)\n"),
        (P + "gear/pool.py", None, "_R = TransferRecord(0, 0.0, 0.0, 0, '')\n"),
        (P + "gear/journal.py", None, "_R = JournalRecord(*row)\n"),
        (P + "vfs/tar.py", None, "_R = TarEntry(*row)\n"),
    ],
    "member-tuple": [
        # PR 40
        (P + "vfs/tar.py", "        self._digest: Optional[Digest] = None\n",
         "        self._entries = tuple(sorted(ordered))\n"
         "        self._digest: Optional[Digest] = None\n"),
        (P + "vfs/tar.py", None, "_M: 'Tuple[TarEntry, ...]' = ()\n"),
        (P + "vfs/tar.py", None, "_M = self._members\n"),
    ],
    "metadata-write": [
        (P + "vfs/overlay.py", None, "node.meta.mode = 0o644\n"),
        (P + "vfs/tree.py", None, "node.meta.gid = 0\n"),
    ],
    "index-write": [
        (P + "gear/viewer.py", None, "tree.link_inode(path, inode)\n"),
        (P + "gear/recovery.py", None, "self.index.tree.write_file(path, blob)\n"),
        (P + "gear/viewer.py", None, "columns.identities[0] = 'x'\n"),
        (P + "gear/bigfile.py", None, "index.entries.sizes.append(0)\n"),
        (P + "gear/commit.py", None, "del container.index.entries[path]\n"),
    ],
    "metric-instrument": [
        (P + "obs/metrics.py", None, "class Counter:\n    pass\n\n\n_C = Counter()\n"),
        (P + "obs/metrics.py", None, "def counter(name):\n    return name\n\n\n_C = counter('x')\n"),
    ],
    "reset-stats": [
        (P + "vfs/overlay.py", None, "def reset_stats(mount):\n    return mount\n\n\n"
                                     "reset_stats(None)\n"),
    ],
    "rewind": [
        (P + "common/clock.py", None, "def reset(clock):\n    return clock\n\n\nreset(None)\n"),
        (P + "obs/metrics.py", None, "def reset(registry):\n    return registry\n\n\n"
                                     "reset(None)\n"),
        (P + "net/link.py", None, "def clear(log):\n    return log\n\n\nclear(None)\n"),
        (P + "obs/trace.py", None, "def clear(tracer):\n    return tracer\n\n\nclear(None)\n"),
    ],
    "reset-callback": [
        (P + "net/resilience.py", None, "_S = policy.reset_spent\n"),
        (P + "net/ha.py", None, "metrics.register_callback('breaker', snapshot, reset=clear)\n"),
        (P + "obs/metrics.py", "snapshot: Callable[[], Dict[str, Any]], **labels: Any",
         "snapshot: Callable[[], Dict[str, Any]], *, reset: Callable[[], None],\n"
         "        **labels: Any"),
    ],
    "unpack-at-register": [
        (P + "docker/graphdriver.py", "        self._layers[layer.digest] = layer\n",
         "        self._layers[layer.digest] = layer\n        layer.diff_tree()\n"),
        (P + "docker/graphdriver.py", "        self._layers[layer.digest] = layer\n",
         "        self._layers[layer.digest] = layer\n        layer.archive.extract_diff()\n"),
        (P + "docker/graphdriver.py", "        self._layers[layer.digest] = layer\n",
         "        self._layers[layer.digest] = layer\n        tree.freeze()\n"),
    ],
    "payload-rehash": [
        (P + "workloads/tasks.py", None, "_PAYLOAD = b'x' * 4096\n"),
    ],
    "tree-rebuilt": [
        (P + "gear/index.py", None, "_T = tree.mirror()\n"),
        (P + "gear/index.py", None, "_T = archive.apply_to(FileSystemTree())\n"),
        (P + "gear/commit.py", None, "merged_tree.write_file(path, blob)\n"),
        (P + "gear/converter.py", None, "_T = index_tree.mkdir_at(root, name)\n"),
        (P + "workloads/corpus.py", None, "_T = FileSystemTree()\n"),
        (P + "workloads/corpus.py", None, "tree.write_file(path, blob)\n"),
    ],
    "stub-minted": [
        (P + "gear/commit.py", None, "_S = Blob.from_text(entry.stub_content())\n"),
        (P + "gear/index.py", None, "_S = Blob.from_text(entry.stub_content())\n"),
        # an entry per file, built beside the rows
        (P + "gear/converter.py", None, "_E = GearFileEntry(path, identity, size, mode)\n"),
        (P + "gear/commit.py", None, "_S = _stub(identity, size)\n"),
    ],
    "parse-archive": [
        (P + "gear/index.py", "        archive = LayerArchive.from_rows(rows)\n",
         "        archive = LayerArchive.from_rows(rows)\n        GearIndex._parse_archive(archive)\n"),
        (P + "gear/index.py", "            archive.index_template = cls._parse_archive(archive)\n",
         "            archive.index_template = cls._parse_archive(archive)\n"
         "            archive.index_template = cls._parse_archive(archive)\n"),
    ],
    "template-write": [
        (P + "gear/index.py", None, "archive.index_template = template\n"),
        (P + "gear/driver.py", None, "setattr(archive, 'index_template', None)\n"),
        (P + "vfs/tar.py", None, "del archive.index_template\n"),
        # gap: a new from_image anywhere in the module is not GearIndex's
        (P + "gear/index.py", None, "def from_image(archive):\n"
                                    "    archive.index_template = None\n"),
    ],
    "inode-attribute": [
        (P + "vfs/tree.py", None, "_M = Metadata(0o644, 0, 0, 1.0)\n"),
        (P + "gear/commit.py", None, "_M = Metadata(mode=0o644, mtime=1.0)\n"),
        (P + "docker/builder.py", None, "_M = node.meta.with_mode(0o644, xattrs={})\n"),
        (P + "vfs/overlay.py", None, "node.mtime = 0\n"),
        (P + "gear/driver.py", None, "_M = node.meta.with_xattr('user.note', b'1')\n"),
        (P + "vfs/inode.py", None, "_M = meta.with_xattr(name, value)\n"),
    ],
    "chunk-fingerprint": [
        (P + "blob/blob.py", None, "_F = fingerprint_tokens(('x',))\n"),
    ],
    "crash-hook": [
        (P + "gear/bigfile.py", "            if self.crash is not None:\n"
                                "                yield from self._chunk_crash_checkpoint(\n",
         "            if True:\n                yield from self._chunk_crash_checkpoint(\n"),
        (P + "gear/bigfile.py", "            if self.crash is not None:\n"
                                "                yield from self._chunk_crash_checkpoint(\n",
         "            if self.crash is not None:\n                pass\n"
         "                yield from self._chunk_crash_checkpoint(\n"),
    ],
    "span-untraced": [
        (P + "gear/bigfile.py", "            if traced:\n                with self.clock.span(\n"
                                '                    "chunk_fetch"',
         "            if not traced:\n                with self.clock.span(\n"
         '                    "chunk_fetch"'),
        (P + "gear/bigfile.py", "            else:\n                payload = yield from download\n",
         "            else:\n                with self.clock.span('chunk_fetch'):\n"
         "                    payload = yield from download\n"),
    ],
    "one-conversion-pass": [
        # the throwaway registries of the Fig. 7 harness this rule retired
        (P + "bench/paper.py", None, "_C = GearConverter(\n    clock, DockerRegistry(), "
                                     "GearRegistry(), disk=Disk(clock))\n"),
    ],
    "one-catalogue": [
        # the pool audit and a fabric audit body the catalogue replaced
        (P + "gear/pool.py", None, "def poisoned(pool):\n    return [identity for identity in "
                                   "pool.identities()\n            if not verified(identity, "
                                   "pool.peek(identity))]\n\n\n_P = poisoned(SharedFilePool())\n"),
        (P + "net/faas.py", "    def stores(self) -> List[Tuple[str, Any]]:\n        return [(f\"tier:",
         "    def audit_integrity(self) -> List[str]:\n        return [identity for identity in "
         "sorted(self.tier.cache)\n                if not verified(identity, self.tier.cache[identity])]"
         "\n\n    def stores(self) -> List[Tuple[str, Any]]:\n        return [(f\"tier:"),
        # a gate's hand-listed audit, no definition
        (P + "cli.py", None, "_BAD = [(site.name, identity) for site in sites for identity in "
                             "site.cache\n        if not verified(identity, site.cache[identity])]\n"),
    ],
    "unused-import": [
        (P + "gear/fingerprint.py", None, "from typing import List\n"),
    ],
    "lower-mint": [
        # a listing that makes its own node: a second one for its row
        (P + "gear/index.py", "node = self[name] = self._rows.mint(row)",
         "node = self[name] = Inode(self._rows.kinds[row])"),
        (P + "gear/index.py", None, "_N = Inode.__new__(Inode)\n"),
    ],
}

LOOKALIKES = {
    "host-clock": [
        (P + "net/link.py", None, "# time.perf_counter() is the ledger's, not the program's\n"),
    ],
    "one-harness": [("CHANGES.md", None, f"{HARNESS_FLAG} and {PEDANTIC} are gone.\n")],
    "download-chain": [
        (P + "net/resilience.py", None, "_B = RetryPolicy().next_backoff(1)\n"),
    ],
    "thread-identity": [(P + "common/clock.py", None, "_ID = threading.get_ident()\n")],
    "worker-escape": [(P + "common/clock.py", None, "_W = clock.on_worker(fallback, entry)\n")],
    "single-flight": [(P + "net/resilience.py", None, "_inflight = {}\n_inflight['x'] = 1\n")],
    "sync-twin": [(P + "gear/viewer.py", None, "# def _materialize( exists once\n")],
    "content-address": [(P + "gear/gearfile.py", None, "_SAME = blob.fingerprint == entry.identity\n")],
    "landing-tail": [(P + "gear/viewer.py", None, "# self.index.link(path, inode) is in _link\n")],
    "own-pass": [(P + "net/ha.py", None, "# no _one_pass, no _resilient_read, no _last_served\n")],
    "retry-rounds": [(P + "net/resilience.py", None, "_R = retry_rounds(policy, sources)\n")],
    "retryable-catch": [(P + "net/edge.py", None, "try:\n    pass\nexcept RetryableError:\n    pass\n")],
    "one-walk": [(P + "net/resilience.py", None, "_W = walk(sources, policy)\n")],
    "tier-test": [(P + "net/topology.py", None, "_T = self.hash is None or tier is not None\n")],
    "one-wave": [(P + "net/topology.py", None, "_W = cluster.deploy_wave(images)\n")],
    "edge-testbed": [("README.md", None, f"{EDGE_BUILDER} is gone.\n")],
    "queue-entry": [(P + "net/link.py", None, "_A = entry[1]  # no pooled entry\n")],
    "record-per-operation": [(P + "gear/pool.py", None, "_F = TransferRecord._fields\n")],
    "member-tuple": [(P + "vfs/tar.py", None, "_M = tuple(names)\n")],
    "metadata-write": [(P + "vfs/overlay.py", None, "_M = node.meta.mode == 0o644\n")],
    "index-write": [
        (P + "gear/viewer.py", None, "upper.tree.write_file(path, blob)\n"),
        (P + "gear/viewer.py", None, "_I = columns.identities[0]\n"),
    ],
    "metric-instrument": [(P + "obs/metrics.py", None, "from collections import Counter\n_C = Counter()\n")],
    "reset-stats": [(P + "vfs/overlay.py", None, "# reset_stats went in PR 30\n")],
    "rewind": [(P + "net/link.py", None, "_C = log.rows.clear()\n")],
    "reset-callback": [(P + "net/ha.py", None, "metrics.register_callback('b', snapshot, resets='x')\n")],
    "unpack-at-register": [(P + "docker/graphdriver.py", None, "_D = driver.diff_tree(digest)\n")],
    "payload-rehash": [(P + "workloads/tasks.py", None, "_PAYLOAD = Blob.from_bytes(b'x' * 4096)\n")],
    "tree-rebuilt": [
        (P + "workloads/corpus.py", None, "# never FileSystemTree( nor write_file(\n"),
        (P + "gear/index.py", None, "# the index never calls apply_to( or write_at(\n"),
    ],
    "stub-minted": [(P + "gear/commit.py", None, "_S = entry.stub()\n")],
    "lower-mint": [
        (P + "gear/index.py", None, "_I = isinstance(None, Inode)  # not Inode(\n"),
        (P + "gear/pool.py", None, "_N = Inode(FILE)\n"),
    ],
    "parse-archive": [(P + "gear/recovery.py", None, "_P = GearIndex._parse_archive\n")],
    "template-write": [(P + "gear/driver.py", None, "_T = archive.index_template\n")],
    "inode-attribute": [(P + "gear/commit.py", None, "_M = node.meta.with_xattr(STUB_XATTR, '1')\n")],
    "chunk-fingerprint": [(P + "blob/blob.py", None, "# fingerprint_tokens( only in the memo\n")],
    "crash-hook": [
        (P + "gear/bigfile.py", "            if self.crash is not None:\n"
                                "                yield from self._chunk_crash_checkpoint(\n",
         "            if self.crash is not None and chunk_index >= 0:\n"
         "                yield from self._chunk_crash_checkpoint(\n"),
    ],
    "span-untraced": [
        (P + "gear/bigfile.py", "            if traced:\n                with self.clock.span(\n"
                                '                    "chunk_fetch"',
         "            if traced:\n              if chunk_index >= 0:\n"
         "                with self.clock.span(\n                    \"chunk_fetch\""),
    ],
    "one-conversion-pass": [
        (P + "bench/paper.py", None, '"""Fig. 7 builds no GearConverter( of its own."""\n'),
    ],
    "one-catalogue": [
        (P + "gear/pool.py", None, '"""def poisoned( and def audit_integrity( went to repro.invariants."""\n'),
        (P + "gear/viewer.py", None, "_V = [verified(f.identity, f) for f in fetched]\n"),
    ],
    "unused-import": [
        (P + "gear/fingerprint.py", None, 'from typing import List\n_L: "List[int]" = []\n'),
        (P + "gear/fingerprint.py", None, 'from typing import List\n__all__ = ["List"]\n'),
    ],
}


def cases(table):
    return [pytest.param(rule, edit if isinstance(edit, list) else [edit], id=f"{rule}-{n}")
            for rule, edits in table.items() for n, edit in enumerate(edits)]


@pytest.fixture(scope="module")
def repo():
    """The repo's parses.  Their million nodes live as long as the
    module's tests, so the collector is kept off them: frozen, a full
    collection set off by a mutant's parse does not walk them all again."""
    gc.disable()
    try:
        trees = guards.load(*guards.DIRS)
        guards.check(trees)  # every per-file fact is now on its parse
        gc.freeze()
    finally:
        gc.enable()
    yield trees
    trees.clear()  # the parses die here, in one full collection, not in a later test
    gc.unfreeze()
    gc.collect()


def red(trees, edits):
    """The names of the rules that go red when files are edited so."""
    mutated, texts, rules = dict(trees), {}, []
    for path, old, new in edits:
        text = (ROOT / path).read_text()
        if old is None:
            text += "\n\n" + new
        else:
            assert text.count(old) == 1, f"{path}: the mutant's anchor moved"
            text = text.replace(old, new)
        texts[path] = text
        if Path(path) in trees:
            mutated[Path(path)] = ast.parse(text, filename=path)
        # Every rule is green on the tree, so only those that read the
        # edited file can go red.
        rules += [rule for rule in guards.RULES if (
            rule.match.reads(path) if isinstance(rule.match, guards.Text)
            else guards.scoped(rule, (path,)))]
    rules = list(dict.fromkeys(rules))
    return {rule.name for rule, _ in guards.check(mutated, texts, rules)}


def test_the_tree_keeps_every_rule(repo):
    assert guards.check(repo) == []


def test_every_rule_has_a_mutant_and_a_lookalike():
    names = {rule.name for rule in guards.RULES}
    assert set(MUTANTS) == names
    assert set(LOOKALIKES) == names


@pytest.mark.parametrize("rule, edits", cases(MUTANTS))
def test_a_mutant_turns_only_its_rule_red(repo, rule, edits):
    assert red(repo, edits) == {rule}


@pytest.mark.parametrize("rule, edits", cases(LOOKALIKES))
def test_a_lookalike_stays_green(repo, rule, edits):
    assert red(repo, edits) == set()


def test_a_finding_names_its_site_rule_and_section(repo):
    mutated = dict(repo)
    path = Path(P + "net/ha.py")
    mutated[path] = ast.parse((ROOT / path).read_text().replace(
        "_HedgedPair(Source):\n", "_HedgedPair(Source):\n    _T0 = time.perf_counter()\n"))
    (rule, line), = guards.check(mutated, rules=guards.RULES[:3])
    assert line.startswith(f"{path.as_posix()}:")
    assert line.endswith(": in _HedgedPair: host-clock (§13)")
