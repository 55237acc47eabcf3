"""The repo's structural rules, as one table of rows evaluated with ``ast``.

Each row of :data:`RULES` names its rule and the DESIGN.md section that
states it, the files it reads (``scope``, a regex over the path under
``src/repro/``), a matcher over their parses, and the sites where a match
is allowed: ``"gear/index.py"`` leaves a module out, and
``"gear/index.py:GearIndex.from_image"`` admits one function, a nested
one by its full qualified name.  Where a thing must exist once, ``most``
bounds its matches per key and ``exactly`` names the keys that match
exactly once.  Rows that share a name are one rule.  A matcher reads
code, not text, so a pattern in a comment or a docstring is no match.
Two rows stay text rules: the one-harness rule also reads Markdown, TOML
and shell, and ``make_edge_testbed`` may not reappear in any file.
``tests/test_guards.py`` proves every rule with its mutants.  What no
real run uses is not a rule here: ``scripts/census.py`` measures it.

Usage: python scripts/guards.py   (from the repo root)
Parses each Python file under ``src/``, ``benchmarks/`` and ``examples/``
once (the two text rules read their files from disk), prints one line per finding
(``file:line: in Qualified.name: rule (§N)``), and exits 1 when there is any.
"""

import ast
import gc
import re
import sys
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: The directories whose Python files the rules read.
DIRS = ("src", "benchmarks", "examples")
PACKAGE = "src/repro/"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: One object each, shared by every parse: a link from one to its parent
#: would be wrong for all the others and keep that parse alive.
SHARED = (ast.expr_context, ast.operator, ast.boolop, ast.cmpop, ast.unaryop)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SPELLED = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.keyword: "arg",
           ast.alias: "name", ast.FunctionDef: "name", ast.AsyncFunctionDef: "name",
           ast.ClassDef: "name"}


def load(*dirs):
    """``{path relative to ROOT: its parse}`` for every Python file under ``dirs``."""
    # Parses allocate a million nodes the collector could only walk, not free.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return {path.relative_to(ROOT): ast.parse(path.read_text(), filename=str(path))
                for name in dirs for path in sorted((ROOT / name).rglob("*.py"))}
    finally:
        if collecting:
            gc.enable()


def ident(node):
    """The name a node spells: a name, an attribute, an argument, a keyword,
    an import, a definition, or a string that is an identifier."""
    field = SPELLED.get(type(node))
    if field:
        return getattr(node, field) or ""
    value = getattr(node, "value", None) if type(node) is ast.Constant else None
    return value if isinstance(value, str) and value.isidentifier() else ""


def qualname(node):
    names = [n.name for n in ancestors(node) if isinstance(n, DEFS)]
    return ".".join(reversed(names)) or "<module>"


def ancestors(node):
    while hasattr(node, "up"):
        node = node.up
        yield node


class Module:
    """One parse: its nodes by type and by the name they spell, each
    linked to its parent, and each rule's hits, found once."""

    def __init__(self, tree):
        self.nodes, self.names, self.found = defaultdict(list), defaultdict(list), {}
        stack = [tree]
        while stack:
            node = stack.pop()
            self.nodes[type(node)].append(node)
            name = ident(node)
            if name:
                self.names[name].append(node)
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, SHARED):
                    child.up = node
                    stack.append(child)

    def hits(self, rule):
        if id(rule) not in self.found:
            self.found[id(rule)] = sorted(
                (node.lineno, qualname(node), key) for node, key in rule.match(self))
        return self.found[id(rule)]


def module(tree):
    """The :class:`Module` of a parse, kept on the parse: one visit each."""
    if "_module" not in tree.__dict__:
        tree._module = Module(tree)
    return tree._module


# Matchers: each takes a Module and yields (node, key) pairs.
def named(pattern, kinds=None, where=None):
    """Nodes spelling a name ``pattern`` matches in full; the key is its
    first group, or the name."""
    regex = re.compile(pattern)

    def match(m):
        for name, nodes in m.names.items():
            found = regex.fullmatch(name)
            for node in nodes if found else ():
                if (kinds is None or isinstance(node, kinds)) and (where is None or where(node)):
                    yield node, found.group(1 if regex.groups else 0)
    return match


def nodes(kinds, where):
    return lambda m: ((n, None) for kind in kinds for n in m.nodes[kind] if where(n))


def callee(node):
    return isinstance(node.up, ast.Call) and node.up.func is node


def calls(pattern, where=lambda node: True):
    """Calls of a function or method named so; ``where`` sees the name's node."""
    return named(pattern, (ast.Name, ast.Attribute), lambda n: callee(n) and where(n))


def spelled(pattern):
    """A call or a definition: what ``name(`` spells."""
    return named(pattern, where=lambda n: isinstance(n, DEFS) or callee(n))


def imports(pattern):
    regex = re.compile(pattern)
    return nodes((ast.Import, ast.ImportFrom), lambda n: any(regex.fullmatch(name or "") for name in (
        [n.module] if isinstance(n, ast.ImportFrom) else [a.name for a in n.names])))


def guarded(node, test, first=False):
    """Whether ``node`` is in the body of an ``if`` whose test ``test``
    accepts: the nearest ``if``, with ``node`` in its first statement, when ``first``."""
    child = node
    for parent in ancestors(node):
        if isinstance(parent, ast.If) and child is not parent.test:
            if (any(child is s for s in parent.body) and test(ast.unparse(parent.test))
                    and (not first or child is parent.body[0])):
                return True
            if first:
                return False
        child = parent
    return False


def tested(node):
    """Whether ``node`` is in the test of an ``if``, a conditional
    expression or a comprehension's ``if``."""
    child = node
    for parent in ancestors(node):
        if (isinstance(parent, (ast.If, ast.IfExp)) and child is parent.test
                or isinstance(parent, ast.comprehension) and any(child is t for t in parent.ifs)):
            return True
        if isinstance(parent, ast.stmt):
            return False
        child = parent
    return False


def over_a_store(node):
    """Whether ``node`` is in a loop or a comprehension over a store's
    entries: a pool's ``identities()`` or a tier's ``cache``."""
    for parent in ancestors(node):
        loops = parent.generators if isinstance(parent, COMPREHENSIONS) else (
            [parent] if isinstance(parent, ast.For) else [])
        if any(re.search(r"\bidentities\(|\bcache\b", ast.unparse(loop.iter)) for loop in loops):
            return True
    return False


def on(where, *names):
    """A method call on an object whose name ``where`` accepts."""
    return calls("|".join(names), lambda n: isinstance(n, ast.Attribute) and where(ident(n.value)))


def compared(ops, left, right):
    """Adjacent comparison operands that ``left`` and ``right`` accept, either way round."""
    def match(n):
        pairs = zip([n.left] + n.comparators, n.ops, n.comparators)
        return any(isinstance(op, ops) and (left(a) and right(b) or left(b) and right(a))
                   for a, op, b in pairs)
    return nodes((ast.Compare,), match)


def annotation(node):
    """Whether ``node`` sits in an annotation: an argument's, an annotated
    assignment's or a return's."""
    child = node
    for parent in ancestors(node):
        if (isinstance(parent, (ast.arg, ast.AnnAssign)) and child is parent.annotation
                or isinstance(parent, DEFS[:2]) and child is parent.returns):
            return True
        if not isinstance(parent, ast.expr):
            return False
        child = parent
    return False


def unused_imports(m):
    """Module-level imports whose name no code of the module reads: not
    as a name, not in a string annotation, not in ``__all__``."""
    read = {node.id for node in m.nodes[ast.Name]}
    for node in m.nodes[ast.Constant]:
        if not isinstance(node.value, str):
            continue
        if node.value.isidentifier():
            read.add(node.value)
        elif annotation(node):
            read |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    for node in m.nodes[ast.Import] + m.nodes[ast.ImportFrom]:
        if isinstance(node.up, ast.Module) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*" and name not in read:
                    yield alias, name


class Text(NamedTuple):
    """A regex over the text of every file under ``dirs`` with one of ``suffixes``."""
    pattern: str
    dirs: tuple
    suffixes: tuple = ()
    skip: tuple = ()

    def reads(self, path):
        return (path.startswith(self.dirs) and path.endswith(self.suffixes or "")
                and path.rpartition("/")[2] not in self.skip and not path.startswith(".git/"))

    def hits(self, overrides):
        found = [hit for path in files() if self.reads(path) and path not in overrides
                 for hit in self.on_disk(path)]
        return found + [hit for path, text in overrides.items() if self.reads(path)
                        for hit in self.search(path, text)]

    @lru_cache(maxsize=None)
    def on_disk(self, path):
        return self.search(path, (ROOT / path).read_bytes().decode("latin-1"))

    def search(self, path, text):
        return [(path, text.count("\n", 0, m.start()) + 1, "<text>", None)
                for m in re.finditer(self.pattern, text)]


@lru_cache(maxsize=None)
def files():
    """Every file of the repo, as a path relative to it."""
    return [p.relative_to(ROOT).as_posix() for p in sorted(ROOT.rglob("*"))
            if p.is_file()]


class Rule(NamedTuple):
    name: str
    section: str
    match: object          # Module -> (node, key) pairs, or a Text
    scope: str = ""        # regex over the path under src/repro/
    allow: tuple = ()      # a module left out, or a "module:Qualified.name" allowed
    most: int = None       # at most this many matches per key
    exactly: tuple = ()    # keys matched exactly once each


#: An index's rows (``gear/index.py``'s ``IndexEntries``), its entries and
#: those minted so far: written by the index that built or parsed them,
#: never by a reader.
INDEX_COLUMNS = {"paths", "kinds", "modes", "uids", "gids", "blobs", "targets",
                 "identities", "sizes", "entries", "minted"}
#: Where an archive's index template is set: its empty start, the
#: writer's columns and the one parse of an archive built elsewhere.
TEMPLATE_WRITERS = ("vfs/tar.py:LayerArchive._load", "gear/index.py:GearIndex.from_rows",
                    "gear/index.py:GearIndex.from_image")
TIERS = ("ha", "edge", "faas")
RULES = (
    Rule("host-clock", "§13", imports(r"(time|datetime)(\..*)?")),
    Rule("host-clock", "§13", named(r".*(perf_counter|process_time|monotonic).*")),
    Rule("host-clock", "§13", named(r"time.*", (ast.Attribute,),
                                    lambda n: ident(n.value).endswith("time"))),
    Rule("one-harness", "§4", Text(r"REPRO_BENCH_QUIC[K]|benchmark\.pedanti[c]", ("",),
                                   (".py", ".toml", ".sh", ".md"), ("CHANGES.md", "ROADMAP.md"))),
    Rule("download-chain", "§10", named("next_backoff"), "net/",
         ("net/resilience.py", "net/transport.py")),
    Rule("download-chain", "§10", imports(r"repro\.bench(\..*)?"), "net/", ("net/topology.py",)),
    Rule("thread-identity", "§5", named("get_ident"), allow=("common/clock.py",)),
    Rule("worker-escape", "§5", spelled("on_worker"), allow=(
        "common/clock.py", "gear/viewer.py:GearFileViewer._fetch_degraded"), exactly=("on_worker",)),
    Rule("single-flight", "§5", nodes((ast.Subscript,), lambda n: ident(n.value).endswith("inflight")),
         allow=("net/resilience.py",)),
    Rule("single-flight", "§5", on(lambda name: name.endswith("inflight"), "pop", "get", "setdefault"),
         allow=("net/resilience.py",)),
    Rule("sync-twin", "§5", named(r"(_materialize|_fault_in|_fetch_remote).*", DEFS),
         "gear/viewer.py", most=1),
    Rule("sync-twin", "§5", named(r"(_get_partial|_fetch_chunk_claimed).*", DEFS),
         "gear/bigfile.py", most=1),
    Rule("sync-twin", "§5", named(r"(_attempt).*", DEFS), "net/transport.py", most=1),
    Rule("sync-twin", "§5", named(r"(_transfer_flow).*", DEFS), "net/link.py", most=0),
    Rule("content-address", "§10", nodes((ast.Constant,), lambda n: str(n.value).startswith("uid-")
                                         and isinstance(n.value, str)), allow=("gear/gearfile.py",)),
    Rule("content-address", "§10", compared(
        (ast.Eq, ast.NotEq), lambda a: ast.unparse(a).endswith("fingerprint"),
        lambda b: "identity" in ast.unparse(b)), allow=("gear/gearfile.py",)),
    Rule("content-address", "§10", compared(
        (ast.Eq, ast.NotEq), lambda a: ast.unparse(a).endswith("identity"),
        lambda b: "fingerprint" in ast.unparse(b)), allow=("gear/gearfile.py",)),
    Rule("landing-tail", "§15", on(lambda name: name.endswith("index"), "link"), "gear/",
         ("gear/viewer.py:GearFileViewer._link",), exactly=("link",)),
    Rule("landing-tail", "§15", calls("link_begin|fetch_commit"), "gear/", (
        "gear/viewer.py:GearFileViewer._link", "gear/viewer.py:GearFileViewer._admit"),
         exactly=("link_begin", "fetch_commit")),
    Rule("own-pass", "§10", named(r"_one_pass.*", DEFS), "net/"),
    Rule("own-pass", "§10", named(r".*(_resilient_read|_last_served).*"), "net/"),
    Rule("retry-rounds", "§10", named("retry_rounds"), allow=("net/resilience.py",)),
    Rule("retryable-catch", "§10", nodes((ast.ExceptHandler,), lambda n: n.type is not None
                                         and "RETRYABLE_ERRORS" in ast.unparse(n.type)),
         r"net/(ha|edge|faas)\.py", ("net/ha.py:_HedgedPair.fetch.attempt",
                                     "net/ha.py:HealthMonitor.probe",
                                     "net/ha.py:HAFetchPolicy._fan_out_write")),
    Rule("one-walk", "§10", named("walk", DEFS), "net/resilience.py", most=1),
    Rule("tier-test", "§10", compared((ast.Is, ast.IsNot), lambda a: ident(a) in TIERS and
                                      isinstance(a, ast.Attribute), lambda b: ast.unparse(b) == "None"),
         r"(bench/environment|net/topology)\.py"),
    Rule("tier-test", "§10", named("ha|edge|faas", (ast.Attribute,), tested),
         r"(bench/environment|net/topology)\.py"),
    Rule("one-wave", "§10", named(r"(deploy_wave|_wave_counters).*", DEFS), "net/topology.py", most=1),
    Rule("edge-testbed", "§10", Text("make_edge_testbed", ("src/", "tests/", "examples/"))),
    Rule("queue-entry", "§13", named(r".*(_event_pool|pooled).*")),
    Rule("queue-entry", "§13", nodes((ast.Subscript,), lambda n: ast.unparse(n.slice) == "2"),
         "net/link.py"),
    Rule("record-per-operation", "§17", calls("TransferRecord|JournalRecord|TarEntry"), allow=(
        "net/link.py:TransferRecords._rows", "gear/journal.py:JournalRecords._rows",
        "vfs/tar.py:TarEntries._rows"), most=1),
    Rule("member-tuple", "§17", nodes((ast.Attribute,), lambda n: ident(n.value) == "self" and
                                      n.attr in ("_entries", "_members", "_records", "_rows")),
         "vfs/tar.py"),
    Rule("member-tuple", "§17", nodes((ast.Subscript, ast.Constant), lambda n: re.match(
        r"[Tt]uple\[TarEntry", n.value if type(n) is ast.Constant and isinstance(n.value, str)
        else ast.unparse(n))), "vfs/tar.py"),
    Rule("member-tuple", "§17", calls("tuple", lambda n: any(
        isinstance(a, ast.Call) and ident(a.func) == "sorted" for a in n.up.args[:1])), "vfs/tar.py"),
    Rule("metadata-write", "§17", nodes((ast.Attribute,), lambda n: isinstance(n.ctx, ast.Store) and
                                        n.attr in ("mode", "uid", "gid", "mtime", "xattrs")
                                        and ident(n.value) == "meta")),
    Rule("metadata-write", "§17", on(lambda name: name.endswith("meta"), "copy")),
    Rule("index-write", "§9", named("link_inode")),
    Rule("index-write", "§9", named("write_file|remove|mkdir|symlink|hardlink|whiteout", (
        ast.Attribute,), lambda n: isinstance(n.value, ast.Attribute) and n.value.attr == "tree"
        and ident(n.value.value).endswith("index")), "gear/"),
    Rule("index-write", "§9", nodes((ast.Subscript,), lambda n: isinstance(n.ctx, (
        ast.Store, ast.Del)) and isinstance(n.value, ast.Attribute) and n.value.attr in INDEX_COLUMNS),
         "gear/", ("gear/index.py:IndexEntries.entry",)),
    Rule("index-write", "§9", calls("append|extend|insert|pop|remove|sort|clear|update", lambda n: (
        isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute)
        and n.value.attr in INDEX_COLUMNS)), "gear/"),
    Rule("metric-instrument", "§11", named("Counter|Gauge|Histogram", (ast.ClassDef,),
                                           lambda n: isinstance(n.up, ast.Module)), "obs/metrics.py"),
    Rule("metric-instrument", "§11", named("counter|gauge|histogram", DEFS[:2]), "obs/metrics.py"),
    Rule("reset-stats", "§11", named(r"reset_stats.*", DEFS)),
    Rule("rewind", "§11", named("reset|clear", DEFS[:2]),
         r"(common/clock|obs/metrics|net/link|obs/trace)\.py"),
    Rule("reset-callback", "§11", named(r".*reset_spent.*")),
    Rule("reset-callback", "§11", calls("register_callback", lambda n: any(
        k.arg == "reset" for k in n.up.keywords))),
    Rule("reset-callback", "§11", named("register_callback", DEFS[:2], lambda n: any(
        a.arg == "reset" for a in ast.walk(n.args) if isinstance(a, ast.arg)))),
    Rule("unpack-at-register", "§13", calls(r".*(diff_tree|extract_diff|freeze)", lambda n: re.match(
        r"\w+\.register_layer\b", qualname(n))), "docker/graphdriver.py"),
    Rule("payload-rehash", "§17", nodes((ast.BinOp,), lambda n: isinstance(n.op, ast.Mult) and
                                        ast.unparse(n.left) == "b'x'" and not any(
        isinstance(a, ast.Call) and "Blob" in ast.unparse(a.func) for a in ancestors(n))),
         "workloads/"),
    Rule("tree-rebuilt", "§13", spelled(
        r".*mirror|apply_to|extract(_diff)?|write_(file|at)|mkdir(_at)?|symlink(_at)?|whiteout(_at)?"),
         r"gear/(index|commit|converter)\.py"),
    Rule("tree-rebuilt", "§13", spelled(r"FileSystemTree|.*write_file"), "workloads/corpus.py"),
    Rule("stub-minted", "§13", calls(r".*from_text", lambda n: any(
        isinstance(c, ast.Call) and ident(c.func).endswith("stub_content") and not c.args
        for a in n.up.args for c in ast.walk(a))), allow=("gear/index.py:_stub",),
         exactly=("from_text",)),
    Rule("stub-minted", "§13", calls("_stub|GearFileEntry"), allow=(
        "gear/index.py:_stub", "gear/index.py:row_of", "gear/index.py:IndexEntries._fresh")),
    Rule("lower-mint", "§13", calls(r"Inode|__new__"), "gear/index.py",
         ("gear/index.py:IndexEntries.mint",)),
    Rule("parse-archive", "§13", calls("_parse_archive"),
         allow=("gear/index.py:GearIndex.from_image",), exactly=("_parse_archive",)),
    Rule("template-write", "§13", nodes((ast.Attribute,), lambda n: n.attr == "index_template"
                                        and isinstance(n.ctx, (ast.Store, ast.Del))),
         allow=TEMPLATE_WRITERS),
    Rule("template-write", "§13", calls("setattr|delattr", lambda n: any(
        ident(a) == "index_template" for a in n.up.args)), allow=TEMPLATE_WRITERS),
    Rule("inode-attribute", "§13", named(r".*(mtime|xattrs)", where=lambda n: isinstance(
        n, (ast.keyword, ast.arg)) or isinstance(getattr(n, "ctx", None), ast.Store) or isinstance(
        n.up, ast.Compare) and any(isinstance(op, ast.Eq) for op in n.up.ops)),
         allow=("vfs/inode.py",)),
    Rule("inode-attribute", "§13", calls("Metadata", lambda n: len(n.up.args) + len(
        n.up.keywords) >= 4), allow=("vfs/inode.py",)),
    Rule("inode-attribute", "§13", calls("with_xattr", lambda n: not (
        len(n.up.args) >= 2 and ident(n.up.args[0]) == "STUB_XATTR"))),
    Rule("chunk-fingerprint", "§17", spelled("fingerprint_tokens"), "blob/blob.py", (
        "blob/blob.py:_token_fingerprint", "blob/blob.py:Blob.fingerprint")),
    Rule("crash-hook", "§15", calls("_chunk_crash_checkpoint", lambda n: not guarded(
        n, lambda test: "self.crash is not None" in test, first=True)), "gear/bigfile.py"),
    Rule("span-untraced", "§15", calls(r".*span", lambda n: re.match(
        r"\w+\._fetch_chunk_claimed\b", qualname(n)) and not guarded(
        n, lambda test: test == "traced")), "gear/bigfile.py"),
    Rule("one-conversion-pass", "§4", calls("GearConverter"),
         allow=("bench/environment.py:_with_client",)),
    Rule("one-catalogue", "§7", named("poisoned|audit_integrity", DEFS[:2]),
         allow=("invariants.py", "net/resilience.py:Tier")),
    Rule("one-catalogue", "§7", calls("verified", over_a_store), allow=("invariants.py",)),
    Rule("unused-import", "§13", unused_imports),
)


@lru_cache(maxsize=None)
def scoped(rule, paths):
    """The modules among ``paths`` that ``rule`` reads."""
    return [path for path in paths if path.startswith(PACKAGE) and path.endswith(".py")
            and path[len(PACKAGE):] not in rule.allow
            and re.match(rule.scope, path[len(PACKAGE):]) is not None]


def check(trees, texts=None, rules=RULES):
    """``(rule, report line)`` for every finding of ``rules`` in ``trees``
    (path -> parse) and ``texts`` (path -> text standing in for a file)."""
    posix = {path.as_posix(): tree for path, tree in trees.items()}
    paths = tuple(posix)
    found = []
    for rule in rules:
        where = f"{rule.name} ({rule.section})"
        if isinstance(rule.match, Text):
            hits = rule.match.hits(texts or {})
        else:
            hits = [(path, *hit) for path in scoped(rule, paths)
                    for hit in module(posix[path]).hits(rule)]
        sites = [site for site in rule.allow if ":" in site]
        counted = rule.most is not None or rule.exactly
        keys = Counter(key for *_, key in hits)
        for path, line, qual, key in hits:
            report = f"{path}:{line}: in {qual}: {where}"
            if (sites or not counted) and f"{path[len(PACKAGE):]}:{qual}" not in sites:
                found.append((rule, report))
            elif rule.most is not None and keys[key] > rule.most:
                found.append((rule, f"{report}: {key} {keys[key]} times, at most {rule.most}"))
            elif key in rule.exactly and keys[key] != 1:
                found.append((rule, f"{report}: {key} {keys[key]} times, exactly once"))
        found += [(rule, f"{PACKAGE}{rule.scope}: {where}: {key} 0 times, exactly once")
                  for key in rule.exactly if not keys[key]]
    return found


def main():
    gc.disable()  # a million nodes, all alive until exit: nothing to collect
    trees = load(*DIRS)
    found = check(trees)
    for _, line in found:
        print(line)
    print(f"{len({r.name for r in RULES})} rules over {len(trees)} parsed files: "
          f"{len(found)} findings")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
