"""Census of what no real run enters: one measured pass.

Runs the real-run set once, in this interpreter, with a call hook on
every thread (``sys.settrace`` and ``threading.settrace``; the hook asks
for no line events), and lists what the runs never needed:

- a definition under ``src/`` that no run enters.  A dunder is exempt:
  Python calls it.  A definition nested in one that is listed or
  allowlisted goes with it.
- a defaulted parameter of an entered function that held its default on
  every entry.  Only a frame's first entry is compared (``f_lasti`` at
  the code's first ``RESUME``), so a resumed generator is not a call; a
  value passed explicitly at its default is no other value.
- a ``(command, flag)`` of ``repro.cli.build_parser()`` that no argv a
  run hands to ``repro.cli.main`` contains.  A flag of the shared parser
  is one flag, whichever command passes it.

**The real-run set** (:func:`real_runs`): every ``python -m repro.cli``
command typed at the start of a line in README.md, DESIGN.md or
``.claude/skills`` (with its ``\\`` continuations, in a scratch working
directory; a line holding a placeholder, ``[``, ``<`` or ``$(``, is
skipped and named), the five examples, ``benchmarks/artifacts.py`` into
a scratch directory (every ``GATES`` row at seed 11), and the six ledger
workloads at their ``smoke`` size plus one traced ``wave`` pass, made
through ``benchmarks/ledger`` as its ``run.py --child`` makes them.  A
run that exits non-zero or fails its checks is a finding too.

Anything else stays only with an entry in :data:`DEFINITIONS`,
:data:`PARAMETERS` or :data:`FLAGS` that names its DESIGN section.  An
entry whose site a run enters, sets or passes, or that names nothing,
is stale, and a finding.

Usage: python scripts/census.py   (from the repo root; about a minute)
Prints one line per finding and exits 1 when there is any.
"""

import ast
import contextlib
import dis
import importlib
import io
import os
import re
import runpy
import shlex
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", ".claude/skills")
#: A typed command: a line that starts with it, after any ``VAR=value``.
TYPED = re.compile(r"^\s*(?:\w+=\S*\s+)*python -m repro\.cli\s+(.*)$")
PLACEHOLDERS = ("[", "<", "$(")
COMMIT = "§3 (commit path): the paper's commit (§III-D2); ROADMAP 4(d) generates commits against it"
POSIX = ("§2: the VFS stands in for overlayfs, so it keeps the POSIX surface the commit "
         "path and the oracles in tests/test_vfs_oracle.py and tests/test_vfs_cow.py use")
LEDGER = "§13: the perf ledger (benchmarks/ledger/, frozen for program changes) names it"

#: ``"path:Qualified.name"`` -> the DESIGN section that keeps a
#: definition no real run enters, and why.
DEFINITIONS = {
    "src/repro/gear/commit.py:commit_container": COMMIT,
    "src/repro/gear/commit.py:_drop_below": COMMIT,
    "src/repro/docker/daemon.py:DockerDaemon.add_local_image": COMMIT,
    "src/repro/docker/daemon.py:DockerDaemon.commit": COMMIT,
    "src/repro/docker/daemon.py:DockerDaemon.push": COMMIT,
    "src/repro/gear/index.py:IndexEntries.rows": COMMIT,
    "src/repro/net/ha.py:HAFetchPolicy._fan_out_write": COMMIT + ", through every replica",
    **{f"src/repro/vfs/tree.py:{name}": POSIX for name in (
        "FileSystemTree.exists", "FileSystemTree.stat", "FileSystemTree.is_dir",
        "FileSystemTree.is_file", "FileSystemTree.read_bytes", "FileSystemTree.readlink",
        "FileSystemTree.listdir", "FileSystemTree.symlink", "FileSystemTree.hardlink",
        "FileSystemTree.remove", "FileSystemTree.remove_at", "FileSystemTree.whiteout",
        "FileSystemTree.whiteout_at", "FileSystemTree.set_opaque",
        "FileSystemTree._own_leaf", "_tally_leaves", "_entries_of")},
    **{f"src/repro/vfs/overlay.py:OverlayMount.{name}": POSIX for name in (
        "stat", "is_dir", "readlink", "listdir", "remove", "_upper_entry")},
    "src/repro/vfs/inode.py:Inode.is_symlink": POSIX,
    "src/repro/vfs/overlay.py:OverlayMount.copy_up": LEDGER,
    "src/repro/common/hashing.py:sha256_bytes": LEDGER,
    "src/repro/common/clock.py:SimClock.detach_tracer": LEDGER,
    "src/repro/gear/index.py:GearIndex._parse_archive":
        "§13: the one parse of an index built elsewhere checks input from outside the program",
    "src/repro/gear/index.py:GearFileEntry.parse_stub":
        "§13: a stub read from a foreign index is checked, not trusted",
    "src/repro/gear/index.py:GearIndex.unlink":
        "§9: fsck rolls a link torn mid-way back to its stub",
    "src/repro/gear/index.py:_Listing.keys":
        "§13: a lazy listing answers every whole-directory read whole, never a partial dict",
    "src/repro/gear/index.py:_Listing.values":
        "§13: a lazy listing answers every whole-directory read whole, never a partial dict",
    "src/repro/bench/paper.py:splice":
        "§4: `benchmarks/artifacts.py --full` splices the full-size run into EXPERIMENTS.md",
    "src/repro/gear/registry.py:GearRegistry.corrupt":
        "§7: the seam that rots a stored Gear file in place, behind the integrity and "
        "chunk give-up paths",
    "src/repro/storage/objectstore.py:ObjectStore.delete":
        "§7: GearRegistry.corrupt replaces a stored object through it",
    "src/repro/gear/fingerprint.py:collision_probability_bound":
        "§4: the analytic row for §III-B eq. 1",
    "src/repro/common/clock.py:SimScheduler.handoffs":
        "§5 (the process model): worker parks, read by count; goes with ROADMAP item 2",
    "src/repro/common/clock.py:SimScheduler.escapes":
        "§5 (the process model): calls out of process mode, read by count; goes with "
        "ROADMAP item 2",
    "src/repro/common/clock.py:SimScheduler.abort":
        "§9: a node's power loss: the client's sibling processes die with it",
    "src/repro/common/clock.py:_settled":
        "§5: a generator process that returns owing debt settles it before it finishes, "
        "as a call process does",
    "src/repro/net/resilience.py:Source.missed":
        "§10: the default miss, which ends the pass, for the site-cache and registry sources",
    "src/repro/net/resilience.py:Tier.services":
        "§10: the no-op default FaasFabric inherits",
    "src/repro/net/resilience.py:Tier.wave_counters":
        "§10: the no-op default FaasFabric inherits",
    "src/repro/net/link.py:Link.bandwidth_mbps":
        "§8: the link's speed is a settable attribute: its setter works out the byte rate, "
        "and it reads back",
    "src/repro/net/ha.py:HATransport.add_probes":
        "§11: the timeline sampler's per-replica breaker and gate gauges",
    "src/repro/net/link.py:TransferLog.records":
        "§17: the link log's read surface; the golden replays compare transfer rows through it",
    "src/repro/net/link.py:TransferRecords._rows":
        "§17: the link log's read surface; the golden replays compare transfer rows through it",
}

#: ``"path:Qualified.name(parameter=)"`` -> the DESIGN section that keeps
#: a parameter no real run sets, and why: kept code passes it, a property
#: test draws it as a dimension, or a ROADMAP item bounds over it.
PARAMETERS = {
    "src/repro/blob/blob.py:Blob.synthetic(chunk_size=)":
        "§15: the covering-chunks property in tests/test_gear_chunks.py draws the chunk size",
    "src/repro/gear/bigfile.py:ChunkedGearFileViewer.__init__(chunk_buffer_bytes=)":
        "§15: ROADMAP item 15 bounds a viewer's chunks over buffer sizes",
    "src/repro/vfs/overlay.py:OverlayMount.__init__(upper=)":
        "§2: the overlay oracle in tests/test_vfs_oracle.py draws the upper layer, whiteouts "
        "and opaque directories included",
    "src/repro/vfs/tree.py:FileSystemTree.mkdir(meta=)":
        "§2: the copy-on-write property in tests/test_vfs_cow.py draws a directory's metadata",
    "src/repro/vfs/tree.py:FileSystemTree.write_file(meta=)":
        "§2: the oracles in tests/test_vfs_oracle.py draw a file's metadata",
    "src/repro/vfs/tree.py:FileSystemTree.walk(top=)":
        "§2: the oracles in tests/test_vfs_oracle.py draw the subtree walked",
    "src/repro/vfs/overlay.py:OverlayMount.walk(top=)":
        "§2: the overlay oracle in tests/test_vfs_oracle.py draws the subtree walked",
    "src/repro/vfs/overlay.py:OverlayMount.exists(follow_symlinks=)":
        "§2: the column-lower oracle in tests/test_vfs_oracle.py draws lookups through a "
        "viewer that follow a final symlink or stop at it",
    "src/repro/vfs/tree.py:FileSystemTree._lookup(follow_symlinks=)": POSIX,
    "src/repro/vfs/tree.py:FileSystemTree._drop_link(entries=)": POSIX,
    "src/repro/vfs/overlay.py:OverlayMount._descend(follow_last=)": POSIX,
    "src/repro/vfs/overlay.py:OverlayMount._resolve(follow_symlinks=)": POSIX,
    "src/repro/gear/viewer.py:GearFileViewer._resolve(follow_symlinks=)": POSIX,
    "src/repro/vfs/overlay.py:OverlayMount._upper_mkdir(meta=)": POSIX,
    "src/repro/vfs/inode.py:Inode.clone(links=)":
        "§2: a writable tree's deep copy keeps its hard links linked",
    **{f"src/repro/vfs/inode.py:Metadata.__new__({name}=)":
       "§2: a tar header's owner and mtime; an archive's digest and an index's columns "
       "carry them, and the oracles draw them" for name in ("uid", "gid", "mtime")},
    "src/repro/common/clock.py:SimScheduler._wake(value=)":
        "§5: `yield process` resumes with that process's result, finished or not",
    "src/repro/net/faas.py:SharedCacheTier._deliver(vouch=)":
        "§14: a payload the tier could not verify is delivered unvouched",
    **{f"src/repro/{site}(request_payload_bytes=)": COMMIT for site in (
        "net/transport.py:RpcTransport.call", "net/transport.py:RpcTransport.call_gen",
        "net/ha.py:HAFetchPolicy.call")},
    "src/repro/bench/environment.py:publish_images(convert=)": LEDGER,
    "src/repro/net/topology.py:EdgeCluster.__init__(churn_horizon_s=)": LEDGER,
    "src/repro/net/edge.py:ChurnSchedule.generate(horizon_s=)":
        LEDGER + " as EdgeCluster(churn_horizon_s=), which passes it on",
    "src/repro/vfs/tree.py:FileSystemTree.mkdir(parents=)": LEDGER,
}

#: ``"command --flag"`` (``*`` for the shared parser) -> the DESIGN
#: section that keeps a flag no real run passes, and why.
FLAGS = {
    "ha --scenario": "§10: ROADMAP item 3's acceptance types `ha --scenario outage`",
}


class Definition:
    """One ``def`` under ``src/``: where it stands and what it defaults."""

    def __init__(self, path, node, qualified, parent):
        self.path, self.node, self.qualified, self.parent = path, node, qualified, parent
        self.first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = node.end_lineno - self.first + 1
        args = node.args
        positional = args.posonlyargs + args.args
        self.defaulted = dict(zip([a.arg for a in positional[len(positional) - len(args.defaults):]],
                                  args.defaults))
        self.defaulted.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None)

    @property
    def site(self):
        return f"{self.path}:{self.qualified}"


def definitions(src):
    """``{(absolute file, first line, name): Definition}`` of every
    function and method under ``src``, decorators included in its lines."""
    found = {}
    for file in sorted(src.rglob("*.py")):
        relative = file.relative_to(src.parent).as_posix()

        def visit(node, names, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A property's setter is a definition of its own.
                    accessor = [d.attr for d in child.decorator_list if isinstance(d, ast.Attribute)
                                and d.attr in ("setter", "deleter")]
                    qualified = ".".join(names + [child.name] + accessor)
                    definition = Definition(relative, child, qualified, parent)
                    found[str(file), definition.first, child.name] = definition
                    visit(child, names + [child.name], definition)
                elif isinstance(child, ast.ClassDef):
                    visit(child, names + [child.name], parent)
                else:
                    visit(child, names, parent)
        visit(ast.parse(file.read_text(), filename=str(file)), [], None)
    return found


def _same(value, default):
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:  # an __eq__ that raises: no proof it is the default
        return False


class Hook:
    """The call hook: which definitions runs enter, which defaulted
    parameters they enter with another value, and each argv handed to
    the CLI's ``main``."""

    def __init__(self, known, main):
        self.known, self.main = known, main    # main: a Definition
        self.states = {}        # code -> None (nothing left to see) or [offset, pending, definition]
        self.entered = set()    # Definitions
        self.varied = set()     # (Definition, parameter)
        self.argvs = []
        self.files = {}         # co_filename -> absolute path

    def __call__(self, frame, event, arg):
        code = frame.f_code
        state = self.states.get(code, self)
        if state is self:
            state = self._first_sight(code)
        if state is not None and frame.f_lasti == state[0]:
            self._compare(code, frame.f_locals, state)
        return None

    def _first_sight(self, code):
        file = self.files.get(code.co_filename)
        if file is None:
            file = self.files[code.co_filename] = os.path.abspath(code.co_filename)
        definition = self.known.get((file, code.co_firstlineno, code.co_name))
        state = None
        if definition is not None:
            self.entered.add(definition)
            pending = self._defaults(definition)
            if pending or definition is self.main:
                offset = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
                state = [offset, pending, definition]
        self.states[code] = state
        return state

    def _defaults(self, definition):
        """``{parameter: default}``, each default evaluated from the source
        in its module's namespace: one no module scope names is skipped."""
        parts = Path(definition.path).with_suffix("").parts[1:]
        module = sys.modules.get(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        pending = {}
        for name, node in definition.defaulted.items():
            try:
                pending[name] = eval(compile(ast.Expression(node), "<default>", "eval"),
                                     vars(module) if module else {})
            except NameError:
                continue    # nothing to compare with: the parameter reads as never set
        return pending

    def _compare(self, code, local, state):
        offset, pending, definition = state
        if definition is self.main:
            argv = local.get("argv")
            self.argvs.append(list(sys.argv[1:] if argv is None else argv))
        for name, default in list(pending.items()):
            if name in local and not _same(local[name], default):
                self.varied.add((definition, name))
                pending.pop(name, None)
        if not pending and definition is not self.main:
            self.states[code] = None


def flags(parser, argvs):
    """``(declared, passed)``: the ``(command, flag)`` of every ``--flag``
    a subcommand of ``parser`` takes, ``("*", flag)`` for one they all
    share, and those that ``argvs`` pass."""
    commands = parser._subparsers._group_actions[0].choices
    shared = set.intersection(*({id(a) for a in sub._actions} for sub in commands.values()))
    keys = {id(action): ("*" if id(action) in shared else command, flag)
            for command, sub in commands.items() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    passed = {keys[id(action)] for argv in argvs if argv and argv[0] in commands
              for word in argv[1:] if word.startswith("--")
              for action in [commands[argv[0]]._option_string_actions.get(word.partition("=")[0])]
              if id(action) in keys}
    return set(keys.values()), passed


def typed(text):
    """``(argv or None, the line)`` of each typed ``python -m repro.cli``
    command in ``text``; None when the line holds a placeholder."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        found = TYPED.match(line)
        if not found:
            continue
        command = found.group(1)
        while command.rstrip().endswith("\\") and index + 1 < len(lines):
            index += 1
            command = command.rstrip()[:-1] + " " + lines[index]
        command = command.partition(" #")[0]
        yield (None if any(p in command for p in PLACEHOLDERS) else shlex.split(command)), line.strip()


def _quiet(run):
    """``run()``'s exit status, its output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            status = run()
        except SystemExit as stop:
            status = stop.code
    return status or 0


def real_runs(scratch):
    """``(name, run)`` of each real run: ``run()`` returns what failed."""
    from repro import cli

    docs = [path for name in DOCS for path in (
        sorted((ROOT / name).rglob("*.md")) if (ROOT / name).is_dir() else [ROOT / name])]
    seen = set()
    for path in docs:
        for argv, line in typed(path.read_text()):
            name = f"{path.relative_to(ROOT)}: {line}"
            if argv is None:
                yield name, lambda: "skipped: it holds a placeholder"
                continue
            if tuple(argv) in seen:
                continue    # typed twice, run once
            seen.add(tuple(argv))

            def command(argv=argv):
                with contextlib.chdir(tempfile.mkdtemp(dir=scratch)):
                    status = _quiet(lambda: cli.main(argv))
                return status and f"exit {status}"
            yield name, command

    for path in sorted((ROOT / "examples").glob("*.py")):
        def example(path=path):
            status = _quiet(lambda: runpy.run_path(str(path), run_name="__main__") and None)
            return status and f"exit {status}"
        yield path.relative_to(ROOT).as_posix(), example

    def artifacts():
        script = runpy.run_path(str(ROOT / "benchmarks" / "artifacts.py"))
        status = _quiet(lambda: script["main"](["--out-dir", tempfile.mkdtemp(dir=scratch)]))
        return status and f"exit {status}"
    yield "benchmarks/artifacts.py", artifacts

    ledger = importlib.import_module("benchmarks.ledger.workloads")
    adapters = importlib.import_module("benchmarks.ledger.adapters")
    tracing = importlib.import_module("benchmarks.ledger.tracing")

    def workload(name, traced):
        one = ledger.BY_NAME[name]()
        one.prepare(7, dict(one.sizes["smoke"]))
        world = one.build()
        tracer = tracing.Tracer() if traced else tracing.NullTracer()
        observed = adapters.install_tracing(tracer) if traced else dict
        try:
            with tracer.recording():
                raw = one.run(world, tracer)
        finally:
            if traced:
                tracer.uninstall()
        observed()
        failures = one.check(world, raw)["failures"]
        return failures and f"{len(failures)} failed operations, first: {failures[0]}"
    for name in ledger.BY_NAME:
        yield f"ledger {name} --smoke", lambda name=name: workload(name, False)
    yield "ledger wave --smoke --trace 1", lambda: workload("wave", True)


def census(runs, src, cli, allowed=(DEFINITIONS, PARAMETERS, FLAGS)):
    """Report lines: each definition, parameter and flag ``runs`` leave
    unused under ``src``, each failed run, and each stale allowlist
    entry.  ``cli`` names the module whose ``main`` and ``build_parser``
    are the command line; nothing under ``src`` is imported before the
    hook is on, so what runs at import is entered too."""
    known = definitions(src)
    cli_path = (Path(*cli.split(".")).with_suffix(".py")).as_posix()
    main = next(d for d in known.values() if d.site == f"{src.name}/{cli_path}:main")
    hook = Hook(known, main)
    failed = []
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        for name, run in runs:
            problem = run()
            if problem:
                failed.append(f"{name}: {problem}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    kept_definitions, kept_parameters, kept_flags = allowed
    report, stale = list(failed), []
    reported = set()
    for definition in sorted(known.values(), key=lambda d: (d.path, d.first)):
        if definition.parent in reported:
            reported.add(definition)
        elif definition.site in kept_definitions:
            reported.add(definition)
            if definition in hook.entered:
                stale.append(f"{definition.site}: allowlisted, but a run enters it")
        elif definition not in hook.entered:
            if not re.fullmatch(r"__\w+__", definition.node.name):
                report.append(f"{definition.path}:{definition.first}: {definition.qualified}: "
                              f"no run enters it ({definition.lines} lines)")
            reported.add(definition)
        else:
            for name in definition.defaulted:
                site = f"{definition.site}({name}=)"
                if (definition, name) in hook.varied:
                    if site in kept_parameters:
                        stale.append(f"{site}: allowlisted, but a run sets it")
                elif site not in kept_parameters:
                    report.append(f"{definition.path}:{definition.node.lineno}: "
                                  f"{definition.qualified}({name}=): always its default")
    sites = {d.site for d in known.values()}
    stale += [f"{key}: allowlisted, but no such definition" for key in kept_definitions
              if key not in sites]
    parameters = {f"{d.site}({name}=)" for d in known.values() for name in d.defaulted}
    stale += [f"{key}: allowlisted, but no such parameter" for key in kept_parameters
              if key not in parameters]
    declared, used = flags(importlib.import_module(cli).build_parser(), hook.argvs)
    for command, flag in sorted(declared):
        key = f"{command} {flag}"
        if (command, flag) in used:
            if key in kept_flags:
                stale.append(f"{key}: allowlisted, but a run passes it")
        elif key not in kept_flags:
            report.append(f"{src.name}/{cli_path}: {key}: no run passes it")
    stale += [f"{key}: allowlisted, but no such flag" for key in kept_flags
              if tuple(key.split(" ", 1)) not in declared]
    return report + stale


def main():
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    with tempfile.TemporaryDirectory() as scratch:
        found = census(real_runs(scratch), ROOT / "src", "repro.cli")
    for line in found:
        print(line)
    print(f"census: {len(found)} findings")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
