"""Census of what nothing outside the tests uses, in two passes.

**Pass 1, defaulted parameters: which of them does some caller set?**
Walks every function under ``src/`` with :mod:`ast`, counts its
parameters that carry a default, and looks for a call in ``src/``,
``benchmarks/`` or ``examples/`` that sets each one: by keyword, by
position, or through a ``*`` / ``**`` splat.  A parameter that nothing
there sets only ever holds its default, so it is a constant written as
an option.  A test is not a caller: a value only a test passes is an
option kept for its own test.  :data:`PARAMETER_ALLOWLIST` keeps one
with its reason.

Calls are matched by name, not by type: ``x.mount(...)`` counts for
every ``def mount`` under ``src/``.  A class call ``Name(...)``,
``cls(...)`` inside the class and ``super().__init__(...)`` inside a
subclass all count for the class's ``__init__`` (and its bases', when
the class defines none).  A function handed on as a value with its
arguments (``scheduler.spawn(self._run, a, b)``, ``partial(f, a)``)
counts as called with the arguments that follow it.  Name matching errs
towards "set", so a listed parameter really is never set.

**Pass 2, definitions: which of them does code outside ``tests/`` use?**
Lists every module-level function and class under ``src/``, and every
method of such a class, that only ``tests/`` reference.  A use is a
reference from ``src/``, ``benchmarks/`` or ``examples/`` (not
``scripts/``: the rule table spells the names it forbids, and no script
calls into ``src/``): a name, an attribute, an imported name, or a string literal that spells
the name (an RPC method handed to ``call`` / ``call_gen``, a
``getattr`` key; a ``getattr(obj, f"_op_{...}")`` key uses every name
with that prefix).  A re-export in an ``__init__.py`` or in ``__all__``
is not a use.  A reference from inside a definition counts only once
that definition is live, so nothing keeps itself alive and what only
test-only code reaches is test-only too: liveness is a fixpoint from
module-level code, dunder methods (Python calls them) and
:data:`DEFINITION_ALLOWLIST`.  A method lives only while its class does.  Matching is by name, so ``x.run()``
keeps every ``run`` alive: a listed definition really is unused.

Both passes are rows of ``scripts/guards.py``'s rule table, which
parses each file once and runs them: ``python scripts/guards.py``.  What
a pass learns from one file is kept on that file's parse, so a run over
the same parses with one module re-parsed (a mutant in
``tests/test_guards.py``) re-reads only that module.
"""

import ast
import gc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where a call sets a parameter (pass 1) or a reference uses a
#: definition (pass 2): everything but ``tests/`` and ``scripts/``.
USER_DIRS = ("src", "benchmarks", "examples")

#: ``"path:Qualified.name(parameter=)"`` -> the DESIGN section that keeps
#: a parameter no caller outside tests/ sets, and why: Python passes it
#: itself, a property test draws it, or a ROADMAP item bounds over it.
#: tests/test_census.py pins every entry.
PARAMETER_ALLOWLIST = {
    "src/repro/vfs/inode.py:Metadata.__setattr__(value=)":
        "§2: Python calls it as __delattr__ too, with no value",
    "src/repro/blob/blob.py:Blob.synthetic(chunk_size=)":
        "§15: the covering-chunks property in tests/test_gear_chunks.py "
        "draws the chunk size",
    "src/repro/gear/bigfile.py:ChunkedGearFileViewer.__init__(chunk_buffer_bytes=)":
        "§15: ROADMAP item 15 bounds a viewer's chunks over buffer sizes",
    "src/repro/vfs/overlay.py:OverlayMount.__init__(upper=)":
        "§2: the overlay oracle in tests/test_vfs_oracle.py draws the upper "
        "layer, whiteouts and opaque directories included",
    "src/repro/vfs/tree.py:FileSystemTree.mkdir(meta=)":
        "§2: the copy-on-write property in tests/test_vfs_cow.py draws a "
        "directory's metadata",
}


def python_files(*dirs):
    for name in dirs:
        yield from sorted((ROOT / name).rglob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def load(*dirs):
    """``{path relative to ROOT: its parse}`` for every Python file under ``dirs``."""
    # Parses allocate a million nodes the collector could only walk, not free.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return {path.relative_to(ROOT): parse(path) for path in python_files(*dirs)}
    finally:
        if collecting:
            gc.enable()


def per_file(function):
    """Keep ``function(tree, ...)`` on the parse itself: one visit per parse."""
    name = f"_{function.__name__}"

    def cached(tree, *args):
        if name not in tree.__dict__:
            setattr(tree, name, function(tree, *args))
        return getattr(tree, name)
    return cached


def defaulted(function):
    """``(name, position)`` of each parameter with a default.

    ``position`` counts the parameters a call passes positionally
    (``self`` / ``cls`` excluded for a method); it is None for a
    keyword-only parameter.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    skip = 1 if function.is_method and positional else 0
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


class Definitions(ast.NodeVisitor):
    """Every function under ``src/`` and the bases of every class."""

    def __init__(self):
        self.functions = []        # (path, qualified name, callee key, node)
        self.bases = {}            # class name -> base class names
        self.inits = set()         # classes that define __init__ or __new__
        self.scope = []
        self.path = None           # the file being visited, for the report

    def visit_ClassDef(self, node):
        self.bases[node.name] = [base.id if isinstance(base, ast.Name) else base.attr
                                 for base in node.bases
                                 if isinstance(base, (ast.Name, ast.Attribute))]
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        owner = self.scope[-1] if self.scope else None
        node.is_method = isinstance(owner, ast.ClassDef) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        key = node.name
        if node.name in ("__init__", "__new__") and isinstance(owner, ast.ClassDef):
            key = owner.name
            self.inits.add(owner.name)
        qualified = ".".join([s.name for s in self.scope] + [node.name])
        self.functions.append((self.path, qualified, key, node))
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class Calls(ast.NodeVisitor):
    """What the calls of one file set, keyed by callee as written: a name,
    or ``("super", class)`` for ``super().__init__`` inside that class."""

    def __init__(self):
        self.sets = {}   # callee -> [most positional args, keywords, *splat, **splat]
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def _callees(self, func):
        if isinstance(func, ast.Name):
            return [self.classes[-1] if func.id == "cls" and self.classes else func.id]
        if isinstance(func, ast.Attribute):
            value = func.value
            if (func.attr == "__init__" and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name) and value.func.id == "super"
                    and self.classes):
                return [("super", self.classes[-1])]
            return [func.attr]
        return []

    def _record(self, callee, args, keywords):
        entry = self.sets.setdefault(callee, [0, set(), False, False])
        count = 0
        for arg in args:
            if isinstance(arg, ast.Starred):
                entry[2] = True
                break
            count += 1
        entry[0] = max(entry[0], count)
        for keyword in keywords:
            if keyword.arg is None:
                entry[3] = True
            else:
                entry[1].add(keyword.arg)

    def visit_Call(self, node):
        for callee in self._callees(node.func):
            self._record(callee, node.args, node.keywords)
        # A callable handed on with its arguments: spawn(f, a, b), partial(f, a).
        for index, arg in enumerate(node.args):
            if isinstance(arg, (ast.Name, ast.Attribute)):
                for callee in self._callees(arg):
                    self._record(callee, node.args[index + 1:], node.keywords)
        self.generic_visit(node)


@per_file
def defined(tree, path):
    definitions = Definitions()
    definitions.path = path
    definitions.visit(tree)
    return definitions


@per_file
def called(tree):
    calls = Calls()
    calls.visit(tree)
    return calls.sets


def census(trees=None):
    """``(defaulted parameters under src/, report lines of those no call
    sets and of stale allowlist entries)``."""
    trees = load(*USER_DIRS) if trees is None else trees
    functions, bases, inits = [], {}, set()
    for path, tree in trees.items():
        if path.parts[0] == "src":
            definitions = defined(tree, path)
            functions += definitions.functions
            bases.update(definitions.bases)
            inits |= definitions.inits

    def init_of(name):
        """The class whose ``__init__`` a call to class ``name`` runs."""
        seen = set()
        while name not in inits and name in bases and name not in seen:
            seen.add(name)
            if not bases[name]:
                break
            name = bases[name][0]
        return name

    keywords = defaultdict(set)   # callee -> keyword names passed
    positions = defaultdict(int)  # callee -> most positional args
    splat_args, splat_kwargs = set(), set()
    for path, tree in trees.items():
        if path.parts[0] not in USER_DIRS:
            continue
        for raw, (count, names, star, starstar) in called(tree).items():
            if isinstance(raw, tuple):
                callees = {init_of(p) for p in bases.get(raw[1], [])[:1]}
            else:
                callees = {raw, init_of(raw)}
            for callee in callees:
                positions[callee] = max(positions[callee], count)
                keywords[callee] |= names
                if star:
                    splat_args.add(callee)
                if starstar:
                    splat_kwargs.add(callee)

    total, unset, allowed = 0, [], set()
    for path, qualified, key, function in functions:
        for name, position in defaulted(function):
            total += 1
            entry = f"{path.as_posix()}:{qualified}({name}=)"
            is_set = (name in keywords[key] or key in splat_kwargs
                      or position is not None and (
                          position < positions[key] or key in splat_args))
            if entry in PARAMETER_ALLOWLIST:
                allowed.add(entry)
                if is_set:
                    unset.append(f"{entry}: allowlisted, but a caller outside tests/ sets it")
            elif not is_set:
                unset.append(f"{path}:{function.lineno}: {qualified}({name}=)")
    unset += [f"{entry}: allowlisted, but no such parameter"
              for entry in PARAMETER_ALLOWLIST if entry not in allowed]
    return total, unset

#: ``"path:qualified name"`` -> the DESIGN section that keeps a
#: definition only tests call, and why.  Each entry is a root of the
#: liveness fixpoint; tests/test_census.py pins how many there are.
DEFINITION_ALLOWLIST = {
    "src/repro/gear/commit.py:commit_container":
        "§3 (commit path): the paper's commit (§III-D2, §II-A); ROADMAP 4(d) "
        "generates commits against it",
    "src/repro/gear/fingerprint.py:collision_probability_bound":
        "§4: the analytic row for §III-B eq. 1",
    "src/repro/gear/registry.py:GearRegistry.corrupt":
        "§7: the seam that rots a stored Gear file in place, behind the "
        "integrity and chunk give-up paths",
    "src/repro/common/clock.py:SimScheduler.handoffs":
        "§5 (the process model): worker parks, read by count; goes with "
        "ROADMAP item 2",
    "src/repro/common/clock.py:SimScheduler.escapes":
        "§5 (the process model): calls out of process mode, read by count; "
        "goes with ROADMAP item 2",
    "src/repro/vfs/tree.py:FileSystemTree.readlink":
        "§2: the VFS stands in for overlayfs, so it keeps its POSIX surface",
    "src/repro/vfs/tree.py:FileSystemTree.hardlink":
        "§2: the VFS stands in for overlayfs, so it keeps its POSIX surface",
    "src/repro/vfs/tree.py:FileSystemTree.set_opaque":
        "§2: the VFS stands in for overlayfs, so it keeps its POSIX surface",
    "src/repro/vfs/overlay.py:OverlayMount.readlink":
        "§2: the VFS stands in for overlayfs, so it keeps its POSIX surface",
}


class References(ast.NodeVisitor):
    """The definitions of one file and every name its code references.

    A reference is kept with the innermost definition it sits inside
    (None for module-level code): it counts only once that one is live,
    so nothing keeps itself alive.
    """

    def __init__(self, path, definitions, uses, define):
        self.path = path
        self.define = define         # record definitions (src/ only)
        self.definitions = definitions
        self.uses = uses             # (name or prefix, is_prefix, owner)
        self.chain = ()
        self.in_class = False
        self.reexports = path.name == "__init__.py"

    def _use(self, name, prefix=False):
        self.uses.append((name, prefix, self.chain[-1] if self.chain else None))

    def _enter(self, node, is_class):
        if self.define and (not self.chain or self.in_class):
            names = [self.definitions[i]["name"] for i in self.chain]
            index = len(self.definitions)
            self.definitions.append({
                "name": node.name, "path": self.path,
                "qualified": ".".join(names + [node.name]),
                "parent": self.chain[-1] if self.chain else None,
                "lines": node.end_lineno - min(
                    [node.lineno] + [d.lineno for d in node.decorator_list]) + 1,
                "lineno": node.lineno,
            })
            chain, in_class = self.chain + (index,), is_class
        else:
            chain, in_class = self.chain, False
        # Decorators, bases and defaults run where the definition
        # stands, but serve only it: they are its references too.
        saved = self.chain, self.in_class
        self.chain, self.in_class = chain, in_class
        self.generic_visit(node)
        self.chain, self.in_class = saved

    def visit_ClassDef(self, node):
        self._enter(node, True)

    def visit_FunctionDef(self, node):
        self._enter(node, False)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if not self.reexports:
            for alias in node.names:
                self._use(alias.name)

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return  # a re-export list names, it does not use
        self.generic_visit(node)

    def visit_Expr(self, node):
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            self.generic_visit(node)  # a docstring mentions, it does not use

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._use(node.value)

    def visit_Call(self, node):
        # getattr(obj, f"_op_{kind}") / getattr(obj, "_op_" + kind): a
        # dispatch that reaches every name with that prefix.
        if (isinstance(node.func, ast.Name) and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2):
            key = node.args[1]
            while isinstance(key, ast.BinOp) and isinstance(key.op, ast.Add):
                key = key.left
            if isinstance(key, ast.JoinedStr) and key.values:
                key = key.values[0]
            if isinstance(key, ast.Constant) and isinstance(key.value, str) and key.value:
                self._use(key.value, prefix=True)
        self.generic_visit(node)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def live_definitions(files):
    """A function from allowlist roots to the definitions reachable from
    module-level code, dunders and those roots.  ``files`` holds each
    file's :func:`referenced`; a definition is ``(file, index)``, and
    ``(file, None)`` is that file's module-level code."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for f, (local, _) in enumerate(files):
        for i, d in enumerate(local):
            by_name[d["name"]].append((f, i))
            if d["parent"] is not None:
                children[f, d["parent"]].append((f, i))

    def parent(key):
        index = files[key[0]][0][key[1]]["parent"]
        return None if index is None else (key[0], index)

    def grow(live, named, pending):
        while pending:
            owner = pending.pop()
            if owner[1] is not None:
                if owner in live:
                    continue
                live.add(owner)
                pending.extend(c for c in children[owner] if c in named)
            for name, prefix in files[owner[0]][1].get(owner[1], ()):
                if prefix:
                    targets = [i for n, ids in by_name.items() if n.startswith(name) for i in ids]
                else:
                    targets = by_name.get(name, ())
                for key in targets:
                    if key in named:
                        continue
                    named.add(key)
                    if parent(key) is None or parent(key) in live:
                        pending.append(key)
        return live, named

    # The fixpoint is monotone: grow it from module-level code and
    # dunders once, then from there for each set of roots.
    named = {(f, i) for f, (local, _) in enumerate(files)
             for i, d in enumerate(local) if is_dunder(d["name"])}
    base = grow(set(), named, [(f, None) for f in range(len(files))]
                + [key for key in named if parent(key) is None])

    def live(roots):
        return grow(set(base[0]), base[1] | set(roots), list(roots))[0]
    return live


@per_file
def referenced(tree, path, define):
    """``(definitions, {owner: names it uses})`` of one file, indexed within it."""
    definitions, uses = [], []
    References(path, definitions, uses, define).visit(tree)
    by_owner = defaultdict(set)
    for name, prefix, owner in uses:
        by_owner[owner].add((name, prefix))
    return definitions, by_owner


def unused_definitions(trees=None):
    """``(test-only definitions, stale allowlist entries)``, as report lines."""
    trees = load(*USER_DIRS) if trees is None else trees
    files = [referenced(tree, path, path.parts[0] == "src")
             for path, tree in trees.items() if path.parts[0] in USER_DIRS]
    definitions = {(f, i): d for f, (local, _) in enumerate(files) for i, d in enumerate(local)}
    keys = {f"{d['path'].as_posix()}:{d['qualified']}": key for key, d in definitions.items()}
    roots = {keys[key] for key in DEFINITION_ALLOWLIST if key in keys}
    reach = live_definitions(files)
    live = reach(roots)

    dead = []
    for (f, i), d in definitions.items():
        if (f, i) not in live and (d["parent"] is None or (f, d["parent"]) in live):
            dead.append(f"{d['path']}:{d['lineno']}: {d['qualified']} ({d['lines']} lines)")
    stale = []
    for key in DEFINITION_ALLOWLIST:
        if key not in keys:
            stale.append(f"{key}: allowlisted, but no such definition")
        elif keys[key] in reach(roots - {keys[key]}):
            stale.append(f"{key}: allowlisted, but code outside tests/ uses it")
    return dead, stale
