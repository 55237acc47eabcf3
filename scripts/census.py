"""Census of what nothing outside the tests uses, in two passes.

**Pass 1, defaulted parameters: which of them does some caller set?**
Walks every function under ``src/`` with :mod:`ast`, counts its
parameters that carry a default, and looks for a call in ``src/``,
``benchmarks/`` or ``examples/`` that sets each one: by keyword, by
position, or through a ``*`` / ``**`` splat.  A ``**`` splat sets what
it can carry: the enclosing function's own ``**`` parameter forwards
what that function's callers pass it (followed to a fixpoint), a dict
display sets its keys (also through a name bound only to displays and
its ``name["key"] = …`` stores, or a ``src/`` function that returns
one), and only a splat it cannot resolve sets everything.  A parameter
that nothing there sets only ever holds its default, so it is a
constant written as an option.  A test is not a caller: a value only a test passes is an
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
:data:`DEFINITION_ALLOWLIST`.  A method lives only while its class does.
A name that an import or a module-level definition binds, and a
``module.name`` attribute, use that module's definition only; ``x.run()``
on anything else uses every method ``run``; a string, and a path through
a re-export, use every definition of their name.  So it errs towards
"used": a listed definition really is unused.

**Pass 3, CLI flags: which of them does something pass?**  Lists each
``(command, flag)`` that ``build_parser`` in ``src/repro/cli.py``
declares and nothing passes.  A flag is passed by a ``GATES`` row, by a
``python -m repro.cli <command>`` typed in README.md, DESIGN.md or
``.claude/skills`` (the line, its ``\\`` continuations and the comment
lines right under it), or by an argv list in ``examples/``,
``benchmarks/`` or ``tests/``: a list handed to ``main`` or
``parse_args``, or one that starts with a command's name.  A flag of the
shared parser is one flag, whichever command passes it.  Unlike the
first two passes it counts tests: an argv is how a test drives the
command line, and a declaration table is no argv.

The three passes are rows of ``scripts/guards.py``'s rule table, which
parses each file once and runs them: ``python scripts/guards.py``.  What
a pass learns from one file is kept on that file's parse, so a run over
the same parses with one module re-parsed (a mutant in
``tests/test_guards.py``) re-reads only that module.
"""

import ast
import gc
import re
from collections import defaultdict
from functools import lru_cache
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
    "src/repro/vfs/tree.py:FileSystemTree.symlink(meta=)":
        "§2: the copy-on-write property in tests/test_vfs_cow.py draws a "
        "symlink's metadata",
    "src/repro/vfs/tree.py:FileSystemTree.exists(follow_symlinks=)":
        "§2: the column-lower oracle in tests/test_vfs_oracle.py draws lookups "
        "that follow a final symlink and lookups that stop at it",
    "src/repro/vfs/tree.py:FileSystemTree.stat(follow_symlinks=)":
        "§2: the column-lower oracle in tests/test_vfs_oracle.py draws stat "
        "and lstat",
    "src/repro/vfs/tree.py:FileSystemTree.listdir(path=)":
        "§2: the column-lower oracle in tests/test_vfs_oracle.py draws the "
        "directory listed",
    "src/repro/vfs/overlay.py:OverlayMount.exists(follow_symlinks=)":
        "§2: the column-lower oracle in tests/test_vfs_oracle.py draws "
        "lookups through a viewer that follow a final symlink or stop at it",
    "src/repro/vfs/overlay.py:OverlayMount.stat(follow_symlinks=)":
        "§2: the overlay oracle in tests/test_vfs_oracle.py draws stat and lstat",
    "src/repro/vfs/overlay.py:OverlayMount.listdir(path=)":
        "§2: the overlay oracle in tests/test_vfs_oracle.py draws the "
        "directory listed",
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


#: What a ``**`` splat sets, when it is not a set of keys: every keyword
#: (:data:`ALL`), what the enclosing function's own callers pass to its
#: ``**`` parameter (``(FORWARD, its callee key, its named parameters)``),
#: or the keys of the dict a ``src/`` function returns (``(RETURNS, name)``).
ALL, FORWARD, RETURNS = ("all",), "forward", "returns"


def display_keys(node):
    """The keys of a dict display or a ``dict(k=…)`` call; None otherwise."""
    if isinstance(node, ast.Dict) and all(
            isinstance(key, ast.Constant) and isinstance(key.value, str) for key in node.keys):
        return frozenset(key.value for key in node.keys)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"
            and not node.args and all(keyword.arg for keyword in node.keywords)):
        return frozenset(keyword.arg for keyword in node.keywords)
    return None


def dict_keys(scope, name):
    """The keys ``name`` holds in ``scope`` when only dict displays bind it
    and only ``name["key"] = …`` stores into it; None otherwise (a
    parameter, another binding, a computed key, an ``update``)."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        if name in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
            return None
    keys, displays = set(), set()
    for node in ast.walk(scope):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                shown = display_keys(node.value)
                if shown is None:
                    return None
                keys |= shown
                displays.add(id(target))
            elif (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                  and target.value.id == name):
                if not (isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    return None
                keys.add(target.slice.value)
    for node in ast.walk(scope):
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store)
                and id(node) not in displays):
            return None
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == name and node.attr in ("update", "setdefault")):
            return None
    return frozenset(keys) if displays else None


def returned_keys(function):
    """The keys of the dict every ``return`` of ``function`` itself hands
    back; None when one hands back anything else, or there is none."""
    keys, stack = set(), list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            value = node.value
            shown = (dict_keys(function, value.id) if isinstance(value, ast.Name)
                     else display_keys(value))
            if shown is None:
                return None
            keys |= shown
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return frozenset(keys) or None


class Calls(ast.NodeVisitor):
    """What the calls of one file set, keyed by callee as written: a name,
    or ``("super", class)`` for ``super().__init__`` inside that class; and
    what each function named so returns (:func:`returned_keys`)."""

    def __init__(self):
        self.sets = {}      # callee -> [most positional args, keywords, *splat, {**splats}]
        self.returns = defaultdict(list)  # function name -> [returned_keys(each def)]
        self.classes = []
        self.functions = []
        self.module = None

    def visit_Module(self, node):
        self.module = node
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        if not isinstance(node, ast.Lambda):
            self.returns[node.name].append(returned_keys(node))
        self.functions.append(node)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

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

    def _splat(self, value):
        """What ``**value`` sets: a set of keys, or a :data:`ALL`,
        :data:`FORWARD` or :data:`RETURNS` splat."""
        shown = display_keys(value)
        if shown is not None:
            return shown
        function = self.functions[-1] if self.functions else None
        if isinstance(value, ast.Name):
            args = function.args if function is not None else None
            if args is not None and args.kwarg is not None and value.id == args.kwarg.arg:
                if isinstance(function, ast.Lambda):
                    return ALL
                key = function.name
                if function.name in ("__init__", "__new__") and self.classes:
                    key = self.classes[-1]
                named = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                return (FORWARD, key, frozenset(named))
            local = function is not None and any(
                isinstance(node, ast.Name) and node.id == value.id
                and isinstance(node.ctx, ast.Store) for node in ast.walk(function))
            return dict_keys(function if local else self.module, value.id) or ALL
        if isinstance(value, ast.Call) and isinstance(value.func, (ast.Name, ast.Attribute)):
            return (RETURNS, getattr(value.func, "id", None) or value.func.attr)
        return ALL

    def _record(self, callee, args, keywords):
        entry = self.sets.setdefault(callee, [0, set(), False, set()])
        count = 0
        for arg in args:
            if isinstance(arg, ast.Starred):
                entry[2] = True
                break
            count += 1
        entry[0] = max(entry[0], count)
        for keyword in keywords:
            if keyword.arg is not None:
                entry[1].add(keyword.arg)
                continue
            splat = self._splat(keyword.value)
            if isinstance(splat, frozenset):
                entry[1] |= splat
            else:
                entry[3].add(splat)

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
    return calls.sets, calls.returns


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
    returns, splats = defaultdict(list), []
    for path, tree in trees.items():
        if path.parts[0] not in USER_DIRS:
            continue
        sets, returned = called(tree)
        if path.parts[0] == "src":
            for name, found in returned.items():
                returns[name] += found
        for raw, (count, names, star, starred) in sets.items():
            if isinstance(raw, tuple):
                callees = {init_of(p) for p in bases.get(raw[1], [])[:1]}
            else:
                callees = {raw, init_of(raw)}
            for callee in callees:
                positions[callee] = max(positions[callee], count)
                keywords[callee] |= names
                if star:
                    splat_args.add(callee)
                splats += [(callee, splat) for splat in starred]

    # A ** splat sets the keys of the dict a src/ function returns, or
    # what the enclosing function's callers pass it, followed to a fixpoint.
    forwards = []
    for callee, splat in splats:
        if splat[0] == RETURNS and None not in returns.get(splat[1], [None]):
            keywords[callee] |= frozenset().union(*returns[splat[1]])
        elif splat[0] == FORWARD:
            forwards.append((callee, splat[1], splat[2]))
        else:
            splat_kwargs.add(callee)
    changed = True
    while changed:
        changed = False
        for callee, caller, named in forwards:
            passed = keywords[caller] - named - keywords[callee]
            if passed or caller in splat_kwargs and callee not in splat_kwargs:
                keywords[callee] |= passed
                if caller in splat_kwargs:
                    splat_kwargs.add(callee)
                changed = True

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
    "src/repro/vfs/tree.py:FileSystemTree.listdir":
        "§2: the VFS stands in for overlayfs, so it keeps its POSIX surface",
    "src/repro/vfs/overlay.py:OverlayMount.listdir":
        "§2: the VFS stands in for overlayfs, so it keeps its POSIX surface",
}


#: How a use names what it uses: any definition of that name, every name
#: with that prefix, a class member of that name (``obj.name``), or a
#: dotted path to a module's definition.
ANY_DEF, PREFIX, MEMBER, DOTTED = False, True, ".", ":"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_name(path):
    """``repro.gear.index`` for ``src/repro/gear/index.py``."""
    parts = path.with_suffix("").parts[1:]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported(node):
    """``(name, dotted path)`` of what an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            top = alias.name.partition(".")[0]
            yield alias.asname or top, alias.name if alias.asname else top
    else:
        source = "." * node.level + (node.module or "")
        for alias in node.names:
            yield alias.asname or alias.name, f"{source}.{alias.name}"


class References(ast.NodeVisitor):
    """The definitions of one file and every name its code references.

    A reference is kept with the innermost definition it sits inside
    (None for module-level code): it counts only once that one is live,
    so nothing keeps itself alive.  A name an import or a module-level
    definition binds, and an attribute of a module, is a :data:`DOTTED`
    use of that module's definition; any other attribute is a
    :data:`MEMBER` use.
    """

    def __init__(self, path, definitions, uses, define):
        self.path = path
        self.define = define         # record definitions (src/ only)
        self.definitions = definitions
        self.uses = uses             # (name, how it names, owner)
        self.chain = ()
        self.in_class = False
        self.reexports = path.name == "__init__.py"
        self.bound = {}

    def visit_Module(self, node):
        # What the module binds at its top, before any code that reads it;
        # an import inside a function binds from where it stands.
        module = module_name(self.path) if self.define else None
        for statement in node.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                self.bound.update(imported(statement))
            elif isinstance(statement, DEFS) and module is not None:
                self.bound[statement.name] = f"{module}.{statement.name}"
        self.generic_visit(node)

    def visit_Import(self, node):
        self.bound.update(imported(node))

    def _use(self, name, how=ANY_DEF):
        self.uses.append((name, how, self.chain[-1] if self.chain else None))

    def _dotted(self, node):
        """The dotted path a name or an attribute chain of one stands for."""
        if isinstance(node, ast.Name):
            return self.bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

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
        dotted = self.bound.get(node.id)
        self._use(dotted, DOTTED) if dotted else self._use(node.id)

    def visit_Attribute(self, node):
        dotted = self._dotted(node)
        self._use(dotted, DOTTED) if dotted else self._use(node.attr, MEMBER)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self.bound.update(imported(node))
        if not self.reexports:
            for _, dotted in imported(node):
                self._use(dotted, DOTTED)

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
                self._use(key.value, PREFIX)
        self.generic_visit(node)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def live_definitions(files):
    """A function from allowlist roots to the definitions reachable from
    module-level code, dunders and those roots.  ``files`` holds each
    file's :func:`referenced`; a definition is ``(file, index)``, and
    ``(file, None)`` is that file's module-level code."""
    by_name, members = defaultdict(list), defaultdict(list)
    children, dotted = defaultdict(list), {}
    for f, (local, _) in enumerate(files):
        module = local and module_name(local[0]["path"])
        for i, d in enumerate(local):
            by_name[d["name"]].append((f, i))
            if d["parent"] is not None:
                children[f, d["parent"]].append((f, i))
                members[d["name"]].append((f, i))
            else:
                dotted[f"{module}.{d['name']}"] = (f, i)

    def named_by(name, how):
        if how is PREFIX:
            return [i for n, ids in by_name.items() if n.startswith(name) for i in ids]
        if how is MEMBER:
            return members.get(name, ())
        if how is DOTTED:
            # A module's definition; an attribute of one is a member; a
            # path through a re-export or out of src/ falls back to its name.
            if name in dotted:
                return [dotted[name]]
            owner, _, name = name.rpartition(".")
            if owner in dotted:
                return members.get(name, ())
        return by_name.get(name, ())

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
            for name, how in files[owner[0]][1].get(owner[1], ()):
                for key in named_by(name, how):
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
    for name, how, owner in uses:
        by_owner[owner].add((name, how))
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


# -- pass 3: CLI flags --------------------------------------------------------

#: The module whose ``build_parser`` declares the CLI and whose ``GATES``
#: table passes its gate rows.
CLI = Path("src/repro/cli.py")
#: Where a typed ``python -m repro.cli …`` command passes flags.
DOCS = ("README.md", "DESIGN.md", ".claude/skills")
#: Stands for "every command" (the shared parser, or an argv whose
#: command is not spelled out).
ANY = "*"
COMMAND_LINE = re.compile(r"python -m repro\.cli\s+([a-z][\w-]*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


@per_file
def declared(tree):
    """``{(command, flag): line}`` of what ``build_parser`` declares: a
    ``_flag(parser, "--x", …)`` or ``parser.add_argument("--x", …)``, or a
    call of a module helper that adds constant flags to the parser it is
    handed (``_scenario_flag``).  A parser is a ``command("name", …)``, an
    argument group of one, or the shared parser (:data:`ANY`)."""
    helpers = {}  # a helper's own constant flags; _flag's come from its call
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            helpers[node.name] = [
                call.args[0].value for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "add_argument" and call.args
                and isinstance(call.args[0], ast.Constant)]
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_parser")
    owners, declared = {}, {}
    for node in ast.walk(build):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call, target = node.value, node.targets[0].id
            if isinstance(call.func, ast.Name) and call.func.id == "command":
                owners[target] = call.args[0].value
            elif isinstance(call.func, ast.Attribute) and call.func.attr == "add_argument_group":
                owners[target] = owners[call.func.value.id]
            elif isinstance(call.func, ast.Attribute) and call.func.attr == "ArgumentParser":
                owners[target] = ANY
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func, first = node.func, node.args[0]
        if isinstance(func, ast.Attribute) and func.attr == "add_argument":
            parser, flags = func.value, [first]
        elif isinstance(func, ast.Name) and helpers.get(func.id):
            parser, flags = first, [ast.Constant(flag) for flag in helpers[func.id]]
        else:
            parser, flags = first, node.args[1:2]
        if isinstance(parser, ast.Name) and parser.id in owners:
            for flag in flags:
                if isinstance(flag, ast.Constant) and str(flag.value).startswith("--"):
                    declared[owners[parser.id], flag.value] = node.lineno
    return declared


@per_file
def gates(tree):
    """``{gate name: its argv}`` of the ``GATES`` table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "GATES":
            return {name: row.split() for name, row in ast.literal_eval(node.value).items()}
    return {}


def _typed(text):
    """``(command, flag)`` passed by each ``python -m repro.cli <command>``
    in ``text``: on its line, its ``\\`` continuations and the comment
    lines right under it."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        found = COMMAND_LINE.search(line)
        if not found:
            continue
        command, block = found.group(1), [line[found.end():]]
        while block[-1].rstrip().endswith("\\") and index + 1 < len(lines):
            index += 1
            block.append(lines[index])
        while index + 1 < len(lines) and lines[index + 1].lstrip().startswith("#"):
            index += 1
            block.append(lines[index])
        for flag in FLAG.findall("\n".join(block)):
            yield command, flag


def _word(node):
    value = node.value if isinstance(node, ast.Constant) else None
    return value if isinstance(value, str) else None


@per_file
def argvs(tree):
    """Each list of one file that holds a flag, as ``(words, handed)``:
    its strings (None for anything else; ``*NAME`` splices a module-level
    list) and whether it is handed to ``main`` or ``parse_args``."""
    constants = {node.targets[0].id: node.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and isinstance(node.value, ast.List)}
    handed = {id(node.args[0]) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.List)
              and getattr(node.func, "id", getattr(node.func, "attr", "")) in ("main", "parse_args")}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.List):
            words = []
            for element in node.elts:
                spliced = getattr(element.value, "id", None) if isinstance(element, ast.Starred) else None
                words += map(_word, constants[spliced].elts) if spliced in constants else [_word(element)]
            if any(str(word).startswith("--") for word in words):
                found.append((words, id(node) in handed))
    return found


def _passed(found, commands):
    """``(command, flag)`` passed by the lists :func:`argvs` found that
    start with a command's name or are handed to ``main`` or
    ``parse_args``; one whose command is not spelled out passes its
    flags to :data:`ANY` command."""
    for words, handed in found:
        command = words[0] if words[0] in commands else ANY
        if command != ANY or handed:
            yield from ((command, word) for word in words if str(word).startswith("--"))


@lru_cache(maxsize=None)
def _on_disk():
    """The docs' text, and the parse of each test that spells a flag,
    read from disk once per run."""
    docs = [path for name in DOCS for path in (
        sorted((ROOT / name).rglob("*.md")) if (ROOT / name).is_dir() else [ROOT / name])
        if path.is_file()]
    tests = [text for text in map(Path.read_text, python_files("tests"))
             if re.search("[\"']--[a-z]", text)]
    return [path.read_text() for path in docs], [ast.parse(text) for text in tests]


def unpassed_flags(trees=None):
    """Report lines for each ``(command, flag)`` of ``build_parser`` that
    no ``GATES`` row, documented command, example or benchmark script,
    or test argv passes.  A flag of the shared parser is one flag: any
    command passing it passes it."""
    trees = load(*USER_DIRS) if trees is None else trees
    flags = declared(trees[CLI])
    commands = {command for command, _ in flags}
    passed = {(argv[0], word) for argv in gates(trees[CLI]).values()
              for word in argv if word.startswith("--")}
    texts, tests = _on_disk()
    for text in texts:
        passed |= set(_typed(text))
    for path, tree in list(trees.items()) + [(None, tree) for tree in tests]:
        if path is None or path.parts[0] in ("examples", "benchmarks"):
            passed |= set(_passed(argvs(tree), commands))
    by_flag = {flag for _, flag in passed}
    return [f"{CLI}:{line}: {command} {flag}: a flag nothing passes"
            for (command, flag), line in sorted(flags.items(), key=lambda item: item[1])
            if not (command == ANY and flag in by_flag)
            and not {(command, flag), (ANY, flag)} & passed]
