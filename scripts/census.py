"""Census of defaulted parameters: which of them does some caller set?

Walks every function under ``src/`` with :mod:`ast`, counts its
parameters that carry a default, and looks for a call in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` that sets each one: by
keyword, by position, or through a ``*`` / ``**`` splat.  A parameter
that nothing sets only ever holds its default, so it is a constant
written as an option.

Calls are matched by name, not by type: ``x.mount(...)`` counts for
every ``def mount`` under ``src/``.  A class call ``Name(...)``,
``cls(...)`` inside the class and ``super().__init__(...)`` inside a
subclass all count for the class's ``__init__`` (and its bases', when
the class defines none).  A function handed on as a value with its
arguments (``scheduler.spawn(self._run, a, b)``, ``partial(f, a)``)
counts as called with the arguments that follow it.  Name matching errs
towards "set", so a listed parameter really is never set.

Usage: python scripts/census.py   (from the repo root)
Prints the count, then one line per never-set parameter, and exits 1
when there is any.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "benchmarks", "examples")

#: ``(function, parameter)`` pairs a name-matched call cannot see:
#: protocol methods that Python itself calls, with its own arguments.
ALLOWLIST = {
    # Metadata.__setattr__ doubles as __delattr__, which gets no value.
    ("__setattr__", "value"),
}


def python_files(*dirs):
    for name in dirs:
        yield from sorted((ROOT / name).rglob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


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
    """What the calls of every visited file set, keyed by callee name."""

    def __init__(self, bases, inits):
        self.bases = bases
        self.inits = inits
        self.keywords = defaultdict(set)   # callee -> keyword names passed
        self.positions = defaultdict(int)  # callee -> most positional args
        self.splat_args = set()            # callee passed a *splat
        self.splat_kwargs = set()          # callee passed a **splat
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def _init_of(self, name):
        """The class whose ``__init__`` a call to class ``name`` runs."""
        seen = set()
        while name not in self.inits and name in self.bases and name not in seen:
            seen.add(name)
            parents = self.bases[name]
            if not parents:
                break
            name = parents[0]
        return name

    def _callees(self, func):
        if isinstance(func, ast.Name):
            name = func.id
            if name == "cls" and self.classes:
                name = self.classes[-1]
            return {name, self._init_of(name)}
        if isinstance(func, ast.Attribute):
            value = func.value
            if (func.attr == "__init__" and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name) and value.func.id == "super"
                    and self.classes):
                parents = self.bases.get(self.classes[-1], [])
                return {self._init_of(p) for p in parents[:1]}
            return {func.attr, self._init_of(func.attr)}
        return set()

    def _record(self, callee, args, keywords):
        count = 0
        for arg in args:
            if isinstance(arg, ast.Starred):
                self.splat_args.add(callee)
                break
            count += 1
        self.positions[callee] = max(self.positions[callee], count)
        for keyword in keywords:
            if keyword.arg is None:
                self.splat_kwargs.add(callee)
            else:
                self.keywords[callee].add(keyword.arg)

    def visit_Call(self, node):
        for callee in self._callees(node.func):
            self._record(callee, node.args, node.keywords)
        # A callable handed on with its arguments: spawn(f, a, b), partial(f, a).
        for index, arg in enumerate(node.args):
            if isinstance(arg, (ast.Name, ast.Attribute)):
                for callee in self._callees(arg):
                    self._record(callee, node.args[index + 1:], node.keywords)
        self.generic_visit(node)


def census():
    definitions = Definitions()
    for path in python_files("src"):
        definitions.path = path.relative_to(ROOT)
        definitions.visit(parse(path))
    calls = Calls(definitions.bases, definitions.inits)
    for path in python_files(*CALLER_DIRS):
        calls.visit(parse(path))

    total, unset = 0, []
    for path, qualified, key, function in definitions.functions:
        for name, position in defaulted(function):
            total += 1
            if (function.name, name) in ALLOWLIST:
                continue
            if (name in calls.keywords[key] or key in calls.splat_kwargs
                    or position is not None and (
                        position < calls.positions[key] or key in calls.splat_args)):
                continue
            unset.append(f"{path}:{function.lineno}: {qualified}({name}=)")
    return total, unset


def main():
    total, unset = census()
    print(f"{total} defaulted parameters under src/; {len(unset)} set by no caller")
    for line in unset:
        print(f"  {line}")
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
