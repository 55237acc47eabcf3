"""Span recording for the traced pass, applied to the program from outside.

The harness wraps the program's *public* boundary callables at class (or
module) level for the duration of one pass; nothing under ``src/`` is
edited.  Every call records one span: boundary name, start and end on
two clocks, the span that was open on the same thread when it started
(its parent), and the trace id of the operation the thread is serving.

Two clocks, because the program's thread processes run in strict
handoff: while a client thread is parked inside ``SimClock.advance`` its
``perf_counter`` interval covers every *other* client's work.  The
per-thread CPU clock (``time.thread_time``) stops while the thread is
parked, so ``busy_s`` — self time on that clock — bills a layer only for
instructions it executed itself.

Self time is a span's duration minus the part covered by its child
spans.  Children always run on the parent's thread (the stack is
per-thread), so the subtraction is well defined on both clocks.

Generator boundaries (``Link.transfer_gen``) get one span per *step*:
a generator parked at a ``yield`` is not on any stack, so a single
call-to-return span would swallow every process stepped in between.

The cyclic collector runs inside whichever call happens to allocate the
object that trips its threshold.  Every collection gets a span of its
own (``gc.callbacks``), so its time is billed to ``host.gc`` and not to
that bystander: without it a third of ``seqdeploy`` moves between
layers from one traced pass to the next.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_perf = time.perf_counter
_cpu = getattr(time, "thread_time", time.perf_counter)

#: Span record layout (a tuple per finished span, kept in memory).
SPAN_FIELDS = (
    "id", "parent", "trace", "name", "thread", "wall_start", "wall_end",
    "cpu_start", "cpu_end",
)

#: Layer of the root span an operation opens around itself.
OP_LAYER = "harness.op"
#: Name and layer of the span around one run of the cyclic collector.
GC_SPAN, GC_LAYER = "gc.collect", "host.gc"


class NullTracer:
    """The detached tracer: every operation is a free no-op."""

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        yield

    @contextmanager
    def recording(self) -> Iterator[None]:
        yield


class Tracer:
    """Records spans around wrapped callables, inside :meth:`recording`.

    Installed wrappers outside a ``recording`` block pass calls straight
    through, so building the world and checking the outputs of a pass
    leave no spans behind — only the timed region is attributed.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self._active = [False]
        #: boundary name -> layer
        self.layers: Dict[str, str] = {GC_SPAN: GC_LAYER}
        #: generator boundary name -> generators created (a generator's
        #: steps are spans; its *calls* are counted here)
        self.generator_calls: Dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def recording(self) -> Iterator[None]:
        self._active[0] = True
        gc.callbacks.append(self._collector_ran)
        try:
            yield
        finally:
            gc.callbacks.remove(self._collector_ran)
            self._active[0] = False

    def _collector_ran(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` hook: a span around each collection, on the
        thread whose allocation started it."""
        stack = self._stack()
        local = self._local
        if phase == "start":
            span_id = next(self._ids)
            local.collecting = (span_id, stack[-1] if stack else 0, _perf(), _cpu())
            stack.append(span_id)
            return
        begun = getattr(local, "collecting", None)
        if begun is None:  # started before the recording did
            return
        cpu_end = _cpu()
        wall_end = _perf()
        local.collecting = None
        stack.pop()
        span_id, parent, wall_start, cpu_start = begun
        self.spans.append((
            span_id, parent, local.trace, GC_SPAN, threading.get_ident(),
            wall_start, wall_end, cpu_start, cpu_end,
        ))

    def _stack(self) -> List[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.trace = 0
            return local.stack

    def _traced(
        self,
        fn: Callable[..., Any],
        name: str,
        observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        get_stack = self._stack
        local = self._local
        ident = threading.get_ident
        active = self._active

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not active[0]:
                return fn(*args, **kwargs)
            stack = get_stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            wall_start = _perf()
            cpu_start = _cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu_end = _cpu()
                wall_end = _perf()
                stack.pop()
                spans.append((
                    span_id, parent, local.trace, name, ident(),
                    wall_start, wall_end, cpu_start, cpu_end,
                ))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _traced_generator(
        self, fn: Callable[..., Any], name: str
    ) -> Callable[..., Any]:
        calls = self.generator_calls
        calls.setdefault(name, 0)

        def step(resume: Callable[[Any], Any], value: Any) -> Any:
            return resume(value)

        traced_step = self._traced(step, name)

        active = self._active

        def traced(*args: Any, **kwargs: Any) -> Any:
            if active[0]:
                calls[name] += 1
            generator = fn(*args, **kwargs)
            resume, value = generator.send, None
            while True:
                try:
                    item = traced_step(resume, value)
                except StopIteration as stop:
                    return stop.value
                try:
                    value = yield item
                    resume = generator.send
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as error:  # forwarded, as yield from does
                    resume, value = generator.throw, error

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """Root span of one operation; opens a fresh trace id for it.

        Spans recorded on this thread until the context exits carry the
        operation's trace id, so one deploy's spans can be pulled out of
        a 512-client wave.
        """
        if not self._active[0]:
            yield
            return
        stack = self._stack()
        local = self._local
        outer_trace = local.trace
        local.trace = next(self._traces)
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        self.layers.setdefault(name, OP_LAYER)
        wall_start = _perf()
        cpu_start = _cpu()
        try:
            yield
        finally:
            cpu_end = _cpu()
            wall_end = _perf()
            stack.pop()
            self.spans.append((
                span_id, parent, local.trace, name, threading.get_ident(),
                wall_start, wall_end, cpu_start, cpu_end,
            ))
            local.trace = outer_trace

    # -- installation ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (class or module attribute) by a traced
        wrapper until :meth:`uninstall`.

        ``observe(args, result)`` runs after each successful call, outside
        the span: the one way to read a virtual duration a boundary
        returns but the program keeps no counter for.

        An attribute inherited from a base class is shadowed on ``owner``
        only, so ``GearFileViewer.read_blob`` can be billed to the viewer
        while plain overlay mounts keep their own boundary.
        """
        raw = inspect.getattr_static(owner, attr)
        name = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"
        own = attr in vars(owner)
        self.layers[name] = layer
        binder: Optional[Callable[[Any], Any]] = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            binder = type(raw)
            fn = raw.__func__
        if inspect.isgeneratorfunction(fn):
            wrapped: Any = self._traced_generator(fn, name)
        else:
            wrapped = self._traced(fn, name, observe)
        if binder is not None:
            wrapped = binder(wrapped)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw, own))

    def wrap_everywhere(
        self, module: Any, attr: str, layer: str, namespaces: List[Any]
    ) -> None:
        """Wrap a module-level function and re-point every namespace in
        ``namespaces`` that imported it by name (``from m import f``)."""
        original = getattr(module, attr)
        self.wrap(module, attr, layer)
        wrapped = getattr(module, attr)
        for namespace in namespaces:
            if namespace is module:
                continue
            for alias, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, alias, wrapped)
                    self._installed.append((namespace, alias, original, True))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._installed:
            owner, attr, raw, own = self._installed.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """The raw spans plus the name → layer table, JSON-ready."""
        return {
            "fields": list(SPAN_FIELDS),
            "layers": dict(sorted(self.layers.items())),
            "generator_calls": dict(sorted(self.generator_calls.items())),
            "spans": [list(span) for span in self.spans],
        }


def write_trace(path: str, exported: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(exported, handle, separators=(",", ":"))


def self_times(exported: Dict[str, Any]) -> Dict[int, Tuple[float, float]]:
    """span id -> (self wall seconds, self CPU seconds)."""
    child_wall: Dict[int, float] = {}
    child_cpu: Dict[int, float] = {}
    for span in exported["spans"]:
        parent = span[1]
        if parent:
            child_wall[parent] = child_wall.get(parent, 0.0) + span[6] - span[5]
            child_cpu[parent] = child_cpu.get(parent, 0.0) + span[8] - span[7]
    return {
        span[0]: (
            span[6] - span[5] - child_wall.get(span[0], 0.0),
            span[8] - span[7] - child_cpu.get(span[0], 0.0),
        )
        for span in exported["spans"]
    }


def summarize(exported: Dict[str, Any]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-boundary and per-layer ``calls`` / ``busy_s`` / ``wall_self_s``.

    ``busy_s`` is self time on the thread-CPU clock.  A generator
    boundary's ``calls`` is the number of generators created, not the
    number of steps.
    """
    layers = exported["layers"]
    selfs = self_times(exported)
    by_name: Dict[str, Dict[str, float]] = {}
    for span in exported["spans"]:
        row = by_name.setdefault(
            span[3], {"calls": 0, "busy_s": 0.0, "wall_self_s": 0.0}
        )
        wall_self, cpu_self = selfs[span[0]]
        row["calls"] += 1
        row["busy_s"] += cpu_self
        row["wall_self_s"] += wall_self
    for name, created in exported["generator_calls"].items():
        if name in by_name:
            by_name[name]["calls"] = created
    by_layer: Dict[str, Dict[str, float]] = {}
    for name, row in by_name.items():
        total = by_layer.setdefault(
            layers[name], {"calls": 0, "busy_s": 0.0, "wall_self_s": 0.0}
        )
        for key, value in row.items():
            total[key] += value
    return {"boundaries": by_name, "layers": by_layer}


def check_tree(exported: Dict[str, Any], tolerance_s: float = 1e-6) -> List[str]:
    """Well-formedness problems of the span forest (empty when sound).

    Every parent exists, a child lies inside its parent on the parent's
    thread, and the self times under each root add up to the root's
    duration.
    """
    problems: List[str] = []
    by_id = {span[0]: span for span in exported["spans"]}
    selfs = self_times(exported)
    root_of: Dict[int, int] = {}

    def find_root(span_id: int) -> int:
        chain = []
        while span_id not in root_of:
            parent = by_id[span_id][1]
            if not parent or parent not in by_id:
                root_of[span_id] = span_id
                break
            chain.append(span_id)
            span_id = parent
        root = root_of[span_id]
        for visited in chain:
            root_of[visited] = root
        return root

    subtree_wall: Dict[int, float] = {}
    for span in exported["spans"]:
        span_id, parent = span[0], span[1]
        if span[6] < span[5] or span[8] < span[7]:
            problems.append(f"span {span_id} ends before it starts")
        if parent:
            above = by_id.get(parent)
            if above is None:
                problems.append(f"span {span_id} has unknown parent {parent}")
                continue
            if above[4] != span[4]:
                problems.append(f"span {span_id} is on another thread than its parent")
            if span[5] < above[5] - tolerance_s or span[6] > above[6] + tolerance_s:
                problems.append(f"span {span_id} is not inside parent {parent}")
        root = find_root(span_id)
        subtree_wall[root] = subtree_wall.get(root, 0.0) + selfs[span_id][0]
    for root, total in subtree_wall.items():
        duration = by_id[root][6] - by_id[root][5]
        if abs(total - duration) > tolerance_s * max(1.0, len(by_id)):
            problems.append(
                f"self times under root {root} sum to {total!r}, "
                f"root lasts {duration!r}"
            )
    return problems
