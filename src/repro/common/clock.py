"""A simulated clock and a deterministic discrete-event scheduler.

All performance numbers in the reproduction (conversion times, pull/run
deployment phases, service throughput) are accounted on a virtual clock
rather than wall time, so results are exact, deterministic, and independent
of the host machine.  Components that consume time (disks, network links,
task models) call :meth:`SimClock.advance`; experiment harnesses read
:attr:`SimClock.now` before and after an operation to time it.

Two execution regimes share the same clock:

* **Sequential (the seed model).**  With no scheduler attached,
  :meth:`SimClock.advance` simply adds to ``now`` — the degenerate
  single-process case.  Every call site written against the original
  sequential clock runs unchanged and produces byte-identical timings.
* **Discrete-event (fleet experiments).**  A :class:`SimScheduler`
  attached to the clock turns ``advance`` calls made *inside a simulated
  process* into event-heap sleeps, so N processes (concurrent client
  deployments, background prefetchers) interleave over virtual time.
  Events are ordered by ``(time, seq)`` — ties broken by scheduling
  order — so runs are exactly reproducible.

Processes come in two flavours:

* **generator processes** — ``yield`` a delay in seconds, another
  :class:`Process` (await its end), or a :class:`SimEvent`; resumed by the
  scheduler with deterministic ordering;
* **call processes** — a plain callable executed on a worker thread with
  *strict handoff*: exactly one thread (the scheduler loop or one
  process) ever runs at a time, so existing synchronous code — deep
  call stacks through daemons, drivers, viewers, and links — becomes a
  schedulable task without rewriting, and determinism is preserved.

The two meet in :meth:`SimScheduler.drive`: a call process hands a
blocking stretch, written as a generator, to the loop thread and parks
its worker once for the whole of it (DESIGN.md §5).
"""

from __future__ import annotations

import functools
import heapq
import inspect
import itertools
import threading
from _thread import allocate_lock as _allocate_lock
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple


class SchedulerError(RuntimeError):
    """The scheduler was asked for something impossible (deadlock, reuse)."""


class _Suspend:
    """Sentinel a generator process yields to park until woken externally.

    Unlike a delay/Process/SimEvent yield, the scheduler registers
    nothing: whoever handed out the sentinel (e.g. a link flow) is
    responsible for calling ``SimScheduler._wake`` later.  This is what
    makes generator-native transfers possible: ``yield SUSPEND`` is the
    generator equivalent of a call process blocking in ``_suspend``.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "SUSPEND"


#: Shared suspend sentinel (see :class:`_Suspend`).
SUSPEND = _Suspend()


def _is_generator_function(target: Any) -> bool:
    """Is ``target`` a generator function?  Read from the code flags of a
    function or a bound method's function, the targets ``spawn`` is
    given; ``inspect`` answers for partials and other callables."""
    code = getattr(getattr(target, "__func__", target), "__code__", None)
    if code is None:
        return inspect.isgeneratorfunction(target)
    return bool(code.co_flags & inspect.CO_GENERATOR)


class _Worker:
    """A reusable strict-handoff worker thread for call processes.

    Creating a fresh daemon thread per call process made ``spawn`` pay
    thread start-up (and the OS a stack) for every client in a wave.
    Workers instead park on a private event between jobs and go back to
    the module pool when a job finishes.  A worker abandoned mid-job
    (its process suspended when the scheduler was aborted) simply never
    returns to the pool — exactly the seed semantics of abandoned
    daemon threads.
    """

    __slots__ = ("thread", "ident", "_ready", "_job")

    _names = itertools.count()

    def __init__(self) -> None:
        self._ready = threading.Event()
        self._job: Optional[Callable[[], None]] = None
        self.thread = threading.Thread(
            target=self._main,
            name=f"sim-worker-{next(_Worker._names)}",
            daemon=True,
        )
        self.thread.start()
        self.ident = self.thread.ident

    def submit(self, job: Callable[[], None]) -> None:
        self._job = job
        self._ready.set()

    def _main(self) -> None:
        ready = self._ready
        while True:
            ready.wait()
            ready.clear()
            job, self._job = self._job, None
            job()
            # A parked worker must not pin the finished job's closure
            # (process -> target -> the whole simulated world).
            job = None
            _WORKER_POOL.release(self)


class _WorkerPool:
    """Process-wide pool of parked :class:`_Worker` threads."""

    __slots__ = ("_idle", "_lock")

    def __init__(self) -> None:
        self._idle: List[_Worker] = []
        self._lock = threading.Lock()

    def acquire(self) -> _Worker:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return _Worker()

    def release(self, worker: _Worker) -> None:
        with self._lock:
            self._idle.append(worker)


_WORKER_POOL = _WorkerPool()


class _NullSpan:
    """The span returned when no tracer is attached: every op is a no-op.

    A single shared instance makes ``clock.span(...)`` in hot paths cost
    one attribute check and no allocation when telemetry is detached —
    the property that lets instrumentation stay always-on in the code.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **labels: Any) -> "_NullSpan":
        return self

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: Shared no-op span/instant, handed out whenever telemetry is detached.
NULL_SPAN = _NullSpan()


def _merge_label(accrued: str, incoming: str) -> str:
    """Join trace labels of merged (deferred + settling) advances."""
    if not accrued:
        return incoming
    if not incoming:
        return accrued
    return f"{accrued}+{incoming}"


def _fold_debt(actor: Any, seconds: float, label: str) -> Tuple[float, str]:
    """Pay ``actor``'s deferred debt (a clock's or a process's) into an
    advance: ``debt + seconds`` in accrual order, labels merged."""
    debt = actor._debt
    if debt:
        seconds = debt + seconds
        label = _merge_label(actor._debt_label, label)
        actor._debt = 0.0
        actor._debt_label = ""
    return seconds, label


class _WorkerCall(functools.partial):
    """What a driven generator yields to run a still-synchronous call on
    its own worker thread, and is sent ``(value, error)`` back for
    (see :meth:`SimClock.on_worker`)."""

    __slots__ = ()


def _settled(clock: "SimClock", value: Any):
    """What a generator process that returns owing debt finishes as."""
    yield from clock.advance_gen(0.0)
    return value


def run_inline(gen: Any) -> Any:
    """Run ``gen`` where nothing can suspend it: outside a process every
    blocking generator takes its sequential branch and never yields."""
    try:
        item = gen.send(None)
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise SchedulerError(
        f"{getattr(gen, '__qualname__', gen)} yielded {item!r} outside a "
        f"scheduler process: nothing can resume it"
    )


class SimClock:
    """A forward-only virtual clock with optional telemetry.

    Without an attached :class:`SimScheduler` the clock is deliberately
    simple: the simulation is sequential (one client deploying containers
    against registries), so each cost model just advances the shared
    clock by the time its operation takes.  With a scheduler attached,
    ``advance`` calls made from within a simulated process suspend that
    process instead, letting other processes run in the meantime.

    Telemetry is a :class:`repro.obs.trace.SpanTracer` attached with
    :meth:`attach_tracer`: every ``span``/``instant`` call lands there,
    and the ``trace`` property reads the tracer's instants back as
    ``(time, label)`` tuples.  With no tracer attached the same calls
    return a shared null span — zero allocation, zero virtual-time cost.
    """

    __slots__ = ("_now", "_scheduler", "_tracer", "_debt", "_debt_label")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._scheduler: Optional["SimScheduler"] = None
        self._tracer: Optional[Any] = None
        #: Sequential-mode virtual-time debt (see :meth:`advance_deferred`).
        self._debt: float = 0.0
        self._debt_label: str = ""

    @property
    def now(self) -> float:
        """Current virtual time in seconds since the clock was created."""
        return self._now

    @property
    def scheduler(self) -> Optional["SimScheduler"]:
        """The attached discrete-event scheduler (None in sequential mode)."""
        return self._scheduler

    # -- telemetry ---------------------------------------------------------

    @property
    def tracer(self) -> Optional[Any]:
        """The attached span tracer (None when telemetry is detached)."""
        return self._tracer

    def attach_tracer(self) -> Any:
        """Create and attach a span tracer; returns it."""
        from repro.obs.trace import SpanTracer

        self._tracer = SpanTracer(self)
        return self._tracer

    def detach_tracer(self) -> Optional[Any]:
        """Detach and return the current tracer (telemetry goes free)."""
        tracer, self._tracer = self._tracer, None
        return tracer

    def span(self, name: str, **labels: Any) -> Any:
        """A context manager recording a virtual-time span.

        Free (a shared null object) when no tracer is attached, so call
        sites never need to guard on telemetry being enabled.
        """
        if self._tracer is None:
            return NULL_SPAN
        return self._tracer.span(name, **labels)

    def instant(self, name: str, **labels: Any) -> Any:
        """Record a point event at the current time (no-op untraced)."""
        if self._tracer is None:
            return NULL_SPAN
        return self._tracer.instant(name, **labels)

    def advance(self, seconds: float, label: str = "") -> float:
        """Advance the clock by ``seconds`` and return the new time.

        ``seconds`` must be non-negative; cost models must never produce
        negative durations.  Inside a scheduler process this suspends
        the calling process until virtual time has moved ``seconds``
        ahead; other processes run in the gap.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        scheduler = self._scheduler
        if scheduler is not None:
            process = scheduler._running_process()
            if process is not None:
                if process._debt:
                    seconds, label = _fold_debt(process, seconds, label)
                scheduler.schedule_transient(seconds, process._grant_cb)
                scheduler._suspend(process)
                self.note(label)
                return self._now
        if self._debt:
            seconds, label = _fold_debt(self, seconds, label)
        self._now += seconds
        if self._tracer is not None and label:
            self._tracer.instant(label)
        return self._now

    def advance_gen(self, seconds: float, label: str = ""):
        """Generator twin of :meth:`advance`: the stepping process sleeps
        ``debt + seconds``; outside a process, the sequential advance."""
        scheduler = self._scheduler
        process = scheduler.current_process() if scheduler is not None else None
        if process is None:
            return self.advance(seconds, label)
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        if process._debt:
            seconds, label = _fold_debt(process, seconds, label)
        yield seconds
        if self._tracer is not None and label:
            self._tracer.instant(label)
        return self._now

    def _debtor(self) -> Any:
        """Who deferred costs accrue to: the running process — stepped
        generator or call thread — else the sequential clock itself."""
        scheduler = self._scheduler
        process = scheduler.current_process() if scheduler is not None else None
        return self if process is None else process

    def advance_deferred(self, seconds: float, label: str = "") -> None:
        """Accrue ``seconds`` as *virtual-time debt* settled later.

        The debt is folded into the same actor's next :meth:`advance`
        (one clock movement — and, under a scheduler, one suspension —
        for the whole run of adjacent cost-model advances) or paid by
        :meth:`settle_debt` before any interaction that other processes
        could observe.  Total virtual time is identical to eager
        advances: settlement adds ``debt + seconds`` in accrual order,
        and both the sequential and the scheduled path share that
        arithmetic.  Only use this for back-to-back local costs with no
        intervening shared-state effects the deferred time should gate.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        debtor = self._debtor()
        debtor._debt += seconds
        if label:
            debtor._debt_label = _merge_label(debtor._debt_label, label)

    def settle_debt(self) -> None:
        """Pay any outstanding deferred advances immediately.

        Called by the shared-state surfaces (link transfers, event
        waits/fires with waiters, process exit) so deferred local
        costs can never leak past a point other processes observe.
        """
        if self._debtor()._debt:
            self.advance(0.0)

    def settle_gen(self):
        """Generator twin of :meth:`settle_debt`: ``yield from`` it."""
        if self._debtor()._debt:
            yield from self.advance_gen(0.0)

    def drive(self, gen: Any) -> Any:
        """Run a blocking generator for a synchronous caller — what every
        sync facade calls (:meth:`SimScheduler.drive`; inline without one)."""
        scheduler = self._scheduler
        return run_inline(gen) if scheduler is None else scheduler.drive(gen)

    def on_worker(self, fn: Callable[..., Any], *args: Any, **kwargs: Any):
        """The seam to code that still blocks the old way: ``yield from``
        it and ``fn`` runs in call mode on the driven process's worker
        thread (:attr:`SimScheduler.escapes` counts), its value or
        exception delivered here.  Outside a process: a plain call."""
        if self._debtor() is self:
            return fn(*args, **kwargs)
        value, error = yield _WorkerCall(fn, *args, **kwargs)
        if error is not None:
            raise error
        return value

    def note(self, label: str) -> None:
        """Record a trace event at the current time (when tracing)."""
        if self._tracer is not None and label:
            self._tracer.instant(label)

    def _jump_to(self, timestamp: float) -> None:
        """Scheduler hook: set ``now`` to an event's timestamp."""
        if timestamp < self._now:
            raise SchedulerError(
                f"event at t={timestamp!r} is in the past (now={self._now!r})"
            )
        self._now = timestamp

    def timer(self) -> "Stopwatch":
        """Return a stopwatch anchored at the current virtual time."""
        return Stopwatch(self)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"


class Stopwatch:
    """Measures elapsed virtual time between creation and :meth:`elapsed`."""

    __slots__ = ("_clock", "_start")

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = clock.now

    @property
    def start(self) -> float:
        """Virtual time at which the stopwatch was created."""
        return self._start

    def elapsed(self) -> float:
        """Virtual seconds since the stopwatch was created."""
        return self._clock.now - self._start

    def restart(self) -> float:
        """Re-anchor at the current time, returning the previous lap."""
        lap = self.elapsed()
        self._start = self._clock.now
        return lap


#: A queue entry: ``[time, seq, action]``.  Entries compare as lists do,
#: at C level, and ``seq`` is unique, so ``action`` is never compared.
#: Cancelling one sets its action to None; the loop skips it uncounted.
_Entry = List[Any]


class _Event:
    """What :meth:`SimScheduler.schedule` hands out: a timer its holder
    may keep and cancel at any time, before or after it fires."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Clear the entry: the loop skips it if it has not popped yet."""
        self._entry[2] = None


class Process:
    """One schedulable activity: a generator or a thread-backed callable."""

    __slots__ = (
        "scheduler", "name", "_gen", "_ident", "_resume",
        "_grant_cb", "_step_cb", "_sendval", "_handback", "_debt", "_debt_label",
        "result", "error", "_done", "_waiters", "started_at", "finished_at",
        "__weakref__",
    )

    def __init__(self, scheduler: "SimScheduler", name: str) -> None:
        self.scheduler = scheduler
        self.name = name
        self._gen = None
        self._ident: Optional[int] = None
        #: Strict-handoff park lock (raw ``_thread`` lock, held while the
        #: process must stay parked).  A blocked ``acquire`` re-locks on
        #: wake, so the lock self-arms — no clear/set choreography and a
        #: fraction of ``threading.Event``'s per-handoff cost.
        self._resume: Optional[Any] = None
        #: Pre-bound resume callbacks: one allocation per process, not
        #: one closure per suspend (the seed model's dominant garbage).
        self._grant_cb: Optional[Callable[[], None]] = None
        self._step_cb: Optional[Callable[[], None]] = None
        self._sendval: Any = None
        #: What the last step of a driven generator left for the worker
        #: (see :meth:`SimScheduler.drive`); None while it is blocked.
        self._handback: Any = None
        #: Deferred virtual-time debt (see ``SimClock.advance_deferred``).
        self._debt: float = 0.0
        self._debt_label: str = ""
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._done = False
        self._waiters: List["Process"] = []
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def done(self) -> bool:
        """True once the process has finished (normally or with an error)."""
        return self._done

    def _grant_now(self) -> None:
        """Loop-side handoff: unpark this worker, park the loop.

        Bound once at spawn and used directly as the wake event's
        action — the single hottest callback in thread mode, so it
        lives on the process (no wrapper lambda frame per handoff).
        """
        self._resume.release()
        self.scheduler._loop_wake.acquire()

    def __repr__(self) -> str:
        state = "done" if self._done else "running"
        return f"Process({self.name!r}, {state})"


class SimEvent:
    """A one-shot condition processes can wait on (e.g. single-flight).

    ``wait_gen()`` (or a bare ``yield`` of the event) suspends the
    calling process until someone calls ``fire()``.  Firing an
    already-fired event is a no-op; waiting on a fired event returns
    immediately.
    """

    __slots__ = ("clock", "_fired", "_waiters")

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._fired = False
        self._waiters: List[Process] = []

    def fire(self) -> None:
        """Mark the condition true and wake every waiter."""
        if self._fired:
            return
        scheduler = self.clock.scheduler
        if self._waiters:
            # Waiters resume at the fire time: pay any deferred local
            # costs first so they observe settled virtual time.
            self.clock.settle_debt()
        self._fired = True
        waiters, self._waiters = self._waiters, []
        if scheduler is not None:
            for process in waiters:
                scheduler._wake(process)

    def fire_gen(self):
        """Generator twin of :meth:`fire`: settles by yielding."""
        if self._waiters and not self._fired:
            yield from self.clock.settle_gen()
        self.fire()

    def wait_gen(self):
        """Suspend the calling process until the event fires: ``yield
        from`` it in a process, or hand it to ``clock.drive``."""
        if self._fired:
            return
        yield from self.clock.settle_gen()
        if not self._fired:  # may have fired while debt settled
            yield self


class SimScheduler:
    """A deterministic discrete-event scheduler over a :class:`SimClock`.

    The event heap orders actions by ``(time, seq)``; ``seq`` is a
    monotone counter, so events scheduled earlier run first among ties —
    runs with identical inputs replay identically.  Exactly one activity
    (the loop or one process) executes at any instant, so shared state
    needs no locking and interleavings are reproducible.

    Use as a context manager to guarantee detachment from the clock::

        with SimScheduler(clock) as scheduler:
            procs = [scheduler.spawn(deploy, node) for node in nodes]
            scheduler.run()
    """

    __slots__ = (
        "clock", "_heap", "_nowq", "_seq", "_name_seq", "_processes",
        "_thread_procs", "_loop_wake", "_closed",
        "_events_processed", "_current_gen", "_handoffs", "_escapes",
    )

    def __init__(self, clock: SimClock) -> None:
        if clock._scheduler is not None:
            raise SchedulerError("clock already has an attached scheduler")
        self.clock = clock
        clock._scheduler = self
        # Heap entries are ``[time, seq, action]`` lists (see ``_Entry``):
        # heap sifting compares them C-level (the float, rarely the int
        # tie break) — at 1024 pending wakes each pop costs ~10
        # comparisons, so this is the loop's single hottest constant.
        self._heap: List[_Entry] = []
        #: Zero-delay entries in FIFO order.  Wakes and handoffs are
        #: overwhelmingly scheduled at the current instant; keeping them
        #: out of the heap turns the dominant push/pop pair into an
        #: O(1) deque append/popleft (the "simultaneous wakeup batch").
        #: Heads are merged with the heap by ``(time, seq)``, so event
        #: order is exactly the seed order.
        self._nowq: "deque[_Entry]" = deque()
        self._seq = itertools.count()
        #: Monotone spawn counter: default process names must stay
        #: unique even if ``_processes`` is later compacted.
        self._name_seq = itertools.count()
        self._processes: List[Process] = []
        self._thread_procs: Dict[int, Process] = {}
        #: Loop-side park lock (same toggle-lock pattern as
        #: ``Process._resume``): locked while a call process runs.
        self._loop_wake = _allocate_lock()
        self._loop_wake.acquire()
        self._closed = False
        self._events_processed = 0
        self._current_gen: Optional[Process] = None
        self._handoffs = 0
        self._escapes = 0

    @property
    def events_processed(self) -> int:
        """Events executed so far — the numerator of events/sec."""
        return self._events_processed

    @property
    def handoffs(self) -> int:
        """Worker-thread parks so far: what a call process costs."""
        return self._handoffs

    @property
    def escapes(self) -> int:
        """:meth:`SimClock.on_worker` calls run for driven generators so far."""
        return self._escapes

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach from the clock; the clock reverts to sequential mode.

        A closed scheduler spawns and reports nothing more, so it also
        lets go of its processes: each points back at its scheduler, and
        holding them would keep both alive until a collector pass.
        """
        if not self._closed:
            self._closed = True
            if self.clock._scheduler is self:
                self.clock._scheduler = None
            self._processes.clear()

    def abort(self) -> int:
        """Cancel every pending event: the simulated node lost power.

        Used by crash-injection experiments after a
        :class:`~repro.common.errors.ClientCrash` propagates out of
        :meth:`run`: sibling processes (prefetchers, concurrent
        deployments on the same node) die with the client instead of
        draining to completion.  Suspended call-process threads are
        abandoned — they are daemon threads parked on an event that will
        never be set, exactly as a killed process never resumes.  Returns
        the number of live entries cleared.
        """
        cancelled = 0
        for queue in (self._heap, self._nowq):
            for entry in queue:
                if entry[2] is not None:
                    entry[2] = None
                    cancelled += 1
            queue.clear()
        return cancelled

    def __enter__(self) -> "SimScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> _Event:
        """Run ``action`` ``delay`` virtual seconds from now.

        The returned event is owned by the caller: keep it as long as
        you like and cancel it at any time (before or after it fires).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} s in the past")
        return _Event(self.schedule_transient(delay, action))

    def schedule_transient(self, delay: float, action: Callable[[], None]) -> _Entry:
        """Schedule ``action`` without a handle: the scheduler's own
        machinery (sleeps, wakes, link-flow completions).  The returned
        entry is opaque; pass it to :meth:`cancel` to drop the event."""
        entry = [self.clock._now + delay, next(self._seq), action]
        if delay == 0.0:
            self._nowq.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(entry: _Entry) -> None:
        """Drop a :meth:`schedule_transient` event; harmless once it ran."""
        entry[2] = None

    def spawn(self, target: Any, *args: Any, name: str = "", **kwargs: Any) -> Process:
        """Start a new process at the current virtual time.

        ``target`` may be a generator function (or generator object) —
        stepped by the scheduler, yielding delays / processes / events —
        or any plain callable, which runs on a strict-handoff worker
        thread so ordinary synchronous code (clock advances, link
        transfers deep in the call stack) becomes schedulable unchanged.
        """
        if self._closed:
            raise SchedulerError("scheduler is closed")
        self.clock.settle_debt()  # children start at settled time
        index = next(self._name_seq)
        process = Process(self, name or f"proc-{index}")
        self._processes.append(process)
        tracer = self.clock._tracer
        if tracer is not None:
            # Still on the spawner's thread: the spawner's innermost open
            # span becomes the new process track's base parent.
            tracer.on_spawn(process)
        process._step_cb = step_cb = functools.partial(self._step_gen, process)
        generator = None
        if hasattr(target, "send") and hasattr(target, "throw"):
            generator = target
        elif _is_generator_function(target):
            generator = target(*args, **kwargs)
        if generator is not None:
            process._gen = generator
            self.schedule_transient(0.0, step_cb)
        else:
            process._resume = resume = _allocate_lock()
            resume.acquire()  # armed: the worker parks until granted
            process._grant_cb = grant_cb = process._grant_now
            worker = _WORKER_POOL.acquire()
            process._ident = worker.ident
            self._thread_procs[worker.ident] = process
            worker.submit(
                lambda: self._call_process_main(process, target, args, kwargs)
            )
            self.schedule_transient(0.0, grant_cb)
        return process

    # -- the event loop ----------------------------------------------------

    def run(self) -> None:
        """Drain the event heap (must be called from outside any process).

        Raises the first error any process died with, after the heap has
        drained so sibling processes still finish deterministically.
        """
        self._run_loop(None)
        self._raise_process_errors()

    def run_until(self, process: Process) -> Process:
        """Run the loop until ``process`` completes, then return it."""
        self._run_loop(process)
        if not process._done:
            raise SchedulerError(
                f"event heap drained but {process!r} never finished "
                f"(deadlocked on an unfired wait?)"
            )
        if process.error is not None:
            raise process.error
        return process

    def _run_loop(self, stop: Optional[Process]) -> None:
        """Run entries in ``(time, seq)`` order until both queues drain
        or ``stop`` (the process :meth:`run_until` awaits) is done."""
        if self._running_process() is not None:
            raise SchedulerError("run() called from inside a process")
        heap = self._heap
        nowq = self._nowq
        clock = self.clock
        heappop = heapq.heappop
        popleft = nowq.popleft
        while heap or nowq:
            if stop is not None and stop._done:
                break
            # Merge the zero-delay FIFO with the heap by (time, seq) so
            # the execution order is exactly the single-heap order.
            if nowq and not (heap and heap[0] < nowq[0]):
                time, _, action = popleft()
            else:
                time, _, action = heappop(heap)
            if action is not None:
                if time != clock._now:
                    clock._jump_to(time)
                self._events_processed += 1
                action()

    def _raise_process_errors(self) -> None:
        for process in self._processes:
            if process.error is not None:
                error, process.error = process.error, None
                raise error

    # -- process internals -------------------------------------------------

    def _running_process(self) -> Optional[Process]:
        """The call process owning the current thread, if any: who is
        about to block.  Never asked from a generator step — whichever
        thread runs it, a step cannot block; it has to yield."""
        stepping = self._current_gen
        if stepping is not None:
            raise SchedulerError(
                f"process {stepping.name!r} made a blocking call from a "
                f"generator step: yield it (or `yield from` its generator "
                f"twin) instead"
            )
        return self._thread_procs.get(threading.get_ident())

    def current_process(self) -> Optional[Process]:
        """The process running right now: the generator being stepped
        (a generator process, or a call process being driven), else the
        call process owning the current thread.  This is who clock
        calls, tracers and links act for."""
        current = self._current_gen
        if current is not None:
            return current
        return self._thread_procs.get(threading.get_ident())

    def drive(self, gen: Any) -> Any:
        """Run generator ``gen`` to completion as the calling process.

        The first step runs in place, where the synchronous code ran
        until its first block; then the worker parks *once* while the
        loop thread steps the generator as this process — each event
        that would have granted the worker steps it instead, so event
        order and count are the blocking form's — and the last step
        hands back its value or exception.  A yielded worker call runs
        here in call mode, then the generator goes on in place.  Outside
        any process: inline.  DESIGN.md §5.
        """
        process = self._running_process()
        if process is None:
            return run_inline(gen)
        process._gen = gen
        try:
            while True:
                self._step_gen(process)  # in place, on this worker thread
                while process._handback is None:  # blocked: the loop steps it
                    self._suspend(process)
                back, process._handback = process._handback, None
                if back.__class__ is not _WorkerCall:
                    value, error = back
                    if error is not None:
                        raise error
                    return value
                self._escapes += 1
                process._gen = None  # ordinary call mode for the call
                try:
                    process._sendval = (back(), None)
                except BaseException as error:  # noqa: BLE001 - re-raised in gen
                    process._sendval = (None, error)
                process._gen = gen
        finally:
            process._gen = None

    def _hand_back(self, process: Process, back: Any) -> None:
        """A driven generator finished or asked for its worker: leave
        ``back`` for :meth:`drive`, and wake a parked worker."""
        process._handback = back
        if threading.get_ident() != process._ident:
            process._grant_now()

    def _suspend(self, process: Process) -> None:
        """Hand control to the loop; return when the process is regranted."""
        self._handoffs += 1
        self._loop_wake.release()
        process._resume.acquire()

    def _wake(self, process: Process, value: Any = None) -> None:
        """Schedule ``process`` to resume now (used by events and flows)."""
        if process._gen is not None:
            process._sendval = value
            action = process._step_cb
        else:
            action = process._grant_cb
        self._nowq.append([self.clock._now, next(self._seq), action])

    def _call_process_main(
        self,
        process: Process,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> None:
        process._resume.acquire()  # first grant: the spawn event fired
        process.started_at = self.clock.now
        try:
            process.result = fn(*args, **kwargs)
            if process._debt:
                self.clock.advance(0.0)  # settle before finished_at
        except BaseException as error:  # noqa: BLE001 - reported via run()
            process.error = error
        self._finish(process)
        self._loop_wake.release()  # hand control back; the worker re-parks

    def _finish(self, process: Process) -> None:
        process._done = True
        process.finished_at = self.clock._now
        waiters = process._waiters
        if waiters:
            process._waiters = []
            result = process.result
            for waiter in waiters:
                self._wake(waiter, result)
        if process._ident is not None:
            self._thread_procs.pop(process._ident, None)
        # A finished process is never resumed: drop the callbacks that
        # point back at it (and the generator and park lock they drove),
        # so it is not a reference cycle only the collector can free.
        process._grant_cb = process._step_cb = None
        process._gen = process._resume = None

    def _step_gen(self, process: Process) -> None:
        """Advance a generator process by one yield."""
        sendval = process._sendval
        process._sendval = None
        if process.started_at is None:
            process.started_at = self.clock._now
        self._current_gen = process
        try:
            item = process._gen.send(sendval)
        except StopIteration as stop:
            self._current_gen = None
            self._gen_ended(process, stop.value, None)
            return
        except BaseException as error:  # noqa: BLE001 - reported via run()
            self._current_gen = None
            self._gen_ended(process, None, error)
            return
        self._current_gen = None
        if item is None:
            item = 0.0
        if item is SUSPEND:
            pass  # parked: whoever handed out SUSPEND will _wake us
        elif isinstance(item, (int, float)):
            if item < 0:
                self._gen_ended(process, None, ValueError(f"cannot sleep {item} s"))
            else:
                if process._debt:
                    item, _ = _fold_debt(process, item, "")
                self.schedule_transient(float(item), process._step_cb)
        elif isinstance(item, Process):
            if item._done:
                process._sendval = item.result
                self.schedule_transient(0.0, process._step_cb)
            else:
                item._waiters.append(process)
        elif isinstance(item, SimEvent):
            if item._fired:
                self.schedule_transient(0.0, process._step_cb)
            else:
                item._waiters.append(process)
        elif item.__class__ is _WorkerCall and process._resume is not None:
            self._hand_back(process, item)
        else:
            self._gen_ended(
                process, None,
                TypeError(
                    f"process {process.name!r} yielded {item!r}; expected a "
                    f"delay, a Process, or a SimEvent (a worker call needs a "
                    f"driven call process: there is no thread to run it on)"
                ),
            )

    def _gen_ended(
        self, process: Process, value: Any, error: Optional[BaseException]
    ) -> None:
        """The stepped generator returned ``value`` or raised ``error``."""
        if process._resume is not None:  # driven: the call process goes on
            self._hand_back(process, (value, error))
            return
        if error is None and process._debt:
            # Settle before finished_at, as a call process does on exit.
            process._gen = _settled(self.clock, value)
            self._step_gen(process)
            return
        process.result = value
        process.error = error
        self._finish(process)

    def __repr__(self) -> str:
        return (
            f"SimScheduler(now={self.clock.now:.6f}, "
            f"pending={len(self._heap) + len(self._nowq)}, "
            f"processes={len(self._processes)})"
        )
