"""Three ways to run, one schedule (DESIGN.md §5).

The blocking stretches of the read path are written once, as
generators.  The same program can then be executed (a) by call
processes through the synchronous facades — each facade hands its
generator to ``SimScheduler.drive`` and parks the worker once, (b) by
pure generator processes that ``yield from`` the same generators, and
(c) by call processes that drive the whole program as one generator and
reach some of its operations through the worker escape
(``SimClock.on_worker``).  All three must agree exactly: every
process's wake times and results, ``events_processed``, the link's
transfer log and the clock's labelled trace.  Generated programs hunt for a difference; the pinned
cases below hold the edges (errors, cancellation, crashes, abort,
nesting) in place.  One operation leads or waits on a keyed
:class:`~repro.net.resilience.SingleFlight`, the protocol every
coalescing site in the read path uses.
"""

from __future__ import annotations

import time
import traceback

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.bench.environment import make_testbed, publish_images
from repro.common.clock import SchedulerError, SimClock, SimEvent, SimScheduler
from repro.common.errors import ClientCrash, FetchCancelledError, TimeoutError
from repro.net.faults import CrashPlan, CrashPoint, FaultPlan, FaultyLink
from repro.net.link import Link
from repro.net.resilience import SingleFlight
from repro.workloads.tasks import task_for_category

EVENTS = 3
FLIGHT_KEYS = 2


class World:
    """One clock, one shared link, a few events."""

    def __init__(self, faulty: bool) -> None:
        self.clock = SimClock(trace=True)
        if faulty:
            plan = FaultPlan(
                seed="drive", drop_rate=0.15, spike_rate=0.3, timeout_s=0.02
            )
            self.link = FaultyLink(self.clock, plan, bandwidth_mbps=8.0)
        else:
            self.link = Link(self.clock, bandwidth_mbps=8.0)
        self.wire = self.link.scoped("svc")
        self.events = [SimEvent(self.clock) for _ in range(EVENTS)]
        self.flights = SingleFlight()
        self.procs = []
        self.spawn_child = None


# -- one operation, in its two forms ------------------------------------


def op_call(world, me, op, children):
    """The operation through the synchronous facades."""
    kind, arg = op
    clock = world.clock
    if kind == "sleep":
        clock.advance(arg, "sleep")
    elif kind == "defer":
        clock.advance_deferred(arg, "defer")
    elif kind == "transfer":
        try:
            return clock.drive(world.wire.transfer_gen(arg, f"{me}"))
        except FetchCancelledError as error:
            return ("cancelled", error.bytes_transferred)
        except TimeoutError:
            return "dropped"
    elif kind == "wait":
        world.events[arg].wait()
    elif kind == "fire":
        world.events[arg].fire()
    elif kind == "spawn":
        children.append(world.spawn_child(f"{me}.{len(children)}", arg))
    elif kind == "join":
        if children:
            return children.pop().join().result
    elif kind == "cancel":
        return world.link.cancel_flows(world.procs[arg % len(world.procs)])
    elif kind == "flight":
        key, work_s = arg
        pending = world.flights.pending(key)
        if pending is not None:
            pending.wait()
            return "waited"
        announce = world.flights.claim(key, clock)
        try:
            clock.advance(work_s, "lead")
        finally:
            clock.drive(world.flights.release(key, announce))
        return "led"
    return None


def op_gen(world, me, op, children):
    """The same operation as a generator."""
    kind, arg = op
    clock = world.clock
    if kind == "sleep":
        yield from clock.advance_gen(arg, "sleep")
    elif kind == "defer":
        clock.advance_deferred(arg, "defer")
    elif kind == "transfer":
        try:
            return (yield from world.wire.transfer_gen(arg, f"{me}"))
        except FetchCancelledError as error:
            return ("cancelled", error.bytes_transferred)
        except TimeoutError:
            return "dropped"
    elif kind == "wait":
        yield from world.events[arg].wait_gen()
    elif kind == "fire":
        yield from world.events[arg].fire_gen()
    elif kind == "spawn":
        yield from clock.settle_gen()  # children start at settled time
        children.append(world.spawn_child(f"{me}.{len(children)}", arg))
    elif kind == "join":
        if children:
            child = children.pop()
            yield from clock.settle_gen()
            if not child.done:
                yield child
            return child.result
    elif kind == "cancel":
        yield from clock.settle_gen()
        return world.link.cancel_flows(world.procs[arg % len(world.procs)])
    elif kind == "flight":
        key, work_s = arg
        pending = world.flights.pending(key)
        if pending is not None:
            yield from pending.wait_gen()
            return "waited"
        announce = world.flights.claim(key, clock)
        try:
            yield from clock.advance_gen(work_s, "lead")
        finally:
            yield from world.flights.release(key, announce)
        return "led"
    return None


# -- one program, three ways ---------------------------------------------


def program_call(world, me, program):
    children, log = [], []
    for op, _ in program:
        result = op_call(world, me, op, children)
        log.append((op[0], world.clock.now, result))
    return log


def program_gen(world, me, program, escapes):
    children, log = [], []
    for op, escaped in program:
        if escaped and escapes:
            result = yield from world.clock.on_worker(
                op_call, world, me, op, children
            )
        else:
            result = yield from op_gen(world, me, op, children)
        log.append((op[0], world.clock.now, result))
    return log


def program_driven(world, me, program):
    return world.clock.drive(program_gen(world, me, program, escapes=True))


def run_programs(programs, faulty, mode):
    world = World(faulty)
    with SimScheduler(world.clock) as scheduler:
        if mode == "call":
            target, extra = program_call, ()
        elif mode == "gen":
            target, extra = program_gen, (False,)
        else:
            target, extra = program_driven, ()
        world.spawn_child = lambda name, program: scheduler.spawn(
            target, world, name, program, *extra, name=name
        )
        for index, program in enumerate(programs):
            world.procs.append(world.spawn_child(f"p{index}", program))

        def janitor():
            # Whatever still waits is released: no process (and no
            # worker thread) outlives its example.
            yield 1000.0
            for event in world.events:
                event.fire()

        scheduler.spawn(janitor, name="janitor")
        scheduler.run()
        assert all(process.done for process in world.procs)
        return {
            "results": [process.result for process in world.procs],
            "finished": [process.finished_at for process in world.procs],
            "events": scheduler.events_processed,
            "log": list(world.link.log.records),
            "trace": world.clock.trace,
            "now": world.clock.now,
        }, scheduler


_DELAYS = st.sampled_from([0.0, 0.001, 0.01, 0.25])
_SIZES = st.sampled_from([0, 1_000, 50_000, 400_000])
_LEAF_OPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("defer"), st.sampled_from([0.001, 0.05])),
    st.tuples(st.just("transfer"), _SIZES),
    st.tuples(st.just("wait"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(
        st.just("flight"), st.tuples(st.integers(0, FLIGHT_KEYS - 1), _DELAYS)
    ),
)


def _programs(ops):
    return st.lists(st.tuples(ops, st.booleans()), min_size=1, max_size=7)


_OPS = st.one_of(
    _LEAF_OPS,
    st.tuples(st.just("spawn"), _programs(_LEAF_OPS)),
    st.tuples(st.just("join"), st.none()),
)


@seed(18)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_programs(_OPS), min_size=1, max_size=4), st.booleans())
def test_three_ways_to_run_one_schedule(programs, faulty):
    by_call, _ = run_programs(programs, faulty, "call")
    by_gen, gen_scheduler = run_programs(programs, faulty, "gen")
    by_escape, _ = run_programs(programs, faulty, "driven")
    assert by_gen == by_call
    assert by_escape == by_call
    assert gen_scheduler.handoffs == 0  # no thread, no park


def test_a_program_that_exercises_every_operation():
    """The generated search, anchored: one fixed program set that hits
    transfers under contention, a cancel in flight, deferred debt at an
    event fire, spawn/join, the escape, and a single-flight with one
    waiter inside it and one arrival after it that leads its own."""
    programs = [
        [(("defer", 0.05), False), (("transfer", 400_000), True),
         (("fire", 0), False), (("spawn", [(("transfer", 50_000), True)]), False),
         (("sleep", 0.01), True), (("join", None), False)],
        [(("wait", 0), False), (("transfer", 400_000), False),
         (("defer", 0.001), False), (("fire", 1), True)],
        [(("sleep", 0.25), False), (("cancel", 1), True),
         (("wait", 1), True), (("transfer", 1_000), False)],
        [(("defer", 0.05), False), (("flight", (0, 0.25)), False)],
        [(("sleep", 0.01), False), (("flight", (0, 0.25)), False),
         (("flight", (0, 0.001)), False)],
    ]
    for faulty in (False, True):
        by_call, _ = run_programs(programs, faulty, "call")
        by_gen, _ = run_programs(programs, faulty, "gen")
        by_escape, escape_scheduler = run_programs(programs, faulty, "driven")
        assert by_gen == by_call and by_escape == by_call
        assert any(
            result[0] == "cancelled"
            for log in by_call["results"] for _, _, result in log
            if isinstance(result, tuple)
        )
        flights = [
            (result, at) for log in by_call["results"][3:]
            for kind, at, result in log if kind == "flight"
        ]
        assert [result for result, _ in flights] == ["led", "waited", "led"]
        assert flights[0][1] == flights[1][1]  # woke at the release instant
        assert escape_scheduler.escapes == 6


# -- pinned cases ----------------------------------------------------------


def test_loop_side_exception_surfaces_in_the_caller_with_generator_frames():
    clock = SimClock()
    caught = {}

    def fragile():
        yield from clock.advance_gen(1.0)  # parks: the next step is loop-side
        raise KeyError("raised on the loop thread")

    def caller():
        try:
            clock.drive(fragile())
        except KeyError as error:
            caught["frames"] = [
                frame.name for frame in traceback.extract_tb(error.__traceback__)
            ]
            caught["at"] = clock.now
            raise

    with SimScheduler(clock) as scheduler:
        process = scheduler.spawn(caller, name="caller")
        with pytest.raises(KeyError):
            scheduler.run()
    assert caught["at"] == 1.0
    assert caught["frames"][0] == "caller" and "fragile" in caught["frames"]
    assert process.done and process.finished_at == 1.0


def test_cancelling_a_driven_transfer_raises_in_the_caller():
    """What a hedge loser sees: its flow is cut while its worker is
    parked in ``drive``; the error and the partial bytes arrive in the
    calling thread, and a cancel that meets no flow waits for the next."""
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=8.0)
    seen = []

    def loser():
        for _ in range(2):
            try:
                link.transfer(1_000_000, "loser")
            except FetchCancelledError as error:
                seen.append((clock.now, error.bytes_transferred))

    with SimScheduler(clock) as scheduler:
        process = scheduler.spawn(loser, name="loser")
        scheduler.schedule(0.5, lambda: link.cancel_flows(process))
        scheduler.schedule(0.5, lambda: link.cancel_flows(process))
        scheduler.run()
    (first_at, first_bytes), (second_at, second_bytes) = seen
    assert first_at == 0.5 and 0 < first_bytes < 1_000_000
    assert (second_at, second_bytes) == (0.5, 0)  # pending: cut before start
    assert [record.label for record in link.log.records] == ["loser:cancelled"]


@pytest.mark.parametrize("point", list(CrashPoint))
def test_client_crash_at_each_point_is_the_same_three_ways(small_corpus, point):
    """Sequentially, in a call process (driven) and in a generator
    process the armed crash fires at the same instant and leaves the
    same journal and pool behind."""
    victim = small_corpus.by_series["nginx"][0]

    def crashed(how):
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        driver = testbed.gear_driver
        driver.arm_crash(CrashPlan(point=point, op_index=1))
        driver.pull_index(victim.gear_reference)
        container = driver.create_container(victim.gear_reference)
        driver.start_container(container)
        task = task_for_category(victim.category)
        args = (testbed.clock, container.mount, victim.trace)
        with pytest.raises(ClientCrash) as excinfo:
            if how == "sequential":
                task.run(*args)
            else:
                with SimScheduler(testbed.clock) as scheduler:
                    target = task.run if how == "call" else task.run_gen
                    scheduler.run_until(scheduler.spawn(target, *args))
        crash = excinfo.value
        return (
            crash.point, crash.op_index, crash.at_s, testbed.clock.now,
            list(driver.journal.records),
            sorted(driver.pool.identities()),
            list(testbed.link.log.records),
        )

    sequential = crashed("sequential")
    assert sequential[0] == point.value
    assert crashed("call") == sequential
    assert crashed("gen") == sequential


def test_abort_with_a_driven_process_parked_leaves_no_runnable_worker():
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=8.0)
    progress = []

    def doomed():
        link.transfer(1_000_000, "doomed")  # a second of virtual time
        progress.append("transfer returned")

    def ticker():
        yield 0.1

    scheduler = SimScheduler(clock)
    try:
        process = scheduler.spawn(doomed, name="doomed")
        scheduler.run_until(scheduler.spawn(ticker, name="ticker"))
        assert link.active_flows == 1 and scheduler.handoffs == 1
        assert scheduler.abort() > 0
        scheduler.run()  # nothing left: returns at once
    finally:
        scheduler.close()
    time.sleep(0.05)  # a runnable worker would have got here by now
    assert progress == [] and not process.done
    assert clock.now == 0.1


def test_nested_drive_inside_an_escape_restores_the_outer_generator():
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=8.0)
    marks = []

    def blocking_the_old_way():
        clock.advance(0.5)  # plain call mode: parks and is granted
        link.transfer(100_000)  # a facade: a nested drive
        return "inner"

    def outer():
        yield from clock.advance_gen(1.0)
        value = yield from clock.on_worker(blocking_the_old_way)
        marks.append((value, clock.now))
        yield from clock.advance_gen(1.0)  # the outer generator goes on
        return "outer"

    def caller():
        marks.append((clock.drive(outer()), clock.now))

    with SimScheduler(clock) as scheduler:
        scheduler.spawn(caller, name="caller")
        scheduler.run()
        assert scheduler.escapes == 1
    inner_done = 1.5 + link.transfer_time(100_000)
    assert marks == [("inner", inner_done), ("outer", inner_done + 1.0)]


def test_an_escape_raises_into_the_generator_that_asked():
    clock = SimClock()

    def refuses():
        raise FetchCancelledError("no", bytes_transferred=7)

    def asks():
        yield from clock.advance_gen(1.0)
        try:
            yield from clock.on_worker(refuses)
        except FetchCancelledError as error:
            return error.bytes_transferred

    with SimScheduler(clock) as scheduler:
        process = scheduler.spawn(lambda: clock.drive(asks()), name="caller")
        scheduler.run()
    assert process.result == 7


def test_a_thread_less_generator_process_cannot_escape():
    clock = SimClock()

    def lonely():
        yield 1.0
        yield from clock.on_worker(lambda: None)

    with SimScheduler(clock) as scheduler:
        scheduler.spawn(lonely, name="lonely")
        with pytest.raises(TypeError, match="no thread to run it on"):
            scheduler.run()


def test_outside_a_process_everything_runs_inline():
    """No scheduler, or a scheduler but no process: the generators take
    their sequential branch and never suspend."""
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=8.0)

    def stretch():
        yield from clock.advance_gen(1.0)
        yield from link.transfer_gen(100_000)
        return (yield from clock.on_worker(lambda: "called"))

    assert clock.drive(stretch()) == "called"
    with SimScheduler(clock):
        assert clock.drive(stretch()) == "called"
    assert clock.now == 2 * (1.0 + link.transfer_time(100_000))

    def suspends():
        yield 1.0

    with pytest.raises(SchedulerError, match="nothing can resume it"):
        clock.drive(suspends())
