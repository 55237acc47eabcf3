"""Discrete-event scheduler semantics and sequential-equivalence goldens.

The scheduler refactor must be invisible at concurrency 1: a deployment
executed inside a single scheduler process has to reproduce the seed's
sequential cost model *byte for byte* — same clock, same transfer log,
same :class:`DeploymentResult`.  The golden tests here pin that across
the Fig. 9 bandwidth grid and under a fault plan.
"""

import functools
import gc
import heapq
import inspect
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.deploy import deploy_with_docker, deploy_with_gear
from repro.bench.environment import make_testbed, publish_images
from repro.common import clock as clock_module
from repro.common.clock import (
    Process,
    SchedulerError,
    SimClock,
    SimEvent,
    SimScheduler,
)
from repro.common.errors import FetchCancelledError
from repro.net.faults import FaultPlan, OutageWindow
from repro.net.link import Link
from tests.conftest import image_of

#: Fig. 9's bandwidth grid (Mbps).
FIG9_BANDWIDTHS = (904, 100, 20, 5)


# -- scheduler kernel ----------------------------------------------------


def awaiting(process):
    """Wait for ``process`` to end: ``clock.drive`` it from a call process."""
    return (yield process)


class TestScheduler:
    def test_attach_detach(self):
        clock = SimClock()
        assert clock.scheduler is None
        with SimScheduler(clock) as scheduler:
            assert clock.scheduler is scheduler
        assert clock.scheduler is None

    def test_double_attach_rejected(self):
        clock = SimClock()
        with SimScheduler(clock):
            with pytest.raises(SchedulerError):
                SimScheduler(clock)

    def test_schedule_orders_by_time(self):
        clock = SimClock()
        fired = []
        with SimScheduler(clock) as scheduler:
            scheduler.schedule(2.0, lambda: fired.append(("b", clock.now)))
            scheduler.schedule(1.0, lambda: fired.append(("a", clock.now)))
            scheduler.run()
        assert fired == [("a", 1.0), ("b", 2.0)]

    def test_equal_times_break_ties_by_schedule_order(self):
        clock = SimClock()
        fired = []
        with SimScheduler(clock) as scheduler:
            for tag in ("first", "second", "third"):
                scheduler.schedule(1.0, lambda t=tag: fired.append(t))
            scheduler.run()
        assert fired == ["first", "second", "third"]

    def test_generator_processes_interleave_deterministically(self):
        clock = SimClock()
        steps = []

        def worker(tag, delay):
            for _ in range(3):
                yield delay
                steps.append((tag, clock.now))

        with SimScheduler(clock) as scheduler:
            scheduler.spawn(worker("a", 1.0))
            scheduler.spawn(worker("b", 1.0))
            scheduler.run()
        # Same wake times: spawn order decides — a before b, every round.
        assert steps == [
            ("a", 1.0), ("b", 1.0),
            ("a", 2.0), ("b", 2.0),
            ("a", 3.0), ("b", 3.0),
        ]

    def test_thread_process_advances_suspend(self):
        clock = SimClock()
        marks = []

        def worker(tag, delay):
            for _ in range(2):
                clock.advance(delay)
                marks.append((tag, clock.now))

        with SimScheduler(clock) as scheduler:
            scheduler.spawn(worker, "slow", 2.0, name="slow")
            scheduler.spawn(worker, "fast", 1.0, name="fast")
            scheduler.run()
        assert marks == [
            ("fast", 1.0), ("slow", 2.0), ("fast", 2.0), ("slow", 4.0)
        ]
        assert clock.now == 4.0

    def test_spawn_reads_the_kind_from_code_flags(self, monkeypatch):
        """A function, a bound method and a closure (a new object every
        time, as a hedge attempt is) are told apart without ``inspect``;
        a ``functools.partial`` still asks it, and still runs as a
        generator."""
        asked = []
        real = inspect.isgeneratorfunction
        monkeypatch.setattr(
            inspect, "isgeneratorfunction",
            lambda target: asked.append(target) or real(target),
        )
        clock = SimClock()
        steps = []

        def function(tag, delay):
            yield delay
            steps.append((tag, clock.now))

        class Walker:
            def walk(self, tag, delay):
                yield delay
                steps.append((tag, clock.now))

        def closure_over(delay):
            def attempt(tag):
                yield delay
                steps.append((tag, clock.now))
            return attempt

        def blocking(tag, delay):
            clock.advance(delay)
            steps.append((tag, clock.now))

        with SimScheduler(clock) as scheduler:
            scheduler.spawn(function, "function", 1.0)
            scheduler.spawn(Walker().walk, "method", 2.0)
            scheduler.spawn(closure_over(3.0), "closure")
            scheduler.spawn(blocking, "call", 4.0)
            assert asked == []
            scheduler.spawn(functools.partial(function, "partial"), 5.0)
            assert len(asked) == 1
            scheduler.run()
            events = scheduler.events_processed
        assert steps == [
            ("function", 1.0), ("method", 2.0), ("closure", 3.0),
            ("call", 4.0), ("partial", 5.0),
        ]
        assert events == 10  # as when every spawn asked inspect

    def test_parked_workers_do_not_pin_the_finished_wave(self):
        """A worker waiting in the pool for its next job must not keep
        the last job's closure (process -> target -> world) alive."""

        class World:
            pass

        def run_wave():
            world = World()
            clock = SimClock()

            def client():
                clock.advance(1.0)
                return world

            with SimScheduler(clock) as scheduler:
                for index in range(8):
                    scheduler.spawn(client, name=f"c{index}")
                scheduler.run()
            return weakref.ref(world)

        sentinel = run_wave()
        gc.collect()
        # The wave's threads are parked in the pool, not gone.
        assert len(clock_module._WORKER_POOL._idle) >= 8
        assert sentinel() is None

    def test_finished_process_is_freed_by_refcount_alone(self):
        """A finished process must not be a reference cycle (process ->
        resume callback -> process): once the scheduler is closed and
        dropped it dies without a collector pass, thread or generator."""
        clock = SimClock()

        def call_body():
            clock.advance(1.0)

        def generator_body():
            yield 1.0

        assert gc.isenabled()
        gc.disable()
        try:
            scheduler = SimScheduler(clock)
            processes = [
                scheduler.spawn(call_body), scheduler.spawn(generator_body)
            ]
            scheduler.run()
            assert all(process.done for process in processes)
            refs = [weakref.ref(process) for process in processes]
            scheduler.close()
            del scheduler, processes
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_process_result_and_join(self):
        clock = SimClock()

        def compute():
            clock.advance(1.5)
            return 42

        with SimScheduler(clock) as scheduler:
            process = scheduler.spawn(compute, name="compute")
            assert scheduler.run_until(process).result == 42
        assert process.done
        assert process.finished_at == 1.5

    def test_join_from_inside_a_process(self):
        clock = SimClock()

        def child():
            yield 2.0
            return "done"

        def parent(scheduler):
            spawned = scheduler.spawn(child())
            result = yield spawned
            return (result, clock.now)

        with SimScheduler(clock) as scheduler:
            root = scheduler.spawn(parent(scheduler))
            assert scheduler.run_until(root).result == ("done", 2.0)

    def test_simevent_wait_and_fire(self):
        clock = SimClock()
        seen = []

        def waiter(event):
            yield event
            seen.append(("woken", clock.now))

        def firer(event):
            yield 3.0
            event.fire()

        with SimScheduler(clock) as scheduler:
            event = SimEvent(clock)
            scheduler.spawn(waiter(event))
            scheduler.spawn(firer(event))
            scheduler.run()
        assert seen == [("woken", 3.0)]

    def test_errors_propagate_from_run(self):
        clock = SimClock()

        def boom():
            clock.advance(1.0)
            raise ValueError("kaput")

        with SimScheduler(clock) as scheduler:
            scheduler.spawn(boom, name="boom")
            with pytest.raises(ValueError, match="kaput"):
                scheduler.run()

    def test_advance_without_scheduler_is_seed_behaviour(self):
        clock = SimClock()
        clock.attach_tracer()
        clock.advance(1.0, "pull")
        clock.advance(2.0, "run")
        assert clock.now == 3.0
        assert [(e.at_s, e.name) for e in clock.tracer.instants] == [(1.0, "pull"), (3.0, "run")]

    def test_spawn_returns_process(self):
        clock = SimClock()
        with SimScheduler(clock) as scheduler:
            process = scheduler.spawn(lambda: None, name="noop")
            assert isinstance(process, Process)
            scheduler.run()
        assert process.done

    def test_default_process_names_are_monotone_and_unique(self):
        """Default names come from a monotone counter, never recycled.

        Spawning across multiple ``run`` rounds — after earlier processes
        have completed — must keep minting fresh names, so logs and trace
        tracks from different rounds can never alias.
        """
        clock = SimClock()
        names = []
        with SimScheduler(clock) as scheduler:
            for round_ in range(3):
                batch = [scheduler.spawn(lambda: None) for _ in range(4)]
                scheduler.run()
                names.extend(process.name for process in batch)
            # An explicit name consumes a counter slot too, keeping the
            # default sequence strictly monotone.
            named = scheduler.spawn(lambda: None, name="explicit")
            after = scheduler.spawn(lambda: None)
            scheduler.run()
        assert names == [f"proc-{i}" for i in range(12)]
        assert named.name == "explicit"
        assert after.name == "proc-13"
        assert len(set(names)) == len(names)

    def test_events_processed_counts_executed_events(self):
        clock = SimClock()
        with SimScheduler(clock) as scheduler:
            assert scheduler.events_processed == 0
            scheduler.schedule(1.0, lambda: None)
            cancelled = scheduler.schedule(2.0, lambda: None)
            cancelled.cancel()
            scheduler.run()
            assert scheduler.events_processed == 1


class TestQueueEntries:
    """A scheduled event is a queue entry; cancelling one clears it."""

    def test_cancel_after_the_timer_fired_is_a_no_op(self):
        clock = SimClock()
        fired = []
        with SimScheduler(clock) as scheduler:
            timer = scheduler.schedule(1.0, lambda: fired.append("timer"))
            scheduler.run()
            timer.cancel()  # late: the hedge controller does this
            timer.cancel()
            scheduler.schedule(1.0, lambda: fired.append("next"))
            scheduler.run()
            assert fired == ["timer", "next"]
            assert scheduler.events_processed == 2
            assert clock.now == 2.0

    def test_cancelled_transient_is_skipped_and_not_counted(self):
        clock = SimClock()
        fired = []
        with SimScheduler(clock) as scheduler:
            dropped = scheduler.schedule_transient(1.0, lambda: fired.append("x"))
            scheduler.schedule_transient(2.0, lambda: fired.append("kept"))
            now = scheduler.schedule_transient(0.0, lambda: fired.append("y"))
            scheduler.cancel(dropped)
            scheduler.cancel(now)
            scheduler.run()
            scheduler.cancel(dropped)  # after the loop dropped it: harmless
            assert fired == ["kept"]
            assert scheduler.events_processed == 1
            assert clock.now == 2.0

    def test_abort_counts_live_entries_and_leaves_nothing_to_run(self):
        clock = SimClock()
        fired = []

        def sleeper():
            yield 3.0
            fired.append("sleeper")

        with SimScheduler(clock) as scheduler:
            scheduler.schedule(1.0, lambda: fired.append("timer"))
            scheduler.schedule(0.0, lambda: fired.append("now"))
            scheduler.schedule(2.0, lambda: fired.append("gone")).cancel()
            scheduler.spawn(sleeper)
            assert scheduler.abort() == 3  # two timers and the spawn step
            assert scheduler.abort() == 0
            scheduler.run()
            assert fired == []
            assert scheduler.events_processed == 0
            assert clock.now == 0.0

    def test_run_until_returns_when_the_process_finishes(self):
        clock = SimClock()
        fired = []

        def short():
            yield 1.0
            return "short"

        def tie():
            yield 1.0
            fired.append(("tie", clock.now))

        with SimScheduler(clock) as scheduler:
            process = scheduler.spawn(short)
            scheduler.spawn(tie)
            scheduler.schedule(5.0, lambda: fired.append(("later", clock.now)))
            assert scheduler.run_until(process).result == "short"
            assert process.finished_at == 1.0 and clock.now == 1.0
            # Two spawn steps and the wake that finished the process; the
            # other wake at 1.0 s was scheduled later, so it stays queued.
            assert scheduler.events_processed == 3
            assert fired == []
            scheduler.run()
            assert fired == [("tie", 1.0), ("later", 5.0)]
            assert scheduler.events_processed == 5


class _ReferenceEvent:
    __slots__ = ("action", "cancelled")

    def __init__(self, action):
        self.action = action
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler(SimScheduler):
    """The plain model of the loop: one heap of ``(time, seq, event)``;
    a popped event runs unless it was cancelled, and only then counts."""

    def schedule(self, delay, action):
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} s in the past")
        return self.schedule_transient(delay, action)

    def schedule_transient(self, delay, action):
        event = _ReferenceEvent(action)
        heapq.heappush(self._heap, (self.clock._now + delay, next(self._seq), event))
        return event

    @staticmethod
    def cancel(event):
        event.cancel()

    def _wake(self, process, value=None):
        if process._gen is not None:
            process._sendval = value
            self.schedule_transient(0.0, process._step_cb)
        else:
            self.schedule_transient(0.0, process._grant_cb)

    def _run_loop(self, stop):
        heap = self._heap
        while heap and not (stop is not None and stop._done):
            time, _, event = heapq.heappop(heap)
            if not event.cancelled:
                if time != self.clock._now:
                    self.clock._jump_to(time)
                self._events_processed += 1
                event.action()


_OPS = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.25, 1.0])),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("fire"), st.integers(0, 1)),
    # A public timer; the second number, when drawn, is how long the
    # client sleeps before cancelling it: early, at the tie, or late.
    st.tuples(st.just("timer"), st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from([None, 0.0, 0.5, 2.0])),
    st.tuples(st.just("transfer"), st.integers(0, 40_000)),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
)


def _run_program(scheduler_cls, clients, fire_at, until):
    """Run one drawn program; return its action trace and transfer log."""
    clock = SimClock()
    link = Link(clock, bandwidth_mbps=1.0)
    events = [SimEvent(clock) for _ in fire_at]
    processes = []
    trace = []

    def note(*what):
        trace.append((*what, clock.now))

    def client(i, ops):
        for j, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield op[1]
            elif kind == "wait":
                yield from events[op[1]].wait_gen()
            elif kind == "fire":
                events[op[1]].fire()
            elif kind == "timer":
                timer = scheduler.schedule(op[1], functools.partial(note, "timer", i, j))
                if op[2] is not None:
                    yield op[2]
                    timer.cancel()
            elif kind == "transfer":
                try:
                    yield from link.transfer_gen(op[1], f"c{i}.{j}")
                except FetchCancelledError:
                    note("cancelled", i, j)
            else:
                victim = processes[op[1] % len(processes)]
                note("cancel_flows", i, j, link.cancel_flows(victim))
            note("step", i, j)

    with scheduler_cls(clock) as scheduler:
        for event, at in zip(events, fire_at):
            scheduler.schedule(at, event.fire)
        processes.extend(scheduler.spawn(client, i, ops) for i, ops in enumerate(clients))
        scheduler.run_until(processes[until % len(processes)])
        note("until", scheduler.events_processed)
        scheduler.run()
        note("end", scheduler.events_processed)
    return trace, list(link.log.records)


class TestQueueModel:
    """The entry queues against the plain single-heap model, on drawn
    programs of sleeps, wakes, timers and cancellable link flows."""

    @given(
        clients=st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=4),
        fire_at=st.tuples(*[st.sampled_from([0.0, 0.5, 3.0])] * 2),
        until=st.integers(0, 3),
    )
    # Two processes woken at one instant resume in the order they were
    # woken; a LIFO wake queue breaks this, and fixed draws may miss it.
    @example(clients=[[("wait", 0)], [("wait", 0)]], fire_at=(0.5, 0.0), until=0)
    @settings(deadline=None)
    def test_same_order_count_and_transfer_log(self, clients, fire_at, until):
        expected = _run_program(ReferenceScheduler, clients, fire_at, until)
        assert _run_program(SimScheduler, clients, fire_at, until) == expected


class TestDeferredAdvance:
    """Virtual-time debt: deferred advances settle before they can leak."""

    def test_deferred_advances_sum_like_immediate_ones(self):
        """debt + seconds uses the same float summation as two advances."""
        immediate = SimClock()
        immediate.advance(0.125, "a")
        immediate.advance(0.375, "b")
        deferred = SimClock()
        deferred.attach_tracer()
        deferred.advance_deferred(0.125, "a")
        assert deferred.now == 0.0  # accrued, not yet applied
        deferred.advance(0.375, "b")
        assert deferred.now == immediate.now
        assert [(e.at_s, e.name) for e in deferred.tracer.instants] == [(0.5, "a+b")]

    def test_settle_debt_applies_outstanding_debt(self):
        clock = SimClock()
        clock.advance_deferred(1.5, "meta")
        clock.settle_debt()
        assert clock.now == 1.5
        clock.settle_debt()  # no debt: a no-op
        assert clock.now == 1.5

    def test_negative_deferred_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance_deferred(-0.1)

    def test_process_debt_settles_before_event_fire_reaches_waiters(self):
        """A waiter must observe the firer's deferred time as elapsed."""
        clock = SimClock()
        seen = {}
        with SimScheduler(clock) as scheduler:
            event = SimEvent(clock)

            def producer():
                clock.advance(1.0, "work")
                clock.advance_deferred(0.25, "store")
                event.fire()

            def consumer():
                clock.drive(event.wait_gen())
                seen["at"] = clock.now

            scheduler.spawn(consumer, name="consumer")
            scheduler.spawn(producer, name="producer")
            scheduler.run()
        assert seen["at"] == 1.25

    def test_zero_waiter_fire_leaves_debt_for_next_advance(self):
        """With nobody waiting, debt rides through to the next advance."""
        clock = SimClock()
        clock.attach_tracer()
        with SimScheduler(clock) as scheduler:
            event = SimEvent(clock)

            def lone():
                clock.advance_deferred(0.25, "store")
                event.fire()  # no waiters: must not force a settle
                assert clock.now == 0.0
                clock.advance(0.75, "read")

            scheduler.spawn(lone, name="lone")
            scheduler.run()
        assert clock.now == 1.0
        assert (1.0, "store+read") in [(e.at_s, e.name) for e in clock.tracer.instants]

    def test_join_settles_spawner_debt(self):
        clock = SimClock()
        finished = {}
        with SimScheduler(clock) as scheduler:

            def child():
                finished["child_started"] = clock.now

            def parent():
                clock.advance_deferred(0.5, "meta")
                # spawn settles debt, so the child starts at 0.5
                handle = scheduler.spawn(child, name="child")
                clock.drive(awaiting(handle))

            scheduler.spawn(parent, name="parent")
            scheduler.run()
        assert finished["child_started"] == 0.5

    def test_process_finishing_with_debt_settles_it(self):
        clock = SimClock()
        with SimScheduler(clock) as scheduler:
            process = scheduler.spawn(
                lambda: clock.advance_deferred(0.25, "tail"), name="tail"
            )
            scheduler.run()
        assert process.finished_at == 0.25
        assert clock.now == 0.25


class TestClockCallsFromAGeneratorStep:
    """A generator step runs on the loop thread: clock calls made from it
    must still act on the process being stepped, never on the shared
    sequential clock."""

    def test_blocking_advance_from_a_step_names_the_process(self):
        """Used to move the *shared* clock to 6.0 for everyone; the run
        then died with "event at t=2.0 is in the past (now=6.0)"."""
        clock = SimClock()

        def culprit():
            yield 1.0
            clock.advance(5.0)

        def bystander():
            yield 2.0
            return clock.now

        with SimScheduler(clock) as scheduler:
            bad = scheduler.spawn(culprit, name="culprit")
            good = scheduler.spawn(bystander, name="bystander")
            with pytest.raises(SchedulerError, match="'culprit'.*yield"):
                scheduler.run()
        assert bad.finished_at == 1.0
        assert good.result == 2.0
        assert clock.now == 2.0

    def test_deferred_advance_from_a_step_accrues_to_the_process(self):
        """Used to land in the clock-global debt: the process finished at
        1.5 and the 3 s leaked into whatever advanced after close()."""
        clock = SimClock()
        seen = {}

        def worker():
            yield 1.0
            clock.advance_deferred(3.0, "store")
            seen["debt"] = (process._debt, clock._debt)
            yield 0.5  # folded as debt + seconds, the call-mode arithmetic
            return clock.now

        with SimScheduler(clock) as scheduler:
            process = scheduler.spawn(worker, name="worker")
            scheduler.run()
        assert seen["debt"] == (3.0, 0.0)
        assert process.result == process.finished_at == 1.0 + (3.0 + 0.5)
        clock.advance(1.0)  # nothing leaked into the sequential clock
        assert clock.now == 5.5

    def test_generator_returning_with_debt_settles_it(self):
        clock = SimClock()

        def worker():
            yield 1.0
            clock.advance_deferred(0.25, "tail")
            return "done"

        with SimScheduler(clock) as scheduler:
            process = scheduler.spawn(worker, name="worker")
            scheduler.run()
        assert (process.result, process.finished_at, clock.now) == ("done", 1.25, 1.25)

    def test_generator_twins_match_the_blocking_calls(self):
        """advance_gen / settle_gen / wait_gen / fire_gen stepped on the
        loop thread land where advance / settle_debt / wait / fire do."""

        def run(generator):
            clock = SimClock()
            clock.attach_tracer()
            marks = []
            with SimScheduler(clock) as scheduler:
                event = SimEvent(clock)

                def producer_call():
                    clock.advance_deferred(0.25, "store")
                    clock.advance(0.5, "work")
                    clock.advance_deferred(0.125, "meta")
                    clock.settle_debt()
                    marks.append(clock.now)
                    clock.advance_deferred(0.25, "late")
                    event.fire()

                def producer_gen():
                    clock.advance_deferred(0.25, "store")
                    yield from clock.advance_gen(0.5, "work")
                    clock.advance_deferred(0.125, "meta")
                    yield from clock.settle_gen()
                    marks.append(clock.now)
                    clock.advance_deferred(0.25, "late")
                    yield from event.fire_gen()

                def consumer_call():
                    clock.drive(event.wait_gen())
                    marks.append(clock.now)

                def consumer_gen():
                    yield from event.wait_gen()
                    marks.append(clock.now)

                scheduler.spawn(consumer_gen if generator else consumer_call)
                scheduler.spawn(producer_gen if generator else producer_call)
                scheduler.run()
                return marks, [(e.at_s, e.name) for e in clock.tracer.instants], scheduler.events_processed

        assert run(generator=True) == run(generator=False)
        assert run(generator=True)[0] == [0.875, 1.125]

    @pytest.mark.parametrize("blocking", ["wait", "join", "transfer"])
    def test_other_blocking_calls_from_a_step_are_refused(self, blocking):
        from repro.net.link import Link

        clock = SimClock()
        link = Link(clock)

        def sleeper():
            yield 5.0

        def culprit(other):
            yield 1.0
            if blocking == "wait":
                clock.drive(SimEvent(clock).wait_gen())
            elif blocking == "join":
                clock.drive(awaiting(other))
            else:
                link.transfer(1000)

        with SimScheduler(clock) as scheduler:
            other = scheduler.spawn(sleeper, name="sleeper")
            scheduler.spawn(culprit, other, name="culprit")
            with pytest.raises(SchedulerError, match="'culprit'.*yield"):
                scheduler.run()
        assert clock.now == 5.0  # the sleeper still ran to its end


# -- sequential-equivalence goldens --------------------------------------


def _deploy_pair(testbed, generated):
    docker = deploy_with_docker(testbed.fresh_client(), generated)
    gear = deploy_with_gear(testbed.fresh_client(), generated)
    return docker, gear


def _publish(bed, small_corpus):
    publish_images(bed, small_corpus.images, convert=True)


@pytest.mark.parametrize("bandwidth", FIG9_BANDWIDTHS)
def test_golden_single_process_matches_sequential(small_corpus, bandwidth):
    """One scheduler process replays the seed model byte-identically."""
    generated = image_of(small_corpus, "tomcat:v1")

    sequential = make_testbed(bandwidth_mbps=bandwidth)
    _publish(sequential, small_corpus)
    mark = sequential.clock.now
    seq_docker, seq_gear = _deploy_pair(sequential, generated)

    scheduled = make_testbed(bandwidth_mbps=bandwidth)
    _publish(scheduled, small_corpus)
    assert scheduled.clock.now == mark
    with SimScheduler(scheduled.clock) as scheduler:
        process = scheduler.spawn(
            _deploy_pair, scheduled, generated, name="deploys"
        )
        sch_docker, sch_gear = scheduler.run_until(process).result

    # Bit-exact equality — not approx: the flow model must degenerate to
    # the seed formula when a transfer never shares the link.
    assert scheduled.clock.now == sequential.clock.now
    assert sch_docker == seq_docker
    assert sch_gear == seq_gear
    assert scheduled.link.log.records == sequential.link.log.records
    assert scheduled.link.log.total_bytes == sequential.link.log.total_bytes


def test_golden_matches_sequential_under_fault_plan(small_corpus):
    """Retry/backoff/outage paths are schedulable without drift."""
    plan = FaultPlan(
        seed="golden-faults",
        drop_rate=0.12,
        corrupt_rate=0.05,
        outages=(OutageWindow(start_s=1.0, duration_s=2.0),),
        targets=("gear-registry",),
    )
    generated = image_of(small_corpus, "nginx:v1")

    def run(bed):
        bed.arm_faults()
        return deploy_with_gear(bed.fresh_client(), generated)

    sequential = make_testbed(bandwidth_mbps=20, fault_plan=plan)
    _publish(sequential, small_corpus)
    seq_result = run(sequential)

    scheduled = make_testbed(bandwidth_mbps=20, fault_plan=plan)
    _publish(scheduled, small_corpus)
    with SimScheduler(scheduled.clock) as scheduler:
        process = scheduler.spawn(run, scheduled, name="faulty-deploy")
        sch_result = scheduler.run_until(process).result

    assert seq_result.retries > 0  # the plan actually bit
    assert sch_result == seq_result
    assert scheduled.clock.now == sequential.clock.now
    assert scheduled.link.log.records == sequential.link.log.records
