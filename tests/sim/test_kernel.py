"""Unit tests for the discrete-event kernel."""

import re

import pytest

from repro.sim import (
    KERNELS,
    Future,
    SimulationDeadlock,
    Simulator,
    Timer,
    make_simulator,
)


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    assert sim.schedule(30, seen.append, "c") is None  # no handle
    sim.schedule(10, seen.append, "a")
    sim.schedule(20, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_run_in_insertion_order():
    sim = Simulator()
    seen = []
    for tag in range(8):
        sim.schedule(5, seen.append, tag)
    sim.run()
    assert seen == list(range(8))


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)
    with pytest.raises(ValueError):
        Timer(sim, lambda: None).start(-1)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "delay", [2.5, True, None], ids=["float", "bool", "None"])
def test_schedule_rejects_non_int_delay(kernel, delay):
    """A float is not truncated and a bool is not read as 1 ns: both
    kernels refuse anything but an int, naming the value, whether it
    is an event's delay or a timer's."""
    sim = make_simulator(kernel)
    with pytest.raises(TypeError, match=re.escape(repr(delay))):
        sim.schedule(delay, lambda: None)
    with pytest.raises(TypeError, match=re.escape(repr(delay))):
        Timer(sim, lambda: None).start(delay)
    assert sim.pending_events == 0


def _five_events(kernel):
    sim = make_simulator(kernel)
    for _ in range(5):
        sim.schedule(1, lambda: None)
    return sim


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("bound", [2.5, True], ids=["float", "bool"])
def test_run_rejects_non_int_bounds(kernel, bound):
    """A run's bounds are checked as a delay is: ``until`` and
    ``limit_ns`` are ``None`` or an int, so no bound makes the clock a
    float, and ``max_events`` is ``None`` or an int that both kernels
    read alike.  A refused run executes nothing."""
    sim = _five_events(kernel)
    with pytest.raises(TypeError, match=re.escape(repr(bound))):
        sim.run(until=bound)
    with pytest.raises(TypeError, match=re.escape(repr(bound))):
        sim.run(max_events=bound)
    with pytest.raises(TypeError, match=re.escape(repr(bound))):
        sim.run_until_done([], limit_ns=bound)
    assert (sim.now, sim.events_executed, sim.pending_events) == (0, 0, 5)


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_rejects_negative_max_events(kernel):
    sim = _five_events(kernel)
    with pytest.raises(ValueError, match="-1"):
        sim.run(max_events=-1)
    assert (sim.events_executed, sim.pending_events) == (0, 5)
    assert sim.run(max_events=0) == 0
    assert sim.run(max_events=2) == 2


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(10, seen.append, "early")
    sim.schedule(100, seen.append, "late")
    sim.run(until=50)
    assert seen == ["early"]
    assert sim.now == 50
    sim.run()
    assert seen == ["early", "late"]


def test_run_max_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(i, seen.append, i)
    executed = sim.run(max_events=3)
    assert executed == 3
    assert seen == [0, 1, 2]


def test_process_delays_advance_time():
    sim = Simulator()
    marks = []

    def body():
        marks.append(sim.now)
        yield 100
        marks.append(sim.now)
        yield 50
        marks.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert marks == [0, 100, 150]


def test_process_returns_value_via_join():
    sim = Simulator()

    def child():
        yield 10
        return 42

    def parent():
        result = yield sim.spawn(child(), name="child")
        return result

    proc = sim.spawn(parent(), name="parent")
    sim.run()
    assert proc.done
    assert proc.value == 42


def test_shared_waitables_resume_each_waiter_once_in_order():
    """One waiter list may hold several processes, and a process's
    list may mix a plain callback (``run_until_done``'s) with a joining
    process: each waiter resumes exactly once, in registration order."""
    sim = Simulator()
    future = Future()
    log = []

    def waiter(tag):
        value = yield future
        log.append((tag, sim.now, value))

    def child():
        yield 10
        return "child-done"

    def joiner():
        value = yield child_proc
        log.append(("joiner", sim.now, value))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.schedule(5, future.set_result, "hello")
    child_proc = sim.spawn(child(), name="child")
    sim.spawn(joiner(), name="joiner")
    # Registers its callback before the joiner's first step runs.
    sim.run_until_done([child_proc])
    assert log == [("a", 5, "hello"), ("b", 5, "hello")]
    # The join stopped at the event that finished the child; the
    # joiner's resumption is queued behind it, not yet run.
    assert (sim.now, sim.pending_events) == (10, 1)
    sim.run()
    assert log == [("a", 5, "hello"), ("b", 5, "hello"),
                   ("joiner", 10, "child-done")]
    assert sim.pending_events == 0


def test_future_resolution_wakes_process_with_value():
    sim = Simulator()
    future = Future()
    got = []

    def waiter():
        value = yield future
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.schedule(77, future.set_result, "hello")
    sim.run()
    assert got == [(77, "hello")]


def test_future_exception_propagates_into_process():
    sim = Simulator()
    future = Future()
    caught = []

    def waiter():
        try:
            yield future
        except ValueError as err:
            caught.append(str(err))

    sim.spawn(waiter())
    sim.schedule(5, future.set_exception, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_yielding_already_resolved_future_resumes_immediately():
    sim = Simulator()
    future = Future()
    future.set_result("ready")
    got = []

    def waiter():
        got.append((yield future))

    sim.spawn(waiter())
    sim.run()
    assert got == ["ready"]
    assert sim.now == 0


def test_process_failure_is_reported_by_run():
    sim = Simulator()

    def bad():
        yield 1
        raise RuntimeError("kaboom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(RuntimeError):
        sim.run()


def test_process_failure_recorded_in_failures():
    sim = Simulator()

    def bad():
        yield 1
        raise KeyError("kaboom")

    proc = sim.spawn(bad(), name="bad")
    with pytest.raises(RuntimeError, match="'bad' failed at t=1ns") as info:
        sim.run()
    assert proc.done
    assert sim.failures == [(proc, proc.exception)]
    assert info.value.__cause__ is proc.exception
    assert isinstance(proc.exception, KeyError)


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "command", [object(), 2.5, True, None],
    ids=["object", "float", "bool", "None"])
def test_yielding_garbage_fails_the_process(command):
    """Only a non-negative int or a Waitable is a command: the kernel
    neither truncates a float nor reads a bool or ``None`` as a
    delay."""
    sim = Simulator()
    resumed = []

    def bad():
        yield command
        resumed.append(sim.now)

    proc = sim.spawn(bad(), name="bad")
    with pytest.raises(RuntimeError, match="failed") as info:
        sim.run()
    assert proc.done
    assert info.value.__cause__ is proc.exception
    assert isinstance(proc.exception, TypeError)
    assert "bad" in str(proc.exception)
    assert repr(command) in str(proc.exception)
    assert resumed == []


def test_negative_delay_fails_the_process():
    sim = Simulator()

    def bad():
        yield -5

    proc = sim.spawn(bad(), name="bad")
    with pytest.raises(RuntimeError, match="failed") as info:
        sim.run()
    assert info.value.__cause__ is proc.exception
    assert isinstance(proc.exception, ValueError)


def test_run_until_done_raises_deadlock_when_heap_drains():
    sim = Simulator()
    future = Future()  # never resolved

    def stuck():
        yield future

    proc = sim.spawn(stuck(), name="stuck")
    with pytest.raises(SimulationDeadlock):
        sim.run_until_done([proc])


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(tag, period):
        for _ in range(3):
            yield period
            order.append((sim.now, tag))

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 15))
    sim.run()
    # At t=30 both wake; "b" scheduled its wakeup first (at t=15, vs
    # "a" at t=20), so insertion order puts "b" first — deterministic.
    assert order == [
        (10, "a"),
        (15, "b"),
        (20, "a"),
        (30, "b"),
        (30, "a"),
        (45, "b"),
    ]


def test_yield_zero_is_cooperative_reschedule():
    sim = Simulator()
    order = []

    def one():
        order.append("one-start")
        yield 0
        order.append("one-end")

    def two():
        order.append("two-start")
        yield 0
        order.append("two-end")

    sim.spawn(one())
    sim.spawn(two())
    sim.run()
    assert order == ["one-start", "two-start", "one-end", "two-end"]


def test_waitable_value_raises_before_completion():
    future = Future()
    with pytest.raises(RuntimeError):
        _ = future.value


def test_future_double_completion_rejected():
    future = Future()
    future.set_result(1)
    with pytest.raises(RuntimeError):
        future.set_result(2)
