"""The discrete-event simulation kernel.

Time is an integer number of **nanoseconds**.  Callbacks are
scheduled at absolute times and run in (time, insertion-order) order,
so simulations are fully deterministic.

Processes are Python generators.  A process yields one of two
commands:

- a non-negative ``int`` — resume after that many nanoseconds (``0``
  resumes on the next scheduler pass at the same time, a cooperative
  yield point);
- a :class:`Waitable` — resume when it completes, receiving its value
  as the result of the ``yield`` expression: a :class:`Future`, or
  another :class:`Process` (its return value).

Anything else fails the process: a negative ``int`` with
``ValueError``, any other value (``None``, a ``float``, a ``bool``)
with ``TypeError``.  If a waitable fails with an exception, the
exception is thrown *into* the waiting generator at the ``yield``.
Nothing else ever resumes a process: the kernel has no interrupts.
CPU preemption is modelled between operations by the machine model
(``repro.machine.cpu.CPU.switch_to``), where the hardware takes it.

Fast-path design (see DESIGN.md, "Kernel internals"):

- A queued entry is ``(fn, args)``: it holds neither its time nor a
  sequence number, because its place says both.  Every queued event
  at time ``now`` is in one list, the **current instant's list**
  (``_now_list``); a delay-0 post appends to it.  Every later event
  waits in a calendar of per-timestamp buckets (``{time: [entry,
  ...]}`` plus a min-heap of the *distinct* times): the common
  FIFO-link insert at ``now + link_ns`` costs a dict hit and a list
  append, and N events sharing a timestamp cost one time-heap push.
- One method files an event: :meth:`Simulator._post`, unvalidated,
  for every wake-up (a process's start, its ``yield ns`` and its
  yield of a completed waitable, a completed waitable's waiters),
  every fabric step and every :class:`~repro.sim.timers.Timer`
  expiry, and, after checking the delay, for
  :meth:`Simulator.schedule`.  A post only appends, to the instant's
  list or its time's bucket, so a list's order is the order of the
  posts that filled it: the kernel keeps the exact (time,
  insertion-order) order of a pure heap keyed by ``(time, seq)`` —
  :mod:`repro.sim.refkernel` is that pure heap, the one place a
  ``seq`` lives, kept as a differential reference
  (``tests/sim/test_kernel_equivalence.py``).  Nothing else touches
  the queue, so a kernel that overrides ``_post`` owns it.
- Nothing is cancelled, so the queue holds one kind of entry and the
  run loop tests none (a :class:`~repro.sim.timers.Timer` leaves a
  superseded expiry to fire as a no-op).
- One run loop serves :meth:`Simulator.run` and
  :meth:`Simulator.run_until_done`, with or without bounds or hooks.
  Each pass drains the current instant's list **in place**: an event
  posted at delay 0 during the pass is appended to the list the
  loop's ``for`` is walking, so it runs in the same pass, after every
  event posted before it.  When the list is empty, the earliest
  bucket becomes the list.  A pass adds its events to the executed
  count once, when it ends.
- Both kernels run with CPython's cyclic garbage collector paused
  (:func:`collector_paused`): a run makes no cyclic garbage, so its
  passes would find nothing.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

_WaiterCallback = Callable[[Any, Optional[BaseException]], None]


def check_run_bounds(name: str, bound: Optional[int],
                     max_events: Optional[int] = None) -> None:
    """Check a run's bounds, for both kernels, as :meth:`Simulator.schedule`
    checks a delay: the time bound ``name`` (``until`` or ``limit_ns``)
    is ``None`` or an ``int`` (a ``bool`` is not), so the clock stays an
    ``int``, and ``max_events`` is ``None`` or a non-negative ``int``."""
    if bound is not None and type(bound) is not int:
        raise TypeError(f"{name} must be None or an int, got {bound!r}")
    if max_events is not None and type(max_events) is not int:
        raise TypeError(f"max_events must be None or an int, got {max_events!r}")
    if max_events is not None and max_events < 0:
        raise ValueError(f"max_events must be non-negative, got {max_events!r}")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector for the ``with`` block.

    A cluster's build makes tens of thousands of objects, linked in
    cycles that live as long as the cluster, and neither the build nor
    a run makes cyclic garbage, so the collector's passes find nothing
    (DESIGN.md §7, "Collector passes").  The collector is disabled only
    if it was enabled, and re-enabled on the way out however the block
    ends: a caller who disabled it keeps it disabled, and a run that
    raises still restores it.  Nothing is frozen: a dropped cluster is
    one cycle graph, reclaimed by the next full collection.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class SimulationDeadlock(RuntimeError):
    """Raised by :meth:`Simulator.run_until_done` when the event queue
    drains while a process it waits for is still blocked.

    This is how lost-acknowledgement and buffer-cycle bugs surface in
    tests: the simulation simply stops with someone still waiting.
    """

    def __init__(self, blocked: List["Process"]):
        names = ", ".join(p.name for p in blocked) or "<unknown>"
        super().__init__(f"simulation deadlock; blocked processes: {names}")
        self.blocked = blocked


class Waitable:
    """Base class for things a process may ``yield`` on.

    A waitable either *is already complete* (``done``) or will invoke
    its callbacks exactly once on completion, passing
    ``(value, exception)`` where exactly one is meaningful.

    The callback list is lazy (``None`` until the first waiter) so the
    many waitables that complete unobserved, or are yielded on exactly
    once, never allocate it.  A waiting process is stored as itself,
    not as a closure; anything else in the list is a plain
    ``fn(value, exception)`` callback.
    """

    __slots__ = ("_callbacks", "_done", "_value", "_exception")

    def __init__(self) -> None:
        self._callbacks: Optional[List[Any]] = None
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("waitable is not complete")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def add_callback(self, fn: _WaiterCallback) -> None:
        """Register ``fn(value, exception)``; fires immediately if done."""
        if self._done:
            fn(self._value, self._exception)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _complete(self, value: Any, exception: Optional[BaseException]) -> None:
        """Complete once and wake every waiter: a waiting process
        through its simulator's :meth:`Simulator._post` at delay 0, a
        plain callback by calling it at once."""
        if self._done:
            raise RuntimeError("waitable completed twice")
        self._done = True
        self._value = value
        self._exception = exception
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for cb in callbacks:
                if type(cb) is Process:
                    cb.sim._post(0, cb._step, (value, exception))
                else:
                    cb(value, exception)


class Future(Waitable):
    """A one-shot completion token.

    Created by a responder (e.g. the HIB, for a blocking read) and
    yielded on by the requester.  Resolve with :meth:`set_result` or
    :meth:`set_exception`; both complete through
    :meth:`Waitable._complete`.
    """

    __slots__ = ()

    def set_result(self, value: Any = None) -> None:
        self._complete(value, None)

    def set_exception(self, exception: BaseException) -> None:
        self._complete(None, exception)


ProcessBody = Generator[Any, Any, Any]


class Process(Waitable):
    """A generator-coroutine simulation process.

    Completes (as a :class:`Waitable`) with the generator's return
    value, so processes can be joined: ``result = yield proc``.
    """

    __slots__ = ("sim", "name", "_gen")

    def __init__(self, sim: "Simulator", gen: ProcessBody, name: str = "proc"):
        super().__init__()
        if not hasattr(gen, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        self.sim = sim
        self.name = name
        self._gen = gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {'done' if self._done else 'live'}>"

    def _step(self, value: Any, exception: Optional[BaseException]) -> None:
        # Every step of a process runs here: its start, and its
        # resumption after every ``yield ns`` and waitable completion.
        # Resumption goes through the scheduler (delay 0) rather than
        # re-entering the generator directly: keeps stacks shallow and
        # ordering deterministic when many waiters complete at the same
        # instant.  A live process has exactly one pending step (its
        # start, a delay, or one waiter record) and a finished one none.
        #
        # This is the hot path, so the send and the command dispatch
        # are fused into one frame.
        gen = self._gen
        try:
            if exception is not None:
                command = gen.throw(exception)
            else:
                command = gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Exception as err:
            self._finish(None, err)
            return
        if type(command) is int and command >= 0:
            self.sim._post(command, self._step, (None, None))
        elif isinstance(command, Waitable):
            if command._done:
                # Already complete (say, a queue put with room): resume
                # at ``now`` without registering as a waiter.
                self.sim._post(0, self._step,
                               (command._value, command._exception))
            else:
                callbacks = command._callbacks
                if callbacks is None:
                    command._callbacks = [self]
                else:
                    callbacks.append(self)
        else:
            self._reject(command)

    def _reject(self, command: Any) -> None:
        """Fail the process for a command that is neither a
        non-negative ``int`` nor a :class:`Waitable`."""
        error: Exception
        if type(command) is int:
            error = ValueError(
                f"negative delay {command!r} yielded by {self.name}")
        else:
            error = TypeError(
                f"process {self.name} yielded unsupported command "
                f"{command!r}; yield a non-negative int delay, Future, "
                "or Process")
        self._finish(None, error)

    def _finish(self, value: Any, exception: Optional[BaseException]) -> None:
        self.sim._live_processes.discard(self)
        if exception is not None:
            self.sim._note_failure(self, exception)
        self._complete(value, exception)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        proc = sim.spawn(my_generator(), name="writer")
        sim.run()
        assert proc.done

    ``run`` drains the event queue (optionally bounded by ``until`` in
    nanoseconds or ``max_events``); :meth:`run_until_done` runs until
    given processes finish, raising :class:`SimulationDeadlock` if the
    queue drains first.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: The current instant's list: every queued event at ``now``, as
        #: ``(fn, args)`` in post order.  The run loop drains it in
        #: place and, once it is empty, rebinds it to the next
        #: instant's bucket.
        self._now_list: list = []
        #: Every later event: per-timestamp buckets of ``(fn, args)``,
        #: each in post order, plus a min-heap of the distinct bucket
        #: times.  Invariant: ``_times`` holds exactly the keys of
        #: ``_buckets``, each once, and every key is later than ``now``.
        self._buckets: dict = {}
        self._times: List[int] = []
        #: Every spawned, unfinished process.  Nothing reads it: it
        #: keeps a blocked process alive until it finishes, so the
        #: garbage collector never closes a suspended generator in the
        #: middle of a run (its ``finally`` blocks may post events).
        self._live_processes: set = set()
        self._failures: List[Tuple[Process, BaseException]] = []
        #: Total events executed over the simulator's lifetime (the
        #: benchmark harness's work measure).
        self.events_executed: int = 0
        #: Optional :class:`~repro.obs.hooks.KernelHooks`; ``None``
        #: keeps the hot loop free of per-event hook tests.
        self.hooks: Optional[Any] = None

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None],
                 *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` nanoseconds: :meth:`_post`
        with ``delay`` checked as a process's delay command is (a
        non-negative ``int``; nothing is truncated, a ``bool`` is not a
        delay).  No event can be retracted; an action that may be
        called off is a :class:`~repro.sim.timers.Timer`."""
        if type(delay) is not int:
            raise TypeError(
                f"schedule delay must be a non-negative int, got {delay!r}")
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._post(delay, fn, args)

    def _post(self, delay: int, fn: Callable[..., None],
              args: Tuple[Any, ...] = ()) -> None:
        """File an event, unvalidated: the one way an event enters the
        queue, for internal steps whose delay is known non-negative
        (process resumptions, fabric steps, timer expiries) and, once
        checked, :meth:`schedule`.  The entry ``(fn, args)`` appends to
        the instant's list or its time's bucket, behind every event
        posted there before it: a dict hit and a list append, and only
        the first event at a new timestamp pays a (time-heap) push."""
        if delay == 0:
            self._now_list.append((fn, args))
        else:
            time = self.now + delay
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [(fn, args)]
                heappush(self._times, time)
            else:
                bucket.append((fn, args))
        if self.hooks is not None:
            self.hooks.on_schedule(self, self.now + delay, fn)

    def spawn(self, gen: ProcessBody, name: str = "proc") -> Process:
        """Create a process from a generator and start it immediately
        (its first step runs at the current simulation time)."""
        process = Process(self, gen, name=name)
        self._live_processes.add(process)
        self._post(0, process._step, (None, None))
        return process

    # -- queue introspection ----------------------------------------------

    @property
    def pending_events(self) -> int:
        """Events waiting in the queue, timer expiries that will fire as
        no-ops included.  Exact between runs and when a run starts (where
        :class:`~repro.obs.EventLoopProfiler` reads it); while a run
        drains an instant, the events it already ran there still count."""
        return len(self._now_list) + sum(map(len, self._buckets.values()))

    # -- execution ---------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains (or a bound is hit).

        Returns the number of events executed.  With ``until``, events
        at times ``<= until`` run and ``now`` advances to ``until``
        unless ``max_events`` stopped the run with one of them still
        queued: the clock never passes a pending event.  Both bounds
        are checked by :func:`check_run_bounds`.
        """
        check_run_bounds("until", until, max_events)
        with collector_paused():
            executed = self._run_loop(until, max_events, [1])
        if (until is not None and self.now < until and not self._now_list
                and not (self._times and self._times[0] <= until)):
            if self.hooks is not None:
                self.hooks.on_advance(self, self.now, until)
            self.now = until
        return executed

    def run_until_done(
        self, processes: Iterable[Process], limit_ns: Optional[int] = None
    ) -> None:
        """Run until every process in ``processes`` has completed.

        Raises :class:`SimulationDeadlock` if the queue drains first, or
        ``TimeoutError`` if the next event lies beyond ``limit_ns``:
        no event later than ``limit_ns`` runs, so afterwards ``now <=
        limit_ns`` and every later event is still queued.  Stops
        exactly at the event that completes the last process (no
        further events run, ``now`` stays at that event's time).
        """
        check_run_bounds("limit_ns", limit_ns)
        targets = list(processes)
        # Count outstanding completions with a cell updated by the
        # waitables themselves, so the run loop's stop test is one
        # integer check instead of an all(p.done) scan per event.
        pending = [0]

        def _one_done(value: Any, exception: Optional[BaseException],
                      _pending: List[int] = pending) -> None:
            _pending[0] -= 1

        for p in targets:
            if not p.done:
                pending[0] += 1
                p.add_callback(_one_done)

        with collector_paused():
            self._run_loop(limit_ns, None, pending)
        if pending[0]:
            if self._buckets or self._now_list:
                # The loop stopped at the limit with events queued.
                self._raise_run_timeout(targets)
            raise SimulationDeadlock([p for p in targets if not p.done])

    def _raise_run_timeout(self, targets: List[Process]) -> None:
        waiting = ", ".join(p.name for p in targets if not p.done)
        raise TimeoutError(
            f"processes still running at t={self.now}ns: {waiting}"
        )

    def _run_loop(self, until: Optional[int], max_events: Optional[int],
                  pending: List[int]) -> int:
        """The loop behind :meth:`run` and :meth:`run_until_done`;
        returns the events executed.  Each pass drains the current
        instant's list in place, delay-0 posts made during it included,
        then takes the next instant as the list.  It stops before an
        instant later than ``until`` (left queued), when the queue
        drains, after ``max_events`` events, or once ``pending[0]``
        reaches zero; the last two, and an exception, leave the rest of
        the instant in the list at ``now`` for the next run.  Each pass
        adds its events to the count once, as it ends: a process
        failure, a ``max_events`` stop and a completed join count the
        event that stopped the run, and a callback that raises is
        consumed but not counted.
        """
        times = self._times
        buckets = self._buckets
        now_list = self._now_list
        failures = self._failures
        hooks = self.hooks
        stop_at = -1 if max_events is None else max_events
        executed = 0
        if hooks is not None:
            hooks.on_run_start(self)
        try:
            while pending[0] and executed != stop_at:
                if not now_list:
                    if not times:
                        break
                    time = times[0]
                    if until is not None and time > until:
                        break
                    heappop(times)
                    now_list = self._now_list = buckets.pop(time)
                    if hooks is not None:
                        hooks.on_advance(self, self.now, time)
                    self.now = time
                elif until is not None and self.now > until:
                    break
                # Entries consumed: deleted and counted once per pass,
                # whatever ends it.
                i = 0
                left = stop_at - executed
                try:
                    for fn, args in now_list:
                        i += 1
                        try:
                            fn(*args)
                        except BaseException:
                            executed -= 1  # consumed, not counted
                            raise
                        if hooks is not None:
                            hooks.on_execute(self, self.now, fn)
                        if failures:
                            self._raise_failure()
                        if i == left or not pending[0]:
                            break
                finally:
                    del now_list[:i]
                    executed += i
        finally:
            if hooks is not None:
                hooks.on_run_end(self, executed)
            self.events_executed += executed
        return executed

    def _raise_failure(self) -> None:
        process, error = self._failures[0]
        raise RuntimeError(
            f"process {process.name!r} failed at t={self.now}ns"
        ) from error

    # -- failure bookkeeping ------------------------------------------------

    def _note_failure(self, process: Process, error: BaseException) -> None:
        self._failures.append((process, error))

    @property
    def failures(self) -> List[Tuple[Process, BaseException]]:
        return list(self._failures)
