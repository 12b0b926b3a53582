"""The reference kernel: a pure binary-heap event loop.

:class:`ReferenceSimulator` is the differential-testing oracle for the
calendar-queue production kernel (:class:`~repro.sim.kernel.Simulator`).
It keeps the exact queue discipline the repository shipped before the
calendar-queue rewrite: one binary heap ordered by ``(time, seq)``, one
event popped and dispatched per loop iteration, every bound
(``until``, ``max_events``, ``limit_ns``, deadlock) checked per event.
Its :meth:`~ReferenceSimulator.run` and
:meth:`~ReferenceSimulator.run_until_done` are separate loops, each
calling the kernel hooks once around the call, once per event and
once per move of the clock, as the production kernel's single loop does;
a join raises ``TimeoutError`` before dispatching any event later than
``limit_ns``.

Its heap entry is ``(time, seq, fn, args)``, and this class keeps the
``seq`` counter: the production kernel's entry is ``(fn, args)``, whose
time and order are its place in the instant's list or a bucket.
Because both kernels share :class:`~repro.sim.kernel.Process`,
:class:`~repro.sim.kernel.Future` and the (time, insertion-order)
total order, any ordering divergence between them is a bug in the
production kernel's buckets or instant list — which is precisely what
``tests/sim/test_kernel_equivalence.py`` exploits: the same workload is
run under both and the dispatch sequences must match byte for byte.

Every producer files an event through :meth:`Simulator._post`, and
this class overrides it to push onto the heap, so nothing ever writes
the production kernel's instant list or buckets here: the heap is the
whole queue.

No instant collection happens anywhere: this file must stay a
pop-one-dispatch-one loop.  Do not "optimise" it to share code with
the production kernel — its value is being independent of the code it
checks.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.kernel import (
    Process,
    SimulationDeadlock,
    Simulator,
    check_run_bounds,
    collector_paused,
)

#: A queued event: ``fn(*args)`` runs at ``time``, and the globally
#: unique ``seq`` orders events that share a time.
_Entry = Tuple[int, int, Callable[..., None], Tuple[Any, ...]]


class ReferenceSimulator(Simulator):
    """Single-heap, per-event-dispatch oracle kernel.

    API-identical to :class:`Simulator`; selected through
    ``ClusterConfig(kernel="reference")`` or
    :func:`repro.sim.make_simulator`.
    """

    def __init__(self) -> None:
        super().__init__()
        #: The whole queue: one binary heap of ``(time, seq, fn, args)``.
        self._heap: List[_Entry] = []
        self._seq = 0

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    # -- scheduling -------------------------------------------------------

    def _post(self, delay: int, fn: Callable[..., None],
              args: Tuple[Any, ...] = ()) -> None:
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        _heappush(self._heap, (time, seq, fn, args))
        if self.hooks is not None:
            self.hooks.on_schedule(self, time, fn)

    # -- execution --------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        check_run_bounds("until", until, max_events)
        hooks = self.hooks
        heap = self._heap
        executed = 0
        with collector_paused():
            if hooks is not None:
                hooks.on_run_start(self)
            try:
                while True:
                    if not heap:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    time = heap[0][0]
                    if until is not None and time > until:
                        break
                    _time, _seq, fn, args = _heappop(heap)
                    if hooks is not None and time != self.now:
                        hooks.on_advance(self, self.now, time)
                    self.now = time
                    fn(*args)
                    executed += 1
                    if hooks is not None:
                        hooks.on_execute(self, time, fn)
                    if self._failures:
                        self._raise_failure()
            finally:
                if hooks is not None:
                    hooks.on_run_end(self, executed)
                self.events_executed += executed
        if (until is not None and self.now < until
                and not (heap and heap[0][0] <= until)):
            if hooks is not None:
                hooks.on_advance(self, self.now, until)
            self.now = until
        return executed

    def run_until_done(
        self, processes: Iterable[Process], limit_ns: Optional[int] = None
    ) -> None:
        check_run_bounds("limit_ns", limit_ns)
        targets = list(processes)
        pending = [0]

        def _one_done(value: Any, exception: Optional[BaseException],
                      _pending: List[int] = pending) -> None:
            _pending[0] -= 1

        for p in targets:
            if not p.done:
                pending[0] += 1
                p.add_callback(_one_done)

        hooks = self.hooks
        heap = self._heap
        executed = 0
        with collector_paused():
            if hooks is not None:
                hooks.on_run_start(self)
            try:
                while pending[0]:
                    if not heap:
                        raise SimulationDeadlock(
                            [p for p in targets if not p.done])
                    time, _seq, fn, args = heap[0]
                    if limit_ns is not None and time > limit_ns:
                        self._raise_run_timeout(targets)
                    _heappop(heap)
                    if hooks is not None and time != self.now:
                        hooks.on_advance(self, self.now, time)
                    self.now = time
                    fn(*args)
                    executed += 1
                    if hooks is not None:
                        hooks.on_execute(self, time, fn)
                    if self._failures:
                        self._raise_failure()
            finally:
                if hooks is not None:
                    hooks.on_run_end(self, executed)
                self.events_executed += executed
