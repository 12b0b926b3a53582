"""Directed tests of :class:`repro.sim.Timer`, on both kernels.

The timer is a cancel-and-reschedule timer without the cancel: every
``start`` posts its expiry with ``_post``, under the newest ``seq``,
and a generation count turns every superseded or cancelled expiry into
a no-op.  So each callback runs under exactly the ``(time, seq)`` key a
cancelling timer's event would take, and in the same order relative to
every other event.  The exactness test pins that key where it is
easiest to get wrong, a re-arm to a later deadline, and catches the
plain re-post (one pending expiry per timer, re-posted for the
remaining time under a fresh ``seq`` when it fires early); a whole
faulty cluster tells the plain re-post apart too.
"""

from __future__ import annotations

import pytest

import repro.hib.reliable as reliable_module
from repro.sim import Timer
from tests.kernels import KERNELS
from tests.network.test_link_equivalence import run_cluster


class PlainRepostTimer(Timer):
    """The mutant, the plain re-post: at most one pending expiry.  A
    re-arm to a later deadline leaves it in place; it fires early and
    re-posts itself for the remaining time under a fresh ``seq``, not
    under the one the re-arm would have taken."""

    __slots__ = ("_pending",)

    def __init__(self, sim, callback, name="timer"):
        super().__init__(sim, callback, name)
        #: Time of the one expiry that may act, or ``None``.
        self._pending = None

    def start(self, delay_ns: int) -> None:
        deadline = self.sim.now + delay_ns
        if self._pending is not None and deadline > self._pending:
            self._deadline = deadline
        else:
            super().start(delay_ns)
            self._pending = deadline

    def cancel(self) -> None:
        super().cancel()
        self._pending = None

    def _fire(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._pending = None
        deadline = self._deadline
        if deadline is not None and deadline > self.sim.now:
            self._pending = deadline
            self.sim._post(deadline - self.sim.now, self._fire, (generation,))
        else:
            super()._fire(generation)


def rearm_log(kernel: str, timer_class=Timer):
    """A timer re-armed to a later deadline, between two posts to that
    time.  At t=0 the timer starts for t=50 and Y is posted for t=100;
    at t=20 the timer restarts for t=100; at t=30 Z is posted for
    t=100.  The expiry takes its key at the re-arm, so it must run
    between Y and Z."""
    sim = KERNELS[kernel]()
    log = []

    def note(tag):
        log.append((sim.now, tag))

    timer = timer_class(sim, lambda: note("timer"))
    timer.start(50)
    sim._post(100, note, ("Y",))
    sim._post(20, timer.start, (80,))
    sim._post(30, sim._post, (70, note, ("Z",)))
    sim.run()
    return log


@pytest.mark.parametrize("kernel", KERNELS)
def test_later_expiry_sorts_between_posts_to_its_time(kernel):
    assert rearm_log(kernel) == [(100, "Y"), (100, "timer"), (100, "Z")]
    # The plain re-post keys the expiry when it fires early, at t=50.
    assert rearm_log(kernel, PlainRepostTimer) == [
        (100, "Y"), (100, "Z"), (100, "timer")]


def test_cluster_tells_the_plain_repost_apart(monkeypatch):
    # The plain re-post keeps the sweep and the golden traces, but it
    # moves this run's end time from 20,271,670 to 21,810,510 ns.
    runs = {}
    for timer_class in (Timer, PlainRepostTimer):
        with monkeypatch.context() as patch:
            patch.setattr(reliable_module, "Timer", timer_class)
            runs[timer_class] = run_cluster("dor", True, "bucket", 0)
    assert runs[Timer][2] == 20_271_670
    assert runs[PlainRepostTimer][2] == 21_810_510


@pytest.mark.parametrize("kernel", KERNELS)
def test_fires_once_at_the_last_armed_deadline(kernel):
    sim = KERNELS[kernel]()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    for delay in (50, 10, 80, 30):
        timer.start(delay)
    sim.run()
    assert fired == [30]


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_start_posts_one_expiry(kernel):
    # Nothing is retracted: each start leaves one more expiry pending,
    # and every superseded or cancelled one runs as a no-op event.
    sim = KERNELS[kernel]()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    for cycle in range(1_000):
        timer.start(1_000_000 if cycle % 2 == 0 else 2_000_000)
    timer.cancel()
    timer.start(3_000_000)
    assert sim.pending_events == 1_001
    assert sim.run() == 1_001
    assert fired == [3_000_000]


@pytest.mark.parametrize("kernel", KERNELS)
def test_cancelled_timer_never_fires(kernel):
    sim = KERNELS[kernel]()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(10)
    sim._post(5, timer.cancel)
    timer2 = Timer(sim, lambda: fired.append(("second", sim.now)))
    timer2.start(20)
    timer2.start(40)
    timer2.cancel()
    sim.run()
    assert fired == []


@pytest.mark.parametrize("kernel", KERNELS)
def test_armed_and_deadline_track_state(kernel):
    sim = KERNELS[kernel]()
    timer = Timer(sim, lambda: None)
    assert (timer.armed, timer.deadline) == (False, None)
    timer.start(100)
    assert (timer.armed, timer.deadline) == (True, 100)
    sim.run(until=40)
    timer.start(100)  # a later deadline: the expiry at 100 is stale
    assert (timer.armed, timer.deadline) == (True, 140)
    sim.run(until=120)
    assert (timer.armed, timer.deadline) == (True, 140)
    timer.cancel()
    assert (timer.armed, timer.deadline) == (False, None)
    timer.start(0)
    assert (timer.armed, timer.deadline) == (True, 120)
    sim.run()
    assert (timer.armed, timer.deadline) == (False, None)
