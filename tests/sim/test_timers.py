"""Differential harness: :class:`repro.sim.Timer` against the
cancel-and-reschedule timer it must reproduce (``reference_timer.py``).

The production timer never retracts an event.  It keeps one live
expiry and re-files it under a sequence number reserved when the timer
was armed, so every callback should run under exactly the
``(time, seq)`` key the oracle's fresh post takes, and therefore in
exactly the same order relative to every other event.  Two levels
check it:

- **Seeded scripts on three timers**, on both kernels: arm and re-arm
  to later, earlier and equal deadlines, several times at one instant,
  ``start(0)``, re-arms and cancels inside the callbacks, interleaved
  with ``_post``\\ ed events that land on timer deadlines and re-arm
  timers themselves.  The dispatch log, with every timer's
  ``deadline`` after every action, must equal the oracle's byte for
  byte.  Runs are bounded with ``until``: ``max_events`` would count
  the no-op expiries, which the two timers place differently.
- **Whole clusters**: the reliable transport's timer is swapped for
  the oracle, and star, chain and torus (dor, adaptive) fabrics run the
  link harness's faulty store/load/atomic/fence program under both
  kernels.  Chrome traces, memory, end time and switch counters must
  match.

The mutation tests check that both levels tell the plain re-post (an
early expiry re-posted for the remaining time under a fresh seq) from
the exact timer.  ``REPRO_STRESS_ITERS=N`` multiplies the seed counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random

import pytest

import repro.hib.reliable as reliable_module
from repro.sim import KERNELS, Simulator, Timer, make_simulator
from tests.network.test_link_equivalence import (
    FABRICS,
    run_cluster,
    subject_run,
)
from tests.sim.reference_timer import ReferenceTimer

STRESS_ITERS = max(1, int(os.environ.get("REPRO_STRESS_ITERS", "1")))
SCRIPT_SEEDS = list(range(300 * STRESS_ITERS))
CLUSTER_SEEDS = list(range(2 * STRESS_ITERS))

N_TIMERS = 3

#: Fresh delays: the instant's list (0), near and far buckets.
DELAYS = (0, 0, 1, 2, 3, 10, 10, 64, 1 << 14, (1 << 14) + 1, 1 << 20)

#: Re-arms relative to a timer's current deadline: earlier, equal or
#: later.
SHIFTS = (-10, -1, 0, 0, 1, 1, 10, 10)

#: ``run(until=now + d)`` bounds; 0 runs the current instant.
RUN_BOUNDS = (0, 0, 1, 3, 10, 64, 1000, 1 << 15)


class PlainRepostTimer(Timer):
    """The mutant: an expiry that fires before the deadline re-posts
    itself for the remaining time under a fresh seq, not the one the
    last ``start`` reserved."""

    def _fire(self, seq: int) -> None:
        live = self._live
        deadline = self._deadline
        if (live is not None and live[1] == seq and deadline is not None
                and deadline > live[0]):
            sim = self.sim
            self._live = (deadline, sim._seq)
            sim._post(deadline - live[0], self._fire, (sim._seq,))
            return
        super()._fire(seq)


# -- seeded scripts ---------------------------------------------------------
#
# A script is plain tuples built from one RNG; the interpreter makes no
# random choices, so both timers see the same operation stream.  Where
# an action depends on state (a shift from a deadline, a post landing
# on one), it reads ``deadline``, which both timers must keep alike.

def _action(rng: random.Random, depth: int):
    r = rng.random()
    timer = rng.randrange(N_TIMERS)
    if r < 0.25:
        return ("start", timer, "now", rng.choice(DELAYS))
    if r < 0.6:
        return ("start", timer, "shift", rng.choice(SHIFTS))
    if r < 0.7:
        return ("cancel", timer)
    if rng.random() < 0.3:
        landing = ("delay", rng.choice(DELAYS))
    else:
        landing = ("deadline", rng.randrange(N_TIMERS),
                   rng.choice((0, 0, 0, -1, 1)))
    return ("post", landing, _reactions(rng, depth - 1))


def _reactions(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        return ()
    return tuple(_action(rng, depth) for _ in range(rng.randrange(1, 4)))


def build_script(seed: int):
    """``(on_fire, ops)``: each timer's reactions to its first three
    expiries (later ones react with nothing, so every script ends), and
    the top-level operations."""
    rng = random.Random(seed)
    on_fire = tuple(tuple(_reactions(rng, 2) for _ in range(3))
                    for _ in range(N_TIMERS))
    ops = []
    for _ in range(rng.randrange(20, 40)):
        if rng.random() < 0.8:
            ops.append(_action(rng, 2))
        else:
            ops.append(("run_until", rng.choice(RUN_BOUNDS)))
    return on_fire, ops


class TimerScript:
    """Interpret one script with one timer class on one kernel."""

    def __init__(self, sim, timer_class, on_fire):
        self.sim = sim
        self.on_fire = on_fire
        self.fired = [0] * N_TIMERS
        self.timers = [timer_class(sim, functools.partial(self._expired, i))
                       for i in range(N_TIMERS)]
        self.log: list = []
        self._tags = itertools.count()

    def _expired(self, index):
        self.log.append((self.sim.now, "fire", index))
        reactions = self.on_fire[index]
        fired = self.fired[index]
        self.fired[index] = fired + 1
        for action in reactions[fired] if fired < len(reactions) else ():
            self.act(action)

    def _posted(self, tag, reactions):
        self.log.append((self.sim.now, "post", tag))
        for action in reactions:
            self.act(action)

    def act(self, action):
        sim = self.sim
        if action[0] == "start":
            _, index, how, value = action
            timer = self.timers[index]
            if how == "now":
                delay = value
            elif timer.deadline is None:
                delay = abs(value)
            else:
                delay = max(0, timer.deadline + value - sim.now)
            timer.start(delay)
        elif action[0] == "cancel":
            self.timers[action[1]].cancel()
        else:
            _, landing, reactions = action
            if landing[0] == "delay":
                delay = landing[1]
            else:
                deadline = self.timers[landing[1]].deadline
                delay = (0 if deadline is None
                         else max(0, deadline + landing[2] - sim.now))
            sim._post(delay, self._posted, (next(self._tags), reactions))
        self.log.append(("deadlines", sim.now,
                         [t.deadline for t in self.timers],
                         [t.armed for t in self.timers]))

    def execute(self, ops):
        sim = self.sim
        for op in ops:
            if op[0] == "run_until":
                sim.run(until=sim.now + op[1])
                self.log.append(("ran", sim.now))
            else:
                self.act(op)
        sim.run()
        return json.dumps(self.log, separators=(",", ":")).encode()


def script_log(timer_class, kernel: str, seed: int) -> bytes:
    on_fire, ops = build_script(seed)
    return TimerScript(make_simulator(kernel), timer_class,
                       on_fire).execute(ops)


@pytest.mark.parametrize("kernel", KERNELS)
def test_timer_scripts_match_reference_timer(kernel):
    divergent = [seed for seed in SCRIPT_SEEDS
                 if script_log(Timer, kernel, seed)
                 != script_log(ReferenceTimer, kernel, seed)]
    assert not divergent, (
        f"{len(divergent)}/{len(SCRIPT_SEEDS)} scripts diverged from the "
        f"reference timer; first failing seeds: {divergent[:10]} — replay "
        "with script_log(Timer, kernel, seed)")


def test_timer_scripts_cover_the_hard_cases():
    """The scripts reach what the harness claims to exercise: re-arms
    to an equal deadline and to later and earlier ones, at one
    instant, and from inside a callback."""
    seen = set()
    in_callback = [False]

    class Probe(Timer):
        def start(self, delay_ns: int) -> None:
            old = self.deadline
            new = self.sim.now + delay_ns
            if old is not None:
                seen.add("equal" if new == old else
                         "later" if new > old else "earlier")
            if delay_ns == 0:
                seen.add("zero")
            if self.sim.now in self._starts:
                seen.add("same instant")
            if in_callback[0]:
                seen.add("in callback")
            self._starts.add(self.sim.now)
            super().start(delay_ns)

    def probe(sim, callback):
        def expired():
            in_callback[0] = True
            callback()
            in_callback[0] = False

        timer = Probe(sim, expired)
        timer._starts = set()
        return timer

    for seed in SCRIPT_SEEDS[:50]:
        script_log(probe, "bucket", seed)
    assert seen == {"equal", "later", "earlier", "zero", "same instant",
                    "in callback"}


@pytest.mark.parametrize("kernel", KERNELS)
def test_scripts_tell_the_plain_repost_apart(kernel):
    divergent = sum(script_log(PlainRepostTimer, kernel, seed)
                    != script_log(ReferenceTimer, kernel, seed)
                    for seed in SCRIPT_SEEDS[:100])
    assert divergent >= 10, (  # 18 of the first 100 when written
        f"only {divergent} of 100 scripts catch the plain re-post")


# -- whole clusters ---------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_cluster_matches_reference_timer(fabric, kernel, monkeypatch):
    for seed in CLUSTER_SEEDS:
        got = subject_run(fabric, True, kernel, seed)
        with monkeypatch.context() as patch:
            patch.setattr(reliable_module, "Timer", ReferenceTimer)
            expected = run_cluster(fabric, True, kernel, seed)
        assert got[1:] == expected[1:], (
            f"seed {seed}: memory, end time or switch counters")
        assert got[0] == expected[0], f"seed {seed}: Chrome trace differs"


def test_cluster_tells_the_plain_repost_apart(monkeypatch):
    # The plain re-post keeps the sweep and the golden traces, but it
    # moves this run's end time from 20,271,670 to 21,810,510 ns.
    runs = {}
    for timer_class in (ReferenceTimer, PlainRepostTimer):
        with monkeypatch.context() as patch:
            patch.setattr(reliable_module, "Timer", timer_class)
            runs[timer_class] = run_cluster("dor", True, "bucket", 0)
    assert runs[PlainRepostTimer][2] != runs[ReferenceTimer][2]


# -- unit cases -------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_fires_once_at_the_last_armed_deadline(kernel):
    sim = make_simulator(kernel)
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    for delay in (50, 10, 80, 30):
        timer.start(delay)
    sim.run()
    assert fired == [30]


@pytest.mark.parametrize("kernel", KERNELS)
def test_cancelled_timer_never_fires(kernel):
    sim = make_simulator(kernel)
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
    sim = make_simulator(kernel)
    timer = Timer(sim, lambda: None)
    assert (timer.armed, timer.deadline) == (False, None)
    timer.start(100)
    assert (timer.armed, timer.deadline) == (True, 100)
    sim.run(until=40)
    timer.start(100)  # a later deadline: the expiry at 100 fires early
    assert (timer.armed, timer.deadline) == (True, 140)
    sim.run(until=120)
    assert (timer.armed, timer.deadline) == (True, 140)
    timer.cancel()
    assert (timer.armed, timer.deadline) == (False, None)
    timer.start(0)
    assert (timer.armed, timer.deadline) == (True, 120)
    sim.run()
    assert (timer.armed, timer.deadline) == (False, None)


# -- bounded queue under re-arm storms --------------------------------------
#
# Each loop re-arms at one instant.  Whatever the history, a timer keeps
# at most one expiry pending for it there.

#: Bounded, not linear in re-arms.
QUEUE_BOUND = 256

CYCLES = 10_000


def test_timer_cancel_cycles_keep_heap_bounded():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    peak = 0
    for _ in range(CYCLES):
        timer.start(1_000_000)
        timer.cancel()
        peak = max(peak, sim.pending_events)
    assert peak <= QUEUE_BOUND, (
        f"queue grew to {peak} events across {CYCLES} cancel cycles"
    )
    sim.run()
    assert not fired


def test_timer_rearm_cycles_keep_heap_bounded():
    # start() on an armed timer cancels the pending expiry implicitly:
    # the re-arm path must stay bounded just like explicit cancellation.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    peak = 0
    for _ in range(CYCLES):
        timer.start(1_000_000)
        peak = max(peak, sim.pending_events)
    assert peak <= QUEUE_BOUND
    sim.run()
    assert fired == [1_000_000]  # exactly the last arm fires


@pytest.mark.parametrize("kernel", KERNELS)
def test_alternating_deadlines_keep_one_expiry_pending(kernel):
    # A later deadline reserves a seq and posts nothing; the earlier
    # one that follows reuses the posted expiry, because only this
    # timer's own reservations lie between the two keys.
    sim = make_simulator(kernel)
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    peak = 0
    for cycle in range(CYCLES):
        timer.start(1_000_000 if cycle % 2 == 0 else 2_000_000)
        peak = max(peak, sim.pending_events)
    assert peak == 1
    sim.run()
    assert fired == [2_000_000]
