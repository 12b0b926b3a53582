"""Differential equivalence: calendar kernel vs the pure-heap oracle.

The production kernel (:class:`repro.sim.Simulator`) keeps every event
due at ``now`` in one list, the current instant's list, which its run
loop drains in place; later events wait in per-timestamp buckets until
their instant becomes the list.  Its entries are ``(fn, args)``: an
entry's time is its list's, and its order is its position, since
every post appends.  The reference kernel
(:class:`repro.sim.ReferenceSimulator`) is the pre-rewrite discipline:
one heap of ``(time, seq, fn, args)``, the one place a ``seq`` lives,
and one event per loop iteration.  Both promise the *identical*
(time, insertion-order) dispatch order, so any observable divergence
is a bug in the production kernel's buckets or instant list.

This file checks that promise three ways:

- **Randomized schedules**: ``N_SCHEDULES`` seeded scripts of
  post/process/wakeup operations and starts and cancels on a pool of
  :class:`~repro.sim.Timer` objects, made between runs and from inside
  events, where a ``start(0)`` lands between the delay-0 posts of its
  instant (including bound ``run(until=…)`` / ``run(max_events=…)``
  slices that stop mid-instant, ``until`` bounds below ``now``, and
  ``run_until_done`` joins that complete, time out or deadlock) are
  interpreted against both kernels; the full dispatch logs must
  serialize to identical bytes.  Each script also runs on both kernels
  with :class:`~repro.obs.KernelHooks` attached that check every clock
  move is announced, which must change neither log, and the moves
  must agree.  Two mutants of the production kernel's ``_post`` show
  the scripts can tell: a bucket filled newest-first, and a new time
  appended to the time heap unsorted.  ``REPRO_STRESS_ITERS=N``
  multiplies the schedule count.
- **Directed stops**: bounds that land mid-instant, a callback that
  raises (consumed, not counted) and a process that fails (counted),
  each leaving the rest of the instant queued in order.
- **Cross-kernel cluster pins**: full-cluster workloads (the golden
  retry run, a coherence/hotspot run, the 8-node NIC-collectives run)
  are executed under ``kernel="bucket"`` and ``kernel="reference"``
  and their canonical Chrome-trace exports must be byte-identical.

The oracle stays independent of the code it checks: after every event
of a faulty star-cluster run under ``kernel="reference"``, the
production kernel's instant list and buckets are empty.
"""

from __future__ import annotations

import functools
import json
import os
import random
from heapq import heappush

import pytest

import repro.api.cluster as cluster_module
from repro.obs import KernelHooks
from repro.sim import (
    KERNELS,
    Future,
    ReferenceSimulator,
    SimulationDeadlock,
    Simulator,
    Timer,
    make_simulator,
)
from tests.fixtures.golden_runs import (
    canonical_trace_bytes,
    coherence_run,
    collectives_run,
    retry_run,
)
from tests.network.test_link_equivalence import run_cluster

STRESS_ITERS = max(1, int(os.environ.get("REPRO_STRESS_ITERS", "1")))

#: Randomized schedules per test run (the acceptance floor is 1000).
N_SCHEDULES = 1000 * STRESS_ITERS

#: Delay palette: the instant's list (0), near and far buckets, plus
#: awkward in-between values.
DELAYS = (0, 0, 0, 1, 2, 3, 7, 10, 10, 64, 1000,
          1 << 14, (1 << 14) + 1, 1 << 20)

#: How far past ``now`` a join may run before it times out.
JOIN_LIMITS = (50, 500, 5000, 10**9)

#: Timers per script: starts and cancels pick one.
N_TIMERS = 4


# -- schedule scripts -------------------------------------------------------
#
# A script is a list of plain tuples built from one RNG, then
# interpreted against each kernel.  All nondeterminism lives in the
# script; the interpreter makes no random choices, so both kernels see
# the same operation stream and any log divergence is the kernel's.

def _children(rng: random.Random, depth: int):
    """What an event callback does, in order: posts (their events'
    own children nested up to ``depth``) and timer starts and
    cancels."""
    if depth <= 0 or rng.random() < 0.6:
        return ()
    children = []
    for _ in range(rng.randrange(1, 4)):
        r = rng.random()
        if r < 0.6:
            children.append(("post", rng.choice(DELAYS),
                             _children(rng, depth - 1)))
        elif r < 0.85:
            children.append(("start", rng.randrange(N_TIMERS),
                             rng.choice(DELAYS)))
        else:
            children.append(("cancel", rng.randrange(N_TIMERS)))
    return tuple(children)


def build_script(seed: int):
    rng = random.Random(seed)
    script = []
    for _ in range(rng.randrange(12, 36)):
        r = rng.random()
        if r < 0.30:
            script.append(("post", rng.choice(DELAYS), _children(rng, 2)))
        elif r < 0.45:
            script.append(("start", rng.randrange(N_TIMERS),
                           rng.choice(DELAYS)))
        elif r < 0.55:
            script.append(("cancel", rng.randrange(N_TIMERS)))
        elif r < 0.72:
            # A process: a run of yields, each a delay or a wait on a
            # future resolved by a separately scheduled timeout.  Now
            # and then it ends by blocking forever, so a join on it
            # can only time out or deadlock.
            steps = tuple(
                ("delay", rng.choice(DELAYS)) if rng.random() < 0.7
                else ("wait", rng.choice(DELAYS))
                for _ in range(rng.randrange(1, 5))
            )
            if rng.random() < 0.1:
                steps += (("hang", 0),)
            script.append(("spawn", steps))
        elif r < 0.80:
            script.append(("run_until", rng.randrange(0, 2000)))
        elif r < 0.83:
            # A bound below ``now``: the run must execute nothing.
            script.append(("run_until", -rng.randrange(1, 100)))
        elif r < 0.91:
            script.append(("run_max", rng.randrange(1, 8)))
        else:
            script.append(("join", rng.randrange(6),
                           rng.choice(JOIN_LIMITS)))
    script.append(("run_all",))
    return script


class ScriptRunner:
    """Interpret one script against one kernel, logging every dispatch."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.timers = [Timer(sim, functools.partial(self._expired, i))
                       for i in range(N_TIMERS)]
        self.processes = []
        self._tags = iter(range(1 << 30))

    def _expired(self, index):
        self.log.append((self.sim.now, "timer", index))

    def _fire(self, tag, children):
        self.log.append((self.sim.now, tag))
        for child in children:
            kind = child[0]
            if kind == "post":
                self.sim._post(child[1], self._fire,
                               (next(self._tags), child[2]))
            elif kind == "start":
                self.timers[child[1]].start(child[2])
            else:
                self.timers[child[1]].cancel()

    def _process(self, tag, steps):
        for kind, delay in steps:
            if kind == "delay":
                yield delay
            elif kind == "hang":
                yield Future()  # never resolved
            else:
                future = Future()
                self.sim._post(delay, future.set_result, (tag,))
                got = yield future
                self.log.append((self.sim.now, "woke", tag, got))
            self.log.append((self.sim.now, "step", tag))

    def execute(self, script):
        sim = self.sim
        for op in script:
            kind = op[0]
            if kind == "post":
                sim._post(op[1], self._fire, (next(self._tags), op[2]))
            elif kind == "start":
                self.timers[op[1]].start(op[2])
            elif kind == "cancel":
                self.timers[op[1]].cancel()
            elif kind == "spawn":
                tag = next(self._tags)
                self.processes.append(
                    sim.spawn(self._process(tag, op[1]), name=f"p{tag}"))
            elif kind == "run_until":
                before = sim.now
                ran = sim.run(until=before + op[1])
                if op[1] < 0:
                    assert (ran, sim.now) == (0, before), (
                        f"run(until={before + op[1]}) at now={before} "
                        f"ran {ran} events and moved now to {sim.now}")
                self.log.append(("ran", sim.now, ran))
            elif kind == "run_max":
                self.log.append(("ran", sim.now, sim.run(max_events=op[1])))
            elif kind == "join":
                self._join(op[1], op[2])
            else:
                sim.run()
        sim.run()
        self.log.append(("final", sim.now, sim.events_executed,
                         sim.pending_events))
        return self.log

    def _join(self, pick, limit):
        live = [p for p in self.processes if not p.done]
        if not live:
            return
        sim = self.sim
        limit_ns = sim.now + limit
        try:
            sim.run_until_done([live[pick % len(live)]], limit_ns=limit_ns)
            outcome = "joined"
        except TimeoutError:
            outcome = "timeout"
            assert sim.now <= limit_ns, (sim.now, limit_ns)
        except SimulationDeadlock:
            outcome = "deadlock"
        self.log.append(("join", outcome, sim.now, sim.events_executed))


def _log_bytes(log) -> bytes:
    return json.dumps(log, separators=(",", ":")).encode()


class ClockWatch(KernelHooks):
    """Logs every move of the clock, checking that each is announced by
    ``on_advance`` from the time last seen, before any event at the new
    time runs."""

    def __init__(self):
        self.now = 0
        self.moves = []

    def on_run_start(self, sim):
        assert sim.now == self.now, "the clock moved unannounced"

    def on_advance(self, sim, old_ns, new_ns):
        assert sim.now == old_ns == self.now < new_ns, (sim.now, old_ns,
                                                         new_ns)
        self.now = new_ns
        self.moves.append((old_ns, new_ns))

    def on_execute(self, sim, time_ns, fn):
        assert sim.now == time_ns == self.now, (sim.now, time_ns)


def _watched_log(kernel, script):
    """The script's log with a :class:`ClockWatch` attached, and the
    clock moves it saw."""
    sim = make_simulator(kernel)
    watch = sim.hooks = ClockWatch()
    log = ScriptRunner(sim).execute(script)
    assert sim.now == watch.now, "the clock moved unannounced"
    return _log_bytes(log), watch.moves


def _first_divergent_seed():
    """The first seed whose log differs between the two kernels, or
    ``None``."""
    for seed in range(N_SCHEDULES):
        script = build_script(seed)
        logs = {_log_bytes(ScriptRunner(make_simulator(kernel)).execute(script))
                for kernel in KERNELS}
        if len(logs) > 1:
            return seed
    return None


def test_randomized_schedules_dispatch_identically():
    divergent = []
    hook_divergent = []
    for seed in range(N_SCHEDULES):
        script = build_script(seed)
        logs = {}
        for kernel in KERNELS:
            logs[kernel] = _log_bytes(
                ScriptRunner(make_simulator(kernel)).execute(script))
        if logs["bucket"] != logs["reference"]:
            divergent.append(seed)
        watched = [_watched_log(kernel, script) for kernel in KERNELS]
        if (watched[0] != watched[1]
                or watched[0][0] != logs["bucket"]):
            hook_divergent.append(seed)
    assert not divergent, (
        f"{len(divergent)}/{N_SCHEDULES} schedules diverged between "
        f"kernels; first failing seeds: {divergent[:10]} — replay with "
        "ScriptRunner(make_simulator(k)).execute(build_script(seed))"
    )
    assert not hook_divergent, (
        f"{len(hook_divergent)}/{N_SCHEDULES} schedules changed their log "
        "when hooks were attached, or moved the clock differently on the "
        f"two kernels; first failing seeds: {hook_divergent[:10]}"
    )


def newest_first_bucket(self, delay, fn, args=()):
    """Mutant: a post to a time that already has a bucket goes to the
    bucket's front, so each later instant runs newest-first."""
    time = self.now + delay
    if delay == 0:
        self._now_list.append((fn, args))
    elif time in self._buckets:
        self._buckets[time].insert(0, (fn, args))
    else:
        self._buckets[time] = [(fn, args)]
        heappush(self._times, time)


def times_appended_unsorted(self, delay, fn, args=()):
    """Mutant: a new time is appended to the time heap instead of
    pushed onto it, so instants can run out of time order."""
    time = self.now + delay
    if delay == 0:
        self._now_list.append((fn, args))
    elif time in self._buckets:
        self._buckets[time].append((fn, args))
    else:
        self._buckets[time] = [(fn, args)]
        self._times.append(time)


@pytest.mark.parametrize("mutant", [
    newest_first_bucket, times_appended_unsorted,
], ids=["newest-first-bucket", "times-appended-unsorted"])
def test_randomized_schedules_catch_kernel_mutants(mutant, monkeypatch):
    # The reference kernel overrides _post, so only the production
    # kernel changes.
    monkeypatch.setattr(Simulator, "_post", mutant)
    assert _first_divergent_seed() is not None, (
        f"no randomized schedule tells the {mutant.__name__} mutant apart")


def test_mid_batch_bound_preserves_order():
    # max_events bounds land mid-instant by construction: 7 events
    # share one timestamp, the run is sliced one event at a time, and
    # the rest of the instant, left queued at ``now``, must keep seq
    # order on both kernels.
    logs = {}
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        runner = ScriptRunner(sim)
        for i in range(7):
            sim._post(10, runner._fire, (i, ()))
        for _ in range(7):
            sim.run(max_events=1)
        logs[kernel] = _log_bytes(runner.log)
    assert logs["bucket"] == logs["reference"]
    assert json.loads(logs["bucket"])[0] == [10, 0]


def test_bounded_run_keeps_the_clock_behind_pending_events():
    # run(until=, max_events=) that stops with events at or before
    # ``until`` still queued leaves ``now`` at the last event it ran, so
    # a delay-0 post lands there and the clock never goes backwards.
    # Once nothing at or before ``until`` is queued, ``now`` moves to it.
    logs = {}
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        runner = ScriptRunner(sim)
        for tag, delay in enumerate((10, 50, 100, 300)):
            sim._post(delay, runner._fire, (tag, ()))
        assert sim.run(until=100, max_events=1) == 1
        assert sim.now == 10
        sim._post(0, runner._fire, (4, ()))
        assert sim.run(until=200, max_events=2) == 2
        assert sim.now == 50
        assert sim.run(until=200, max_events=2) == 1
        assert sim.now == 200
        sim.run()
        logs[kernel] = _log_bytes(runner.log)
    assert logs["bucket"] == logs["reference"]
    log = json.loads(logs["bucket"])
    assert log == [[10, 0], [10, 4], [50, 1], [100, 2], [300, 3]]
    times = [time for time, _ in log]
    assert times == sorted(times)


def _boom(runner):
    runner.log.append((runner.sim.now, "boom"))
    raise KeyError("boom")


def test_exception_mid_instant_leaves_the_rest_queued():
    # Five events at t=10; the second posts a delay-0 child and the
    # third raises out of the run.  The raising event is consumed and
    # not counted, and the next run continues the instant in order.
    logs = {}
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        runner = ScriptRunner(sim)
        for tag in range(100, 105):
            if tag == 102:
                sim._post(10, _boom, (runner,))
            else:
                children = (("post", 0, ()),) if tag == 101 else ()
                sim._post(10, runner._fire, (tag, children))
        with pytest.raises(KeyError):
            sim.run()
        runner.log.append(("raised", sim.now, sim.events_executed,
                           sim.pending_events))
        sim.run()
        runner.log.append(("final", sim.now, sim.events_executed))
        logs[kernel] = _log_bytes(runner.log)
    assert logs["bucket"] == logs["reference"]
    assert json.loads(logs["bucket"]) == [
        [10, 100], [10, 101], [10, "boom"], ["raised", 10, 2, 3],
        [10, 103], [10, 104], [10, 0], ["final", 10, 5]]


def _failing(runner):
    yield 10
    runner.log.append((runner.sim.now, "fail"))
    raise KeyError("fail")


def test_process_failure_mid_instant_counts_the_failing_step():
    # Five events at t=10, the third a process step that raises.  The
    # run raises RuntimeError from the process's error, counts the
    # failing step (with the process's start at t=0, four events), and
    # leaves the rest of the instant queued in order.  The failure
    # stays recorded, so each later run stops after one event.
    logs = {}
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        runner = ScriptRunner(sim)
        for tag in (100, 101):
            sim._post(10, runner._fire, (tag, ()))
        proc = sim.spawn(_failing(runner), name="p102")
        sim.run(until=0)  # the start files the failing step at t=10
        for tag in (103, 104):
            sim._post(10, runner._fire, (tag, ()))
        with pytest.raises(RuntimeError, match="'p102' failed at t=10ns") \
                as info:
            sim.run()
        assert isinstance(proc.exception, KeyError)
        assert info.value.__cause__ is proc.exception
        runner.log.append(("raised", sim.now, sim.events_executed,
                           sim.pending_events))
        while sim.pending_events:
            with pytest.raises(RuntimeError):
                sim.run()
        runner.log.append(("final", sim.now, sim.events_executed))
        logs[kernel] = _log_bytes(runner.log)
    assert logs["bucket"] == logs["reference"]
    assert json.loads(logs["bucket"]) == [
        [10, 100], [10, 101], [10, "fail"], ["raised", 10, 4, 2],
        [10, 103], [10, 104], ["final", 10, 6]]


@pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_join_timeout_runs_nothing_past_the_limit(kernel, hooked):
    # Five events at t=100 and a join limited to t=50: the join times
    # out before dispatching any of them, and they stay queued.
    sim = make_simulator(kernel)
    if hooked:
        sim.hooks = KernelHooks()
    runner = ScriptRunner(sim)
    for i in range(5):
        sim._post(100, runner._fire, (i, ()))
    proc = sim.spawn(runner._process(5, (("delay", 200),)), name="p5")
    with pytest.raises(TimeoutError):
        sim.run_until_done([proc], limit_ns=50)
    assert runner.log == []
    assert sim.now <= 50
    assert sim.events_executed == 1  # the process start at t=0
    assert sim.pending_events == 6
    sim.run()
    assert runner.log == [(100, i) for i in range(5)] + [(200, "step", 5)]


def test_until_bound_strands_and_resumes_identically():
    logs = {}
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        runner = ScriptRunner(sim)
        # Delay-0 events posted *by* an event at t=5, observed across
        # an until=5 boundary, then drained.
        sim._post(5, runner._fire, (0, (("post", 0, ()), ("post", 0, ()))))
        sim.run(until=5)
        sim.run(until=5)
        sim._post(0, runner._fire, (99, ()))
        sim.run()
        runner.log.append(("final", sim.now))
        logs[kernel] = _log_bytes(runner.log)
    assert logs["bucket"] == logs["reference"]


def test_cancellation_interleaved_with_dispatch():
    logs = {}
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        runner = ScriptRunner(sim)
        timers = [Timer(sim, functools.partial(runner._fire, i, ()))
                  for i in range(10)]
        for timer in timers:
            timer.start(20)
        # An event at t=10 cancels four of the t=20 timers before they
        # fire; the other six fire in arm order.
        sim._post(10, lambda: [timers[i].cancel() for i in (1, 3, 5, 7)])
        sim.run()
        logs[kernel] = _log_bytes(runner.log)
    assert logs["bucket"] == logs["reference"]
    assert [t for _, t in json.loads(logs["bucket"])] == [0, 2, 4, 6, 8, 9]


# -- cross-kernel cluster pins ---------------------------------------------


@pytest.mark.parametrize("build", [retry_run, coherence_run, collectives_run],
                         ids=["retry", "coherence", "collectives"])
def test_cluster_traces_identical_across_kernels(build):
    traces = {
        kernel: canonical_trace_bytes(build(kernel=kernel))
        for kernel in KERNELS
    }
    assert traces["bucket"] == traces["reference"], (
        f"{build.__name__} produced different Chrome traces under the "
        "production and reference kernels"
    )


class _TierWatch(KernelHooks):
    """Counts the events after which a kernel's instant list or buckets
    hold anything."""

    def __init__(self):
        self.events = 0
        self.dirty = 0

    def on_execute(self, sim, time_ns, fn):
        self.events += 1
        if sim._now_list or sim._buckets or sim._times:
            self.dirty += 1


def test_reference_kernel_is_selectable_and_distinct(monkeypatch):
    sim = make_simulator("reference")
    assert isinstance(sim, ReferenceSimulator)
    assert isinstance(sim, Simulator)
    with pytest.raises(ValueError):
        make_simulator("fibonacci")
    # Its queue is its heap alone: every producer files through the
    # overridden _post, so a whole faulty cluster run
    # never leaves an event in the production kernel's list or buckets.
    watch = _TierWatch()

    def watched_simulator(kernel):
        sim = make_simulator(kernel)
        assert isinstance(sim, ReferenceSimulator)
        sim.hooks = watch
        return sim

    monkeypatch.setattr(cluster_module, "make_simulator", watched_simulator)
    run_cluster("star", faults=True, kernel="reference", seed=0)
    assert watch.events > 0
    assert watch.dirty == 0, (
        f"the instant list or buckets held events after {watch.dirty} "
        f"of {watch.events} events")
