"""Differential harness: :class:`repro.sim.BoundedQueue` against the
deque-and-future queue it replaced (``reference_queue.py``).

The production queue keeps its items in one list and its waiters in
another, and serves callbacks through ``put_then`` and ``get_then``,
which call a continuation directly.  The oracle serves them through
waitables: a callback getter registers on ``get()``'s waitable and a
callback putter on ``put()``'s, as the links and switch inputs did.  A
waitable calls a plain callback inside the put or get that completes
it, so every continuation should run at exactly the point where the
oracle's runs, and every process should resume in the same event.  The
queue touches the kernel only through ``_post``, which both kernels
order alike, so one kernel serves.  Two levels check it:

- **Seeded scripts on one queue** of capacity 1-3: process putters
  and getters, ``try_put``, callback putters and getters whose
  continuations act on the queue again (inside the operation that runs
  them, or posted later), mostly at shared instants.  The action log,
  with the queue's length, ``full`` and ``empty`` after every action,
  must equal the oracle's byte for byte.
- **Whole clusters with the old network**: ``run_cluster`` from the
  link harness against the same run with every queue the oracle's,
  and the process link and switches it fed: star, chain, dor and
  adaptive fabrics, faults off and on.  Chrome traces, memory, end time
  and switch counters must match.  The fabric harnesses cannot see a
  queue defect, because their oracles build on the queue they check.

The mutation tests check that the scripts tell apart blocked putters
admitted last-in first-out, and a getter's continuation run before the
blocked putter its get admits.  ``REPRO_STRESS_ITERS=N`` multiplies the
seed counts.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import pytest

import repro.hib.reliable as reliable_module
import repro.machine.interrupts as interrupts_module
import repro.network.fabric as fabric_module
import tests.network.reference_link as reference_link_module
import tests.network.reference_switch as reference_switch_module
import tests.network.reference_torus as reference_torus_module
from repro.sim import BoundedQueue, Simulator
from tests.network.reference_link import ReferenceLink
from tests.network.reference_switch import ReferenceSwitch
from tests.network.reference_torus import ReferenceTorusSwitch
from tests.network.test_link_equivalence import (
    FABRICS,
    run_cluster,
    subject_run,
)
from tests.sim.reference_queue import ReferenceQueue

STRESS_ITERS = max(1, int(os.environ.get("REPRO_STRESS_ITERS", "1")))
SCRIPT_SEEDS = list(range(400 * STRESS_ITERS))
CLUSTER_SEEDS = list(range(STRESS_ITERS))

#: Gaps between actions: most land at an instant already in use.
GAPS = (0, 0, 0, 1, 1, 2, 3, 5)


class LifoAdmission(BoundedQueue):
    """A mutant: a get admits the newest blocked putter."""

    def _take(self):
        item = self._items.pop(0)
        if self._waiters:
            then, admitted = self._waiters.pop()
            self._items.append(admitted)
            then()
        return item


class GetterFirst(BoundedQueue):
    """A mutant: a callback get runs its continuation before it admits
    the oldest blocked putter."""

    def get_then(self, fn):
        if not self._items:
            self._waiters.append(fn)
            return
        fn(self._items.pop(0))
        if self._waiters:
            then, admitted = self._waiters.pop(0)
            self._items.append(admitted)
            then()


def _waitable_get_then(queue, fn):
    queue.get().add_callback(lambda value, _exc: fn(value))


def _waitable_put_then(queue, item, then):
    accepted = queue.put(item)
    if accepted.done:
        return True
    accepted.add_callback(lambda _value, _exc: then())
    return False


def callback_entry_points(queue_class):
    """``(get_then, put_then)`` for ``queue_class``: the oracle's
    through its waitables, any other queue's its own."""
    if queue_class is ReferenceQueue:
        return _waitable_get_then, _waitable_put_then
    return queue_class.get_then, queue_class.put_then


# -- seeded scripts ---------------------------------------------------------
#
# A script is plain tuples built from one RNG; the interpreter makes no
# random choices, so both queues see the same operation stream.

def _reactions(rng: random.Random, depth: int):
    """What a continuation does: nothing, or actions nested up to
    ``depth``."""
    if depth <= 0 or rng.random() < 0.5:
        return ()
    return tuple(_action(rng, depth) for _ in range(rng.randrange(1, 3)))


def _action(rng: random.Random, depth: int):
    r = rng.random()
    if r < 0.35:
        return ("cb_get", _reactions(rng, depth - 1))
    if r < 0.7:
        return ("cb_put", _reactions(rng, depth - 1))
    if r < 0.85:
        return ("try_put",)
    return ("post", rng.choice(GAPS),
            _reactions(rng, depth - 1) or (("try_put",),))


def _steps(rng: random.Random):
    """A process's steps: puts, gets and gaps."""
    return tuple(("gap", rng.choice(GAPS)) if rng.random() < 0.3
                 else (rng.choice(("put", "get")),)
                 for _ in range(rng.randrange(2, 8)))


def build_script(seed: int):
    """``(capacity, events)``: each event is ``(time, action)``."""
    rng = random.Random(seed)
    capacity = rng.choice((1, 2, 3))
    events = []
    at = 0
    for _ in range(rng.randrange(10, 30)):
        at += rng.choice(GAPS)
        if rng.random() < 0.25:
            events.append((at, ("spawn", _steps(rng))))
        else:
            events.append((at, _action(rng, 2)))
    return capacity, events


class QueueScript:
    """Interpret one script on one queue class.  ``cases`` collects
    the situations the scripts claim to reach."""

    def __init__(self, queue_class, capacity: int):
        self.sim = Simulator()
        self.queue = queue_class(capacity, name="q")
        self.get_then, self.put_then = callback_entry_points(queue_class)
        self.log: list = []
        self.cases: set = set()
        self._items = itertools.count()
        self._tags = itertools.count()
        #: Depth of queue operations in progress: an action at depth
        #: > 0 runs inside another operation's continuation.
        self._inside = 0

    def note(self, tag, what, *detail):
        queue = self.queue
        self.log.append((self.sim.now, tag, what, *detail, len(queue),
                         queue.full, queue.empty))

    def _enter(self, kind):
        if self._inside:
            self.cases.add(f"{kind} inside a continuation")
        self._inside += 1

    def act(self, action):
        tag = next(self._tags)
        kind = action[0]
        queue = self.queue
        if kind == "try_put":
            item = next(self._items)
            self._enter(kind)
            accepted = queue.try_put(item)
            self._inside -= 1
            self.cases.add(f"try_put {'accepted' if accepted else 'refused'}")
            self.note(tag, kind, item, accepted)
        elif kind == "cb_get":
            reactions = action[1]
            waited = [True]

            def got(item):
                self.cases.add("callback get " + ("waited" if waited[0]
                                                  else "served at once"))
                self.note(tag, "got", item)
                self.react(reactions)

            self.note(tag, kind)
            self._enter(kind)
            waited[0] = False
            self.get_then(queue, got)
            waited[0] = True
            self._inside -= 1
        elif kind == "cb_put":
            item = next(self._items)
            reactions = action[1]

            def admitted():
                self.cases.add("callback put admitted")
                self.note(tag, "admitted", item)
                self.react(reactions)

            self._enter(kind)
            accepted = self.put_then(queue, item, admitted)
            self._inside -= 1
            self.note(tag, kind, item, accepted)
            if accepted:
                self.react(reactions)
        elif kind == "post":
            self.sim._post(action[1], self.react, (action[2],))
        else:
            self.sim.spawn(self._process(tag, action[1]), name=f"p{tag}")

    def react(self, actions):
        for action in actions:
            self.act(action)

    def _process(self, tag, steps):
        queue = self.queue
        for step in steps:
            if step[0] == "gap":
                yield step[1]
            elif step[0] == "put":
                item = next(self._items)
                self.note(tag, "put", item)
                accepted = queue.put(item)
                if not accepted.done:
                    self.cases.add("process put admitted")
                yield accepted
                self.note(tag, "put done", item)
            else:
                self.note(tag, "get")
                got = queue.get()
                if not got.done:
                    self.cases.add("process get waited")
                item = yield got
                self.note(tag, "got", item)

    def execute(self, events) -> bytes:
        for at, action in events:
            self.sim._post(at, self.act, (action,))
        self.sim.run()
        self.note("end", "end", self.sim.events_executed)
        return json.dumps(self.log, separators=(",", ":")).encode()


def script_log(queue_class, seed: int) -> bytes:
    capacity, events = build_script(seed)
    return QueueScript(queue_class, capacity).execute(events)


def test_queue_scripts_match_reference_queue():
    divergent = [seed for seed in SCRIPT_SEEDS
                 if script_log(BoundedQueue, seed)
                 != script_log(ReferenceQueue, seed)]
    assert not divergent, (
        f"{len(divergent)}/{len(SCRIPT_SEEDS)} scripts diverged from the "
        f"reference queue; first failing seeds: {divergent[:10]} — replay "
        "with script_log(BoundedQueue, seed)")


def test_queue_scripts_cover_the_hard_cases():
    """Every kind of waiter waits and is served, ``try_put`` both
    succeeds and is refused, and every action also runs inside another
    operation's continuation, at every capacity."""
    seen = set()
    for seed in SCRIPT_SEEDS[:100]:
        capacity, events = build_script(seed)
        script = QueueScript(BoundedQueue, capacity)
        script.execute(events)
        seen |= {f"{case} at capacity {capacity}" for case in script.cases}
    expected = {"try_put accepted", "try_put refused",
                "callback get waited", "callback get served at once",
                "callback put admitted", "process put admitted",
                "process get waited", "try_put inside a continuation",
                "cb_get inside a continuation",
                "cb_put inside a continuation"}
    assert seen == {f"{case} at capacity {capacity}"
                    for case in expected for capacity in (1, 2, 3)}


def _tells_apart(mutant, seed: int) -> bool:
    """Whether script ``seed`` fails on ``mutant``: a different log,
    or an error.  The getter-first mutant's continuation can act on a
    queue with room while a blocked putter still waits, and a later
    operation then takes a putter for a getter or a getter for a
    putter (a process that does fails the run)."""
    try:
        return script_log(mutant, seed) != script_log(ReferenceQueue, seed)
    except (TypeError, RuntimeError):
        return True


@pytest.mark.parametrize("mutant", [LifoAdmission, GetterFirst])
def test_scripts_tell_the_mutants_apart(mutant):
    caught = sum(_tells_apart(mutant, seed) for seed in SCRIPT_SEEDS[:100])
    assert caught >= 30, (  # 69 and 79 of the first 100 when written
        f"only {caught} of 100 scripts catch {mutant.__name__}")


# -- whole clusters ---------------------------------------------------------

#: Every module that builds a queue in ``run_cluster``'s cluster, the
#: process link's and switches' included.
QUEUE_MODULES = (fabric_module, reliable_module,
                  interrupts_module, reference_link_module,
                  reference_switch_module, reference_torus_module)


def _no_production_queue(self, *args, **kwargs):
    raise AssertionError("the old network built a production queue")


@pytest.mark.parametrize("faults", [False, True], ids=["lossless", "faults"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_cluster_matches_the_old_network(fabric, faults, monkeypatch):
    for seed in CLUSTER_SEEDS:
        got = subject_run(fabric, faults, "bucket", seed)
        with monkeypatch.context() as patch:
            for module in QUEUE_MODULES:
                patch.setattr(module, "BoundedQueue", ReferenceQueue)
            patch.setattr(BoundedQueue, "__init__", _no_production_queue)
            patch.setattr(fabric_module, "Link", ReferenceLink)
            patch.setattr(fabric_module, "Switch", ReferenceSwitch)
            patch.setattr(fabric_module, "TorusSwitch", ReferenceTorusSwitch)
            expected = run_cluster(fabric, faults, "bucket", seed)
        assert got[1:] == expected[1:], (
            f"seed {seed}: memory, end time or switch counters")
        assert got[0] == expected[0], f"seed {seed}: Chrome trace differs"
