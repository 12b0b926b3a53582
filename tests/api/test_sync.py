"""Tests for the point-to-point primitives of
:mod:`repro.api.collectives` — the spin lock (:class:`Mutex`), the
counter barrier, and the flag (:class:`Signal`) — including the §2.3.5
memory-consistency demonstration."""

import pytest

from repro.api import (
    Cluster,
    ClusterConfig,
    Mutex,
    Signal,
    counter_barrier_wait,
)
from repro.params import Params


def make_cluster(n=3, prototype=1, **kw):
    return Cluster(ClusterConfig(
        n_nodes=n, params=Params(prototype=prototype), **kw))


@pytest.mark.parametrize("prototype", [1, 2])
def test_spinlock_mutual_exclusion(prototype):
    """N contenders increment a shared counter under a lock: no lost
    updates, and the critical sections never overlap."""
    cluster = make_cluster(n=3, prototype=prototype)
    sync = cluster.alloc_segment(home=0, pages=1, name="sync")
    data = cluster.alloc_segment(home=0, pages=1, name="data")
    per_proc = 5
    sections = []
    ctxs = []
    for node in range(3):
        proc = cluster.create_process(node=node, name=f"p{node}")
        lock_base = proc.map(sync)
        data_base = proc.map(data)
        lock = Mutex(proc, lock_base)

        def program(p, lock=lock, data_base=data_base, node=node):
            for _ in range(per_proc):
                yield from lock.acquire()
                sections.append(("enter", node, cluster.now))
                value = yield p.load(data_base)
                yield p.think(500)
                yield p.store(data_base, value + 1)
                sections.append(("exit", node, cluster.now))
                yield from lock.release()

        ctxs.append(cluster.start(proc, program))
    cluster.run_programs(ctxs)
    assert data.peek(0) == 3 * per_proc
    # Critical sections are disjoint in time.
    events = sorted(sections, key=lambda e: e[2])
    depth = 0
    for kind, _, _ in events:
        depth += 1 if kind == "enter" else -1
        assert 0 <= depth <= 1


def test_spinlock_contention_counts():
    cluster = make_cluster(n=2)
    sync = cluster.alloc_segment(home=0, pages=1, name="sync")
    proc = cluster.create_process(node=1, name="p")
    base = proc.map(sync)
    lock = Mutex(proc, base)
    sync.poke(0, 1)  # already held by someone else

    def program(p):
        # Try twice while held, then the holder releases.
        yield from lock.acquire()

    ctx = cluster.start(proc, program)
    cluster.sim.schedule(200_000, sync.poke, 0, 0)
    cluster.run_programs([ctx])
    assert lock.spins > 0
    assert lock.acquisitions == 1


def test_barrier_synchronises_parties():
    cluster = make_cluster(n=3)
    sync = cluster.alloc_segment(home=0, pages=1, name="sync")
    after = []
    ctxs = []
    for node in range(3):
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(sync)

        def program(p, base=base, node=node):
            yield p.think(node * 50_000)  # stagger arrivals
            yield from counter_barrier_wait(p, base, base + 4, n_parties=3)
            after.append((node, cluster.now))

        ctxs.append(cluster.start(proc, program))
    cluster.run_programs(ctxs)
    assert len(after) == 3
    times = [t for _, t in after]
    # Nobody leaves before the last arrival (node 2 at >=100µs).
    assert min(times) >= 100_000


def test_barrier_reusable_across_phases():
    cluster = make_cluster(n=2)
    sync = cluster.alloc_segment(home=0, pages=1, name="sync")
    phases = {0: [], 1: []}
    ctxs = []
    for node in range(2):
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(sync)

        def program(p, base=base, node=node):
            for phase in range(3):
                yield p.think((node + 1) * 10_000)
                yield from counter_barrier_wait(p, base, base + 4,
                                                n_parties=2)
                phases[node].append(phase)

        ctxs.append(cluster.start(proc, program))
    cluster.run_programs(ctxs)
    assert phases[0] == [0, 1, 2]
    assert phases[1] == [0, 1, 2]


def test_flag_with_fence_never_shows_stale_data():
    """§2.3.5 made safe: producer writes data then raises the flag
    (with embedded FENCE); consumer that saw the flag reads fresh
    data."""
    cluster = make_cluster(n=3)
    # data homed on node 1, flag homed on node 2: different paths,
    # exactly the scenario of §2.3.5.
    data = cluster.alloc_segment(home=1, pages=1, name="data")
    flags = cluster.alloc_segment(home=2, pages=1, name="flag")

    producer = cluster.create_process(node=0, name="producer")
    data_w = producer.map(data)
    flag_w = producer.map(flags)
    flag = Signal(producer, flag_w)

    consumer = cluster.create_process(node=1, name="consumer")
    data_r = consumer.map(data)
    flag_r = consumer.map(flags)
    cflag = Signal(consumer, flag_r)
    got = []

    def produce(p):
        yield p.store(data_w, 4242)
        yield from flag.raise_signal()

    def consume(p):
        yield from cflag.await_value(1)
        got.append((yield p.load(data_r)))

    ctxs = [cluster.start(producer, produce), cluster.start(consumer, consume)]
    cluster.run_programs(ctxs)
    assert got == [4242]
