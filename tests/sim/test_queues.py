"""Unit tests for the back-pressured bounded queue."""

import pytest

from repro.sim import BoundedQueue, Simulator


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BoundedQueue(0)


def test_put_get_fifo_order():
    sim = Simulator()
    q = BoundedQueue(4)
    got = []

    def producer():
        for i in range(4):
            yield q.put(i)

    def consumer():
        for _ in range(4):
            item = yield q.get()
            got.append(item)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert got == [0, 1, 2, 3]


def test_put_blocks_when_full():
    sim = Simulator()
    q = BoundedQueue(2)
    timeline = []

    def producer():
        for i in range(4):
            yield q.put(i)
            timeline.append(("put", i, sim.now))

    def slow_consumer():
        yield 100
        for _ in range(4):
            item = yield q.get()
            timeline.append(("got", item, sim.now))
            yield 100

    sim.spawn(producer())
    sim.spawn(slow_consumer())
    sim.run()
    puts = {i: t for op, i, t in timeline if op == "put"}
    # First two puts are accepted immediately, the rest wait for space.
    assert puts[0] == 0
    assert puts[1] == 0
    assert puts[2] == 100
    assert puts[3] == 200


def test_get_blocks_when_empty():
    sim = Simulator()
    q = BoundedQueue(2)
    got = []

    def consumer():
        item = yield q.get()
        got.append((item, sim.now))

    def late_producer():
        yield 500
        yield q.put("x")

    sim.spawn(consumer())
    sim.spawn(late_producer())
    sim.run()
    assert got == [("x", 500)]


def test_handoff_to_waiting_getter_preserves_order():
    sim = Simulator()
    q = BoundedQueue(1)
    got = []

    def consumer(tag):
        item = yield q.get()
        got.append((tag, item))

    def producer():
        yield 10
        yield q.put("a")
        yield q.put("b")

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))
    sim.spawn(producer())
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_try_put_then_get():
    q = BoundedQueue(2)
    assert q.try_put(1)
    assert q.try_put(2)
    assert not q.try_put(3)
    assert q.full
    assert q.get().value == 1
    assert q.get().value == 2
    assert q.empty


def test_blocked_putters_drain_in_order():
    sim = Simulator()
    q = BoundedQueue(1)
    accepted = []

    def producer(tag):
        yield q.put(tag)
        accepted.append(tag)

    def consumer():
        yield 10
        items = []
        for _ in range(3):
            items.append((yield q.get()))
        return items

    sim.spawn(producer("p0"))
    sim.spawn(producer("p1"))
    sim.spawn(producer("p2"))
    consumer_proc = sim.spawn(consumer())
    sim.run()
    assert consumer_proc.value == ["p0", "p1", "p2"]
    assert accepted == ["p0", "p1", "p2"]

