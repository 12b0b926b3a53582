"""Unit tests for the link model."""

import pytest

from repro.network.link import Link
from repro.network.packet import Packet, PacketKind
from repro.params import DEFAULT_PARAMS
from repro.sim import BoundedQueue, Simulator


def make_packet(src=0, dst=1, size=20, **kw):
    return Packet(PacketKind.WRITE_REQ, src, dst, size, **kw)


def setup_link(src_cap=8, dst_cap=8):
    sim = Simulator()
    timing = DEFAULT_PARAMS.timing
    src = BoundedQueue(src_cap, name="src")
    dst = BoundedQueue(dst_cap, name="dst")
    link = Link(sim, timing, src, dst)
    return sim, timing, src, dst, link


def test_packet_arrives_after_serialization_and_propagation():
    sim, timing, src, dst, _ = setup_link()
    pkt = make_packet(size=20)
    arrivals = []

    def consumer():
        got = yield dst.get()
        arrivals.append((sim.now, got))

    sim.spawn(consumer())
    src.try_put(pkt)
    sim.run()
    expected = timing.serialization_ns(20) + timing.link_prop_ns
    assert arrivals == [(expected, pkt)]


def test_serialization_scales_with_size():
    timing = DEFAULT_PARAMS.timing
    assert timing.serialization_ns(40) == 2 * timing.serialization_ns(20)


def test_flights_are_one_at_a_time():
    """Serialization overlaps the previous flight, but only one packet
    propagates at a time: back-to-back packets leave one per
    max(serialization, propagation), here the 3,200 ns flight, not the
    1,000 ns a 20-byte packet takes to serialize."""
    sim = Simulator()
    timing = DEFAULT_PARAMS.with_timing(link_prop_ns=3200).timing
    src, dst = BoundedQueue(8, name="src"), BoundedQueue(8, name="dst")
    Link(sim, timing, src, dst)
    arrivals = []

    def consumer():
        for _ in range(5):
            yield dst.get()
            arrivals.append(sim.now)

    sim.spawn(consumer())
    for _ in range(5):
        assert src.try_put(make_packet(size=20))
    sim.run()
    assert timing.serialization_ns(20) == 1000
    assert arrivals == [4200, 7400, 10600, 13800, 17000]


def test_link_preserves_fifo_order():
    sim, _, src, dst, _ = setup_link()
    packets = [make_packet(size=10 + i) for i in range(5)]
    got = []

    def consumer():
        for _ in packets:
            got.append((yield dst.get()))

    sim.spawn(consumer())
    for pkt in packets:
        assert src.try_put(pkt)
    sim.run()
    assert got == packets


def test_backpressure_stalls_source_drain():
    """With a 1-deep destination and no consumer, the link parks once
    its pipeline (destination + wire stage + serializer) is full and
    the source queue retains the rest."""
    sim, _, src, dst, link = setup_link(src_cap=5, dst_cap=1)
    for _ in range(5):
        src.try_put(make_packet(size=10))
    sim.run(until=1_000_000)
    assert len(dst) == 1
    assert link.packets_carried == 1
    # The pipeline absorbs four packets (dst buffer, flight slot, wire,
    # held by the serializer); the source retains the fifth.
    assert len(src) == 1


def test_backpressure_releases_when_consumer_drains():
    sim, _, src, dst, link = setup_link(src_cap=4, dst_cap=1)
    for _ in range(3):
        src.try_put(make_packet(size=10))
    got = []

    def slow_consumer():
        for _ in range(3):
            got.append((yield dst.get()))
            yield 10_000

    sim.spawn(slow_consumer())
    sim.run()
    assert len(got) == 3
    assert link.packets_carried == 3


def test_link_statistics():
    sim, _, src, dst, link = setup_link()

    def consumer():
        yield dst.get()
        yield dst.get()

    sim.spawn(consumer())
    src.try_put(make_packet(size=10))
    src.try_put(make_packet(size=30))
    sim.run()
    assert link.packets_carried == 2
    assert link.bytes_carried == 40
    assert link.busy_ns == DEFAULT_PARAMS.timing.serialization_ns(
        10
    ) + DEFAULT_PARAMS.timing.serialization_ns(30)


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(PacketKind.WRITE_REQ, 0, 0, 10)
    with pytest.raises(ValueError):
        Packet(PacketKind.WRITE_REQ, 0, 1, 0)


def test_packet_ids_unique():
    a, b = make_packet(), make_packet()
    assert a.pid != b.pid
