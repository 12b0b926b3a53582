"""Tests for the shared-buffer switch: no head-of-line blocking, quota
fairness, back-pressure on buffer exhaustion."""

from repro.network import Fabric, Packet, PacketKind
from repro.network import topology as T
from repro.params import DEFAULT_PARAMS
from repro.sim import Simulator


def write_packet(src, dst, seq=0):
    return Packet(PacketKind.WRITE_REQ, src, dst, address=seq)


def test_no_head_of_line_blocking():
    """Input port order: many packets to a congested host, then one to
    an uncongested host.  The latter must overtake the backlog (the
    [16] shared-buffer property)."""
    sim = Simulator()
    fabric = Fabric(sim, DEFAULT_PARAMS, T.star(3))
    received = {1: [], 2: []}

    def drain(node, count):
        def consumer():
            for _ in range(count):
                received[node].append(
                    ((yield fabric.port(node).receive()), sim.now)
                )

        return sim.spawn(consumer(), name=f"drain{node}")

    # Node 1 has no consumer: its path backs up.  60 packets to node 1
    # first, then 1 packet to node 2.
    def sender():
        for i in range(60):
            yield fabric.port(0).send(write_packet(0, 1, i))
        yield fabric.port(0).send(write_packet(0, 2, 999))

    proc = drain(2, 1)
    sim.spawn(sender())
    sim.run_until_done([proc], limit_ns=10**9)
    # The node-2 packet arrived even though node 1's stream is stuck
    # inside the switch forever (node 1 never drains) — with
    # head-of-line blocking it would never get through.  Its latency
    # is bounded by serializing behind the flood on the shared host
    # link plus one switch transit.
    assert received[2][0][0].address == 999
    assert received[2][0][1] < 60 * 700 + 5_000


def test_output_quota_limits_hot_destination():
    sim = Simulator()
    params = DEFAULT_PARAMS
    fabric = Fabric(sim, params, T.star(3))

    def sender():
        for i in range(80):
            yield fabric.port(0).send(write_packet(0, 1, i))

    sim.spawn(sender())
    sim.run(until=10**8)
    switch = fabric.switches["req"][0]
    # The hot output never exceeds its quota (+1 for the forwarder's
    # in-flight packet), leaving shared-buffer slots for other traffic.
    assert switch.buffer_in_use <= params.sizing.switch_output_quota + 2
    assert switch.peak_buffer_use <= params.sizing.switch_output_quota + 2


def test_replies_travel_response_plane():
    """A reply-class packet must bypass request-plane congestion."""
    sim = Simulator()
    fabric = Fabric(sim, DEFAULT_PARAMS, T.star(3))
    got = []

    def flood():
        for i in range(100):
            yield fabric.port(0).send(write_packet(0, 1, i))

    def send_reply():
        yield 5_000  # after the flood has clogged the request plane
        reply = Packet(PacketKind.READ_REPLY, 0, 1, value=7)
        yield fabric.port(0).send(reply)

    def reply_drain():
        packet = yield fabric.port(1).receive_reply()
        got.append((packet, sim.now))

    proc = sim.spawn(reply_drain())
    sim.spawn(flood())
    sim.spawn(send_reply())
    sim.run_until_done([proc], limit_ns=10**9)
    # The reply arrived promptly; 100 request packets would take 70 µs.
    assert got[0][1] < 20_000
