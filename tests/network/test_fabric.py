"""Integration and property tests for the assembled fabric.

These tests exercise the §2.1 switch-network properties end to end:
packets delivered to the right hosts, per-(src, dst) in-order delivery,
back-pressure, and no deadlock under all-to-all load on every topology.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Fabric, Packet, PacketKind
from repro.network import topology as T
from repro.params import DEFAULT_PARAMS
from repro.sim import Simulator


def build(topo):
    sim = Simulator()
    fabric = Fabric(sim, DEFAULT_PARAMS, topo)
    return sim, fabric


def write_packet(src, dst, seq):
    return Packet(PacketKind.WRITE_REQ, src, dst, address=seq, value=seq)


def drain(sim, fabric, node, out, count):
    def consumer():
        port = fabric.port(node)
        for _ in range(count):
            out.append((yield port.receive()))

    return sim.spawn(consumer(), name=f"drain{node}")


def test_single_switch_delivery():
    sim, fabric = build(T.star(2))
    received = []
    proc = drain(sim, fabric, 1, received, 1)

    def sender():
        yield fabric.port(0).send(write_packet(0, 1, 0))

    sim.spawn(sender())
    sim.run_until_done([proc])
    assert len(received) == 1
    assert received[0].dst == 1


def test_multi_hop_delivery():
    sim, fabric = build(T.chain(3, 1))
    received = []
    proc = drain(sim, fabric, 2, received, 1)

    def sender():
        yield fabric.port(0).send(write_packet(0, 2, 0))

    sim.spawn(sender())
    sim.run_until_done([proc])
    assert received[0].dst == 2
    # Two switch hops were traversed (chain 0-1-2).
    assert fabric.total_packets_routed >= 3


def test_port_unknown_host():
    _, fabric = build(T.star(2))
    with pytest.raises(KeyError):
        fabric.port(99)


def test_in_order_delivery_same_pair():
    sim, fabric = build(T.chain(2, 1))
    received = []
    n = 50
    proc = drain(sim, fabric, 1, received, n)

    def sender():
        for i in range(n):
            yield fabric.port(0).send(write_packet(0, 1, i))

    sim.spawn(sender())
    sim.run_until_done([proc])
    assert [p.address for p in received] == list(range(n))


def test_multi_hop_latency_exceeds_single_hop():
    def one_way_latency(topo, src, dst):
        sim, fabric = build(topo)
        received = []
        proc = drain(sim, fabric, dst, received, 1)

        def sender():
            yield fabric.port(src).send(write_packet(src, dst, 0))

        sim.spawn(sender())
        sim.run_until_done([proc])
        return sim.now

    near = one_way_latency(T.chain(3, 1), 0, 1)
    far = one_way_latency(T.chain(3, 1), 0, 2)
    assert far > near


def test_all_to_all_no_deadlock_and_complete_delivery():
    topo = T.mesh2d(2, 2, hosts_per_switch=1)
    sim, fabric = build(topo)
    hosts = topo.hosts
    per_pair = 5
    expected = {h: per_pair * (len(hosts) - 1) for h in hosts}
    received = {h: [] for h in hosts}
    drains = [drain(sim, fabric, h, received[h], expected[h]) for h in hosts]

    def sender(src):
        for i in range(per_pair):
            for dst in hosts:
                if dst != src:
                    yield fabric.port(src).send(write_packet(src, dst, i))

    for h in hosts:
        sim.spawn(sender(h), name=f"send{h}")
    sim.run_until_done(drains, limit_ns=10**10)
    for h in hosts:
        assert len(received[h]) == expected[h]


@given(
    topo_name=st.sampled_from(["star", "chain", "ring", "mesh"]),
    n_hosts=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
@settings(max_examples=12, deadline=None)
def test_property_in_order_per_source(topo_name, n_hosts, data):
    """For any topology and any traffic pattern, each receiver sees
    each sender's packets in injection order (§2.1 in-order claim)."""
    topo = T.by_name(topo_name, n_hosts)
    sim, fabric = build(topo)
    hosts = topo.hosts
    # Random small traffic matrix.
    flows = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(hosts),
                st.sampled_from(hosts),
            ).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=12,
        )
    )
    counts = {}
    for src, dst in flows:
        counts[(src, dst)] = counts.get((src, dst), 0) + 1

    received = {h: [] for h in hosts}
    expect_per_host = {h: 0 for h in hosts}
    for (_src, dst), c in counts.items():
        expect_per_host[dst] += c
    drains = [
        drain(sim, fabric, h, received[h], expect_per_host[h])
        for h in hosts
        if expect_per_host[h]
    ]

    def sender(src, dst, count):
        for i in range(count):
            yield fabric.port(src).send(write_packet(src, dst, i))

    for (src, dst), c in counts.items():
        sim.spawn(sender(src, dst, c))
    sim.run_until_done(drains, limit_ns=10**10)

    for h in hosts:
        per_source = {}
        for pkt in received[h]:
            per_source.setdefault(pkt.src, []).append(pkt.address)
        for src, seqs in per_source.items():
            assert seqs == sorted(seqs), (
                f"out-of-order delivery {src}->{h}: {seqs}"
            )


def test_link_stats_exposed():
    sim, fabric = build(T.star(2))
    received = []
    proc = drain(sim, fabric, 1, received, 1)

    def sender():
        yield fabric.port(0).send(write_packet(0, 1, 0))

    sim.spawn(sender())
    sim.run_until_done([proc])
    sim.run()  # let link bookkeeping events drain
    stats = fabric.link_stats()
    carried = sum(s["packets"] for s in stats.values())
    assert carried == 2  # host->switch plus switch->host
