"""Tests for the one-to-many broadcast channel over the hardware
multicast (§2.2.7)."""

import pytest

from repro.api import BroadcastChannel, Cluster, ClusterConfig


def make_broadcast(n_receivers=2, capacity=4, slot_words=8):
    cluster = Cluster(ClusterConfig(n_nodes=1 + n_receivers))
    receivers = list(range(1, 1 + n_receivers))
    channel = BroadcastChannel(
        cluster, sender_node=0, receiver_nodes=receivers, name="bc",
        capacity=capacity, slot_words=slot_words,
    )
    sender_proc = cluster.create_process(node=0, name="sender")
    channel.sender.bind(sender_proc)
    receiver_procs = {}
    for node in receivers:
        proc = cluster.create_process(node=node, name=f"recv{node}")
        channel.receivers[node].bind(proc)
        receiver_procs[node] = proc
    return cluster, channel, sender_proc, receiver_procs


def test_every_receiver_gets_every_message():
    cluster, channel, sp, rps = make_broadcast(n_receivers=3)
    n = 6
    got = {node: [] for node in rps}

    def send(p):
        for i in range(n):
            yield from channel.sender.send([i, 10 * i])

    ctxs = [cluster.start(sp, send)]
    for node, proc in rps.items():
        def recv(p, node=node):
            for _ in range(n):
                got[node].append((yield from channel.receivers[node].recv()))

        ctxs.append(cluster.start(proc, recv))
    cluster.run(join=ctxs)
    for node in rps:
        assert got[node] == [[i, 10 * i] for i in range(n)]
    # The fan-out happened in hardware: one multicast update per
    # written word per receiver.
    assert cluster.node(0).hib.stats["multicast_updates"] > 0


def test_sender_waits_for_slowest_receiver():
    cluster, channel, sp, rps = make_broadcast(n_receivers=2, capacity=2)
    n = 5
    send_times = []

    def send(p):
        for i in range(n):
            yield from channel.sender.send([i])
            send_times.append(cluster.now)

    got = {node: [] for node in rps}
    delays = {1: 0, 2: 5_000_000}  # receiver 2 is very slow

    def recv(p, node):
        yield p.think(delays[node])
        for _ in range(n):
            got[node].append((yield from channel.receivers[node].recv()))

    ctxs = [cluster.start(sp, send)]
    ctxs.extend(
        cluster.start(proc, lambda p, node=node: recv(p, node))
        for node, proc in rps.items()
    )
    cluster.run(join=ctxs)
    for node in rps:
        assert [m[0] for m in got[node]] == list(range(n))
    # The third message could not be sent until the slow receiver
    # freed slot 0.
    assert send_times[1] < 5_000_000
    assert send_times[2] > 5_000_000


def test_broadcast_validations():
    cluster = Cluster(ClusterConfig(n_nodes=3))
    with pytest.raises(ValueError, match="receiver"):
        BroadcastChannel(cluster, 0, [], name="a")
    with pytest.raises(ValueError, match="sender"):
        BroadcastChannel(cluster, 0, [0, 1], name="b")
    with pytest.raises(ValueError, match="fit"):
        BroadcastChannel(cluster, 0, [1], name="c",
                         capacity=1024, slot_words=16)


def test_unbound_endpoints_rejected():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    channel = BroadcastChannel(cluster, 0, [1], name="bc")
    with pytest.raises(RuntimeError):
        next(channel.sender.send([1]))
    with pytest.raises(RuntimeError):
        next(channel.receivers[1].recv())


def test_payload_bound_enforced():
    cluster, channel, sp, rps = make_broadcast(slot_words=4)

    def send(p):
        yield from channel.sender.send([1, 2, 3])

    ctx = cluster.start(sp, send)
    cluster.sim.strict_failures = False
    cluster.sim.run()
    assert isinstance(ctx.process.exception, ValueError)
