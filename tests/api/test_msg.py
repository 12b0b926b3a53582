"""Tests for the remote-write message channel."""

import pytest

from repro.api import Channel, Cluster, ClusterConfig


def make_channel(capacity=4, slot_words=8):
    cluster = Cluster(ClusterConfig(n_nodes=2))
    channel = Channel(cluster, sender_node=0, receiver_node=1,
                      name="ch", capacity=capacity, slot_words=slot_words)
    sender_proc = cluster.create_process(node=0, name="sender")
    receiver_proc = cluster.create_process(node=1, name="receiver")
    channel.sender.bind(sender_proc)
    channel.receiver.bind(receiver_proc)
    return cluster, channel, sender_proc, receiver_proc


def test_single_message_roundtrip():
    cluster, channel, sp, rp = make_channel()
    got = []

    def send(p):
        yield from channel.sender.send([1, 2, 3])

    def recv(p):
        got.append((yield from channel.receiver.recv()))

    ctxs = [cluster.start(sp, send), cluster.start(rp, recv)]
    cluster.run(join=ctxs)
    assert got == [[1, 2, 3]]


def test_messages_delivered_in_order():
    cluster, channel, sp, rp = make_channel(capacity=8)
    n = 20
    got = []

    def send(p):
        for i in range(n):
            yield from channel.sender.send([i, i * i])

    def recv(p):
        for _ in range(n):
            got.append((yield from channel.receiver.recv()))

    ctxs = [cluster.start(sp, send), cluster.start(rp, recv)]
    cluster.run(join=ctxs)
    assert got == [[i, i * i] for i in range(n)]
    assert channel.sender.messages_sent == n
    assert channel.receiver.messages_received == n


def test_flow_control_blocks_sender_when_ring_full():
    cluster, channel, sp, rp = make_channel(capacity=2)
    n = 6
    send_times = []
    got = []

    def send(p):
        for i in range(n):
            yield from channel.sender.send([i])
            send_times.append(cluster.now)

    def recv(p):
        yield p.think(3_000_000)  # receiver is slow to start
        for _ in range(n):
            got.append((yield from channel.receiver.recv()))

    ctxs = [cluster.start(sp, send), cluster.start(rp, recv)]
    cluster.run(join=ctxs)
    assert [m[0] for m in got] == list(range(n))
    # First two sends proceed immediately; the third waits for credit.
    assert send_times[1] < 3_000_000
    assert send_times[2] > 3_000_000


def test_payload_size_enforced():
    cluster, channel, sp, rp = make_channel(slot_words=4)  # 2 payload words

    def send(p):
        yield from channel.sender.send([1, 2, 3])

    ctx = cluster.start(sp, send)
    with pytest.raises(RuntimeError, match="failed") as info:
        cluster.sim.run()
    assert info.value.__cause__ is ctx.process.exception
    assert isinstance(ctx.process.exception, ValueError)


def test_unbound_endpoints_rejected():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    channel = Channel(cluster, 0, 1, name="ch")
    with pytest.raises(RuntimeError):
        next(channel.sender.send([1]))
    with pytest.raises(RuntimeError):
        next(channel.receiver.recv())


def test_bind_wrong_node_rejected():
    cluster = Cluster(ClusterConfig(n_nodes=3))
    channel = Channel(cluster, 0, 1, name="ch")
    wrong = cluster.create_process(node=2, name="wrong")
    with pytest.raises(ValueError):
        channel.sender.bind(wrong)


def test_channel_geometry_validated():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    with pytest.raises(ValueError):
        Channel(cluster, 0, 1, name="bad", capacity=0)
    with pytest.raises(ValueError):
        Channel(cluster, 0, 1, name="bad2", slot_words=2)
