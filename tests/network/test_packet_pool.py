"""Tests for packet construction and recycling (:class:`PacketPool`).

A recycled packet must be indistinguishable from a fresh one built
from the same arguments, down to the fault and routing state its
previous owner left on it, or a reused object would carry a stale
``corrupted`` flag or dateline mask into its next trip.
"""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.network import packet as packet_module
from repro.network.packet import Packet, PacketKind, PacketPool

ARGS = dict(address=0x40, value=7, op_id=3, origin=2, meta={"home": 2},
            injected_at=1234)


def mismatches(pool):
    """Slots (bar ``pid``) where a packet recycled through ``pool``
    differs from a fresh one built from the same arguments, after the
    previous owner set every slot a trip can touch."""
    used = pool.acquire(PacketKind.READ_REPLY, 5, 4, value=1,
                        meta={"stale": True})
    used.size_bytes, used.seq = 99, 11
    used.corrupted, used.vc_wrap = True, 0b101
    pool.release(used)
    recycled = pool.acquire(PacketKind.WRITE_REQ, 1, 2, **ARGS)
    assert recycled is used, "the pool did not recycle"
    fresh = Packet(PacketKind.WRITE_REQ, 1, 2, **ARGS)
    return [name for name in Packet.__slots__ if name != "pid"
            and getattr(recycled, name) != getattr(fresh, name)]


def _acquire_keeping_fault_state(self, kind, src, dst, address=None,
                                 value=None, op_id=None, origin=None,
                                 meta=None, injected_at=None):
    """A mutant pool whose recycled branch resets slots one by one and
    forgets ``corrupted`` and ``vc_wrap``."""
    if not self._free:
        return Packet(kind, src, dst, None, address, value, op_id, origin,
                      meta, injected_at=injected_at)
    packet = self._free.pop()
    packet.kind, packet.src, packet.dst = kind, src, dst
    packet.size_bytes = kind.size_bytes
    packet.address, packet.value = address, value
    packet.op_id, packet.origin = op_id, origin
    packet.meta = packet_module._EMPTY_META if meta is None else meta
    packet.pid = next(packet_module._packet_ids)
    packet.injected_at, packet.seq = injected_at, None
    return packet


def test_recycled_packet_equals_a_fresh_one():
    assert mismatches(PacketPool()) == []


def test_mutant_that_keeps_fault_state_is_caught(monkeypatch):
    monkeypatch.setattr(PacketPool, "acquire", _acquire_keeping_fault_state)
    assert sorted(mismatches(PacketPool())) == ["corrupted", "vc_wrap"]


def test_recycled_pid_comes_from_the_packet_counter():
    pool = PacketPool()
    pool.release(pool.acquire(PacketKind.WRITE_REQ, 0, 1))
    before = Packet(PacketKind.WRITE_REQ, 0, 1).pid
    recycled = pool.acquire(PacketKind.WRITE_REQ, 0, 1)
    after = Packet(PacketKind.WRITE_REQ, 0, 1).pid
    assert (pool.acquired, pool.recycled) == (1, 1)
    assert (recycled.pid, after) == (before + 1, before + 2)


@pytest.mark.parametrize("kind", list(PacketKind), ids=lambda k: k.name)
def test_size_defaults_to_the_kinds_wire_size(kind):
    pool = PacketPool()
    used = pool.acquire(PacketKind.WRITE_ACK, 0, 1)
    used.size_bytes = 99
    pool.release(used)
    recycled = pool.acquire(kind, 0, 1)
    assert pool.recycled == 1
    assert Packet(kind, 0, 1).size_bytes == recycled.size_bytes \
        == kind.size_bytes > 0
    assert Packet(kind, 0, 1, 99).size_bytes == 99


def test_recycling_rejects_a_packet_to_its_own_sender():
    pool = PacketPool()
    pool.release(pool.acquire(PacketKind.WRITE_REQ, 0, 1))
    with pytest.raises(ValueError, match="to itself"):
        pool.acquire(PacketKind.WRITE_REQ, 1, 1)


def test_zero_capacity_pool_keeps_nothing():
    pool = PacketPool(max_free=0)
    first = pool.acquire(PacketKind.LL_ACK, 0, 1, meta={"plane": "req"})
    pool.release(first)
    second = pool.acquire(PacketKind.LL_ACK, 0, 1)
    assert second is not first
    assert (pool.acquired, pool.recycled) == (2, 0)
    # A retransmit window may still hold a released packet: untouched.
    assert first.meta == {"plane": "req"}


def test_faulty_cluster_sends_every_packet_fresh():
    cluster = Cluster(ClusterConfig(n_nodes=3, faults={"seed": 5,
                                                       "drop_rate": 0.02}))
    pool = cluster.fabric.pool
    assert pool.max_free == 0
    assert all(port.pool is pool for port in cluster.fabric.ports.values())
    seg = cluster.alloc_segment(home=0, pages=1, name="s")
    proc = cluster.create_process(node=1, name="p")
    base = proc.map(seg)

    def program(p):
        for i in range(20):
            yield p.store(base + 4 * i, i)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    assert [seg.peek(4 * i) for i in range(20)] == list(range(20))
    assert pool.acquired > 20 and pool.recycled == 0
