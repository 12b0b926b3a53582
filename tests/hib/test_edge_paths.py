"""Edge-path tests for the HIB: third-party copies, the one
outstanding read, reply bookkeeping, stats."""

import pytest

from repro.hib import OutstandingUnderflowError, Reg, SpecialOpcode
from repro.machine import Fence, Load, PalSequence, Store
from repro.os.scheduler import RoundRobinScheduler


class PeakDict(dict):
    """Stands in for a ledger's open ops (``OutstandingOps._open``) and
    remembers the most open requests, entries holding a reply future,
    it ever held at once; counted ops (``None``) do not count."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if value is not None:
            requests = sum(1 for entry in self.values() if entry is not None)
            self.peak = max(self.peak, requests)


def test_copy_between_two_remote_nodes(rig):
    """Copy where neither source nor destination is local: the home of
    the source reads it and forwards a write to the third node; the
    origin's fence still detects completion."""
    rig.node(1).backend.poke(0x10, 616)
    space = rig.space(0)
    hib_base = rig.map_hib_page(space, vpage=0)
    src_base = rig.map_remote(space, vpage=1, home=1)
    dst_base = rig.map_remote(space, vpage=2, home=2, remote_page=3)

    def prog():
        yield PalSequence([
            Store(hib_base + Reg.SPECIAL_MODE, SpecialOpcode.REMOTE_COPY.value),
            Store(src_base + 0x10, 0),
            Store(dst_base + 0x20, 0),
            Store(hib_base + Reg.SPECIAL_GO, 0),
        ])
        yield Fence()

    ctx = rig.run_on(0, prog(), space)
    rig.run_all(ctx)
    page = rig.amap.page_bytes
    assert rig.node(2).backend.peek(3 * page + 0x20) == 616
    assert rig.node(0).hib.outstanding.count == 0


def test_copy_local_to_local(rig):
    rig.node(0).backend.poke(0x0, 5)
    space = rig.space(0)
    hib_base = rig.map_hib_page(space, vpage=0)
    local_a = rig.map_mpm(space, vpage=1, local_page=0)
    local_b = rig.map_mpm(space, vpage=2, local_page=1)

    def prog():
        yield PalSequence([
            Store(hib_base + Reg.SPECIAL_MODE, SpecialOpcode.REMOTE_COPY.value),
            Store(local_a, 0),
            Store(local_b + 0x8, 0),
            Store(hib_base + Reg.SPECIAL_GO, 0),
        ])

    ctx = rig.run_on(0, prog(), space)
    rig.run_all(ctx)
    assert rig.node(0).backend.peek(rig.amap.page_bytes + 0x8) == 5
    # Pure local copy: no network traffic at all.
    assert rig.node(0).hib.stats["remote_writes"] == 0


def test_single_outstanding_read_token(rig):
    """§2.3.5 footnote: 'there can be no more than one outstanding
    read operation'.  A load blocks the CPU until its reply, so even
    two programs time-sliced on one CPU, both streaming remote loads,
    never have two READ_REQs pending at once."""
    hib = rig.node(0).hib
    hib.outstanding._open = PeakDict()
    for word in range(8):
        rig.node(1).backend.poke(4 * word, 100 + word)
    scheduler = RoundRobinScheduler(rig.sim, rig.params.timing,
                                    rig.node(0).cpu, quantum_ns=3_000)
    got = {0: [], 1: []}

    def prog(tag, base):
        for i in range(8):
            got[tag].append((yield Load(base + 4 * i)))

    ctxs = []
    for tag in (0, 1):
        space = rig.space(0)
        base = rig.map_remote(space, vpage=0, home=1)
        ctxs.append(rig.run_on(0, prog(tag, base), space))
    rig.run_all(*ctxs)
    assert got == {tag: [100 + i for i in range(8)] for tag in (0, 1)}
    assert scheduler.switches > 0  # the streams did interleave
    assert hib.stats["remote_reads"] == 16
    assert hib.outstanding._open.peak == 1
    assert not hib.outstanding._open


def test_unknown_reply_op_id_is_fatal(rig):
    """A reply for an operation nobody issued indicates protocol
    corruption; the HIB refuses to continue silently."""
    from repro.network.packet import Packet, PacketKind

    pkt = Packet(PacketKind.READ_REPLY, src=1, dst=0,
                 size_bytes=10, value=1, op_id=424242)

    def inject():
        yield rig.fabric.port(1).send(pkt)

    rig.sim.spawn(inject())
    with pytest.raises(RuntimeError, match="failed") as info:
        rig.sim.run()
    assert isinstance(info.value.__cause__, OutstandingUnderflowError)


@pytest.mark.parametrize("kind, open_as", [("READ_REPLY", "write"),
                                           ("ATOMIC_REPLY", "write"),
                                           ("WRITE_ACK", "request")])
def test_completion_of_the_wrong_kind_is_fatal(rig, kind, open_as):
    """A reply carrying an open write's id, or an ack carrying an open
    read's, is corruption too: it must not release FENCE early or
    resolve a blocked load with nothing.  The op stays open."""
    from repro.network.packet import Packet, PacketKind

    ledger = rig.node(0).hib.outstanding
    if open_as == "write":
        op_id = ledger.open()
    else:
        op_id, future = ledger.request()
    pkt = Packet(PacketKind[kind], src=1, dst=0, size_bytes=10, value=1,
                 op_id=op_id)

    def inject():
        yield rig.fabric.port(1).send(pkt)

    rig.sim.spawn(inject())
    with pytest.raises(RuntimeError, match="failed") as info:
        rig.sim.run()
    assert isinstance(info.value.__cause__, OutstandingUnderflowError)
    if open_as == "write":
        assert ledger.count == 1 and not ledger.fence().done
    else:
        assert not future.done
    assert op_id in ledger._open


def test_stats_counters_accumulate(rig):
    space = rig.space(0)
    base = rig.map_remote(space, vpage=0, home=1)

    def prog():
        yield Store(base, 1)
        yield Load(base)
        yield Fence()

    ctx = rig.run_on(0, prog(), space)
    rig.run_all(ctx)
    stats = rig.node(0).hib.stats
    assert stats["remote_writes"] == 1
    assert stats["remote_reads"] == 1
    # Home node served the write, the read, and nothing else odd.
    assert rig.node(1).hib.stats["packets_served"] >= 2


def test_hib_register_load_unknown_offset_fails(rig):
    from repro.hib import LaunchError

    space = rig.space(0)
    hib_base = rig.map_hib_page(space, vpage=0)

    def prog():
        yield Load(hib_base + 0x1000)  # in the register page, no such register

    ctx = rig.run_on(0, prog(), space)
    with pytest.raises(RuntimeError, match="failed") as info:
        rig.sim.run()
    assert info.value.__cause__ is ctx.process.exception
    assert isinstance(ctx.process.exception, LaunchError)


def test_hib_register_store_unknown_offset_fails(rig):
    from repro.hib import LaunchError

    space = rig.space(0)
    hib_base = rig.map_hib_page(space, vpage=0)

    def prog():
        yield Store(hib_base + Reg.NODE_ID, 7)  # read-only register

    ctx = rig.run_on(0, prog(), space)
    with pytest.raises(RuntimeError, match="failed") as info:
        rig.sim.run()
    assert info.value.__cause__ is ctx.process.exception
    assert isinstance(ctx.process.exception, LaunchError)
