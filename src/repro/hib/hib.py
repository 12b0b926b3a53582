"""The HIB core engine.

Two faces, exactly as in the hardware:

**TurboChannel slave** (:meth:`HIB.tc_store`, :meth:`HIB.tc_load`,
:meth:`HIB.tc_fence`) — invoked from the CPU's execution process.  The
HIB decodes the physical address (remote window / HIB register /
shadow / MPM) and turns the access into a packet, a register action,
or a local shared-memory access.  §2.2.1's asymmetry is structural
here: ``tc_store`` to a remote window completes once the packet is in
the outgoing FIFO; ``tc_load`` blocks on a reply future.

**Network servants** (one loop, spawned once per virtual network) —
drain the incoming FIFOs: the request servant serves write/read/atomic/
copy requests against the local shared-memory backend, plus
coherence-protocol packets, which are delegated to the attached
coherence engine; the reply servant serves completion packets (read
replies, atomic replies, write acks).

**One way out** — :meth:`HIB.send` emits every packet that leaves the
HIB, for the HIB itself, its collective unit and the coherence
engines: a packet of the fabric's pool, sent on the raw port or through
the reliable transport.

The coherence engine (see :mod:`repro.coherence`) is a pluggable
strategy; a bare HIB (``coherence=None``) gives exactly the paper's
base mechanisms: remote read/write/copy/atomics, page-access counters,
raw eager-update multicast, outstanding-op counters, FENCE.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.faults.injector import NodeUnreachableError
from repro.hib.atomic import AtomicOp, apply_atomic
from repro.hib.collectives import CollectiveUnit
from repro.hib.multicast import MulticastTable
from repro.hib.outstanding import OutstandingOps
from repro.hib.reliable import ReliableTransport
from repro.hib.page_counters import PageAccessCounters
from repro.hib.registers import Reg
from repro.hib.special import (
    LaunchError,
    SpecialModeTg1,
    SpecialOpcode,
    TelegraphosContext,
)
from repro.machine.addresses import AddressMap, Region
from repro.machine.bus import Bus
from repro.machine.interrupts import InterruptController
from repro.network.fabric import NetworkPort
from repro.network.packet import Packet, PacketKind
from repro.obs.metrics import MetricsRegistry
from repro.params import Params
from repro.sim import Accumulator, Simulator, Tracer


class HIB:
    """One node's Host Interface Board."""

    def __init__(
        self,
        sim: Simulator,
        params: Params,
        node_id: int,
        amap: AddressMap,
        port: NetworkPort,
        tc_bus: Bus,
        backend: Any,
        interrupts: Optional[InterruptController] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        injector: Any = None,
    ):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.amap = amap
        self.port = port
        self.tc_bus = tc_bus
        self.backend = backend
        self.interrupts = interrupts
        self.tracer = tracer or Tracer(clock=lambda: sim.now, enabled=False)

        sizing = params.sizing
        self.outstanding = OutstandingOps(node_id)
        self.page_counters = PageAccessCounters(
            counter_bits=sizing.page_counter_bits,
            max_pages=sizing.counted_pages,
            alarm=self._counter_alarm,
        )
        self.multicast = MulticastTable(sizing.multicast_entries)
        #: NIC-resident collectives (repro.hib.collectives).
        self.coll = CollectiveUnit(self)
        self.special1 = SpecialModeTg1()
        self.contexts = [TelegraphosContext(i) for i in range(sizing.contexts)]
        #: Pluggable coherence engine (repro.coherence); None = bare HIB.
        self.coherence: Any = None

        #: Page selected by the §2.2.6 counter-window registers.
        self._counter_select = [0, 0]

        # Statistics.
        self.stats = {
            "remote_writes": 0,
            "remote_reads": 0,
            "atomics": 0,
            "copies": 0,
            "multicast_updates": 0,
            "packets_served": 0,
            "acks_sent": 0,
            "acks_received": 0,
        }
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry(enabled=False))
        # The network time of every packet this HIB serves, injection
        # to servant pickup, per plane (``None`` when metrics are off).
        req_wait = self.metrics.distribution("hib.request_wait_ns",
                                             node=node_id)
        rsp_wait = self.metrics.distribution("hib.reply_wait_ns",
                                             node=node_id)
        #: Optional :class:`~repro.faults.FaultInjector` shared with
        #: the fabric; drives transient HIB hangs in the servant loops.
        self._injector = injector
        #: The retry/timeout protocol (:mod:`repro.hib.reliable`).
        #: Built exactly when faults are injected; ``None`` keeps every
        #: send and receive on the paper's raw lossless path.
        self._transport: Optional[ReliableTransport] = (
            None if injector is None else ReliableTransport(self, injector)
        )
        #: The fabric's packet pool (it keeps nothing under fault
        #: injection): :meth:`send` takes every outgoing packet from it,
        #: and the servant loops, the terminal consumers of every
        #: packet, release each one back after its handler returns.
        self._pool = port.pool
        #: Both servants' dispatch table, built once (not per packet).
        self._handlers = {
            PacketKind.READ_REPLY: self._serve_reply,
            PacketKind.ATOMIC_REPLY: self._serve_reply,
            PacketKind.WRITE_ACK: self._serve_ack,
            PacketKind.WRITE_REQ: self._serve_write,
            PacketKind.READ_REQ: self._serve_read,
            PacketKind.ATOMIC_REQ: self._serve_atomic,
            PacketKind.COPY_REQ: self._serve_copy,
            PacketKind.UPDATE: self._serve_update,
            PacketKind.RING_UPDATE: self._serve_ring,
            PacketKind.COLL_JOIN: self.coll.on_join,
            PacketKind.COLL_RELEASE: self.coll.on_release,
            PacketKind.COLL_FADD: self.coll.on_fadd,
            PacketKind.COLL_FADD_REPLY: self.coll.on_fadd_reply,
        }
        timing = params.timing
        self._service = sim.spawn(
            self._servant(port.receive, timing.hib_decode_ns, req_wait),
            name=f"hib{node_id}.svc")
        self._replies = sim.spawn(
            self._servant(port.receive_reply, 2 * timing.hib_cycle_ns,
                          rsp_wait),
            name=f"hib{node_id}.rsp")

    @property
    def transport(self) -> Optional[ReliableTransport]:
        """The reliable transport, or ``None`` on a lossless fabric."""
        return self._transport

    # ------------------------------------------------------------------
    # TurboChannel slave interface (called from the CPU's process)
    # ------------------------------------------------------------------

    def tc_store(self, phys: int, value: int):
        """A processor store that reached the TurboChannel."""
        timing = self.params.timing
        yield from self.tc_bus.transact(timing.tc_arb_ns + timing.tc_data_ns)
        yield timing.tc_sync_ns  # cross into the HIB clock domain
        decoded = self.amap.decode(phys)

        if decoded.shadow:
            self._shadow_store(phys, value)
            return
        if self.special1.armed and decoded.region in (Region.REMOTE, Region.MPM):
            # Telegraphos I special mode: the store is *not performed*;
            # its (TLB-checked) physical address and datum become
            # arguments (§2.2.4).
            self.special1.collect(phys, value)
            return
        if decoded.region is Region.REMOTE:
            yield from self._issue_remote_write(decoded.node, decoded.offset, value)
            return
        if decoded.region is Region.HIB:
            yield from self._register_store(decoded.offset, value)
            return
        if decoded.region is Region.MPM:
            yield from self._local_shared_store(decoded.offset, value)
            return
        raise RuntimeError(f"HIB saw store to unexpected region {decoded!r}")

    def tc_load(self, phys: int):
        """A processor load that reached the TurboChannel (blocking)."""
        timing = self.params.timing
        yield from self.tc_bus.transact(timing.tc_arb_ns + timing.tc_data_ns)
        yield timing.tc_sync_ns
        decoded = self.amap.decode(phys)

        if decoded.region is Region.REMOTE:
            value = yield from self._blocking_remote_read(
                decoded.node, decoded.offset
            )
        elif decoded.region is Region.HIB:
            value = yield from self._register_load(decoded.offset)
        elif decoded.region is Region.MPM:
            value = yield from self.backend.read(decoded.offset)
        else:
            raise RuntimeError(f"HIB saw load from unexpected region {decoded!r}")
        # Data-return phase on the TurboChannel.  Remote reads pay the
        # blocked-read completion penalty (retry polling on the real
        # TC) on top of the data cycle.
        if decoded.region is Region.REMOTE:
            yield timing.tc_read_return_ns
        yield from self.tc_bus.transact(timing.tc_data_ns)
        return value

    def tc_fence(self):
        """MEMORY_BARRIER (§2.3.5): stall until quiescent."""
        yield from self.tc_bus.transact(
            self.params.timing.tc_arb_ns + self.params.timing.tc_data_ns
        )
        yield self.outstanding.fence()

    def tc_collective(self, gid: int, op: str, value: Optional[int],
                      phys: Optional[int] = None):
        """A collective call that reached the TurboChannel: a barrier,
        reduction or broadcast arrival, or (``op="fadd"``) a combining
        fetch-and-add of ``value`` at the shared word ``phys``.  One TC
        transaction hands it to the HIB's collective unit; the
        processor then blocks on the result, like a blocked remote
        read."""
        timing = self.params.timing
        yield from self.tc_bus.transact(timing.tc_arb_ns + timing.tc_data_ns)
        yield timing.tc_sync_ns
        if op == "fadd":
            home, offset = self._decode_shared_target(phys)
            result = yield from self.coll.fetch_add(gid, home, offset, value)
        else:
            result = yield from self.coll.contribute(gid, op, value)
        yield from self.tc_bus.transact(timing.tc_data_ns)
        return result

    # ------------------------------------------------------------------
    # Outgoing operations
    # ------------------------------------------------------------------

    def send(self, kind: PacketKind, dst: int,
             address: Optional[int] = None, value: Optional[int] = None,
             op_id: Optional[int] = None, origin: Optional[int] = None,
             meta: Optional[Dict[str, Any]] = None):
        """Send a ``kind`` packet to ``dst``: the one way a packet leaves
        this HIB, for the HIB itself, its collective unit and the
        coherence engines.  The packet comes from the fabric's pool,
        stamped with this node, its kind's wire size and ``sim.now``,
        and goes out on the raw port on a lossless fabric or through
        the reliable transport under fault injection.  Blocks (like the
        port) while the egress FIFO is full — the §3.2 queueing either
        way."""
        packet = self._pool.acquire(
            kind, self.node_id, dst, address=address, value=value,
            op_id=op_id, origin=origin, meta=meta,
            injected_at=self.sim.now,
        )
        if self._transport is None:
            yield self.port.send(packet)
        else:
            yield from self._transport.send(packet)

    def _request(self, kind: PacketKind, home: int, offset: int,
                 meta: Optional[Dict[str, Any]] = None):
        """Send a READ_REQ or ATOMIC_REQ to ``home`` as a request in the
        ledger and block until its reply closes it; returns the reply's
        value."""
        op_id, future = self.outstanding.request()
        yield from self.send(kind, home, address=offset, op_id=op_id,
                             origin=self.node_id, meta=meta)
        value = yield future
        return value

    def abandon_packet(self, packet: Packet, peer: int) -> bool:
        """Finish what a packet the reliable transport gave up on
        (``peer`` declared unreachable) leaves open.  Returns ``True``
        if nothing stays waiting on it: the op this node started (its
        ``origin``, with an op id) is abandoned in the ledger, or the
        collective group's waiters fail.  ``False``: the completion it
        carried is another node's (a reply, a WRITE_ACK, forwarded
        coherence traffic), lost but for the NodeFailure report."""
        if packet.op_id is not None and packet.origin == self.node_id:
            self.outstanding.abandon(
                packet.op_id,
                NodeUnreachableError(self.node_id, peer, packet.op_id))
            return True
        if packet.kind.is_collective:
            return self.coll.abandon(packet, peer)
        return False

    def _issue_remote_write(self, home: int, offset: int, value: int):
        self.stats["remote_writes"] += 1
        self.page_counters.on_access((home, self.amap.page_of(offset)), "write")
        op_id = self.outstanding.open()
        # Blocks while the outgoing FIFO is full — the §3.2 queueing.
        yield from self.send(
            PacketKind.WRITE_REQ, home, address=offset, value=value,
            op_id=op_id, origin=self.node_id,
        )

    def _blocking_remote_read(self, home: int, offset: int):
        """§2.3.5 footnote: "no more than one outstanding read
        operation".  The load blocks the CPU, which runs one operation
        at a time, so a node never has two reads in flight."""
        self.stats["remote_reads"] += 1
        self.page_counters.on_access((home, self.amap.page_of(offset)), "read")
        value = yield from self._request(PacketKind.READ_REQ, home, offset)
        return value

    # ------------------------------------------------------------------
    # Register file
    # ------------------------------------------------------------------

    def _register_store(self, offset: int, value: int):
        split = Reg.split_context_offset(offset, self.amap.page_bytes)
        if split is not None:
            yield from self._context_store(split[0], split[1], value)
            return
        if offset == Reg.SPECIAL_MODE:
            self.special1.arm(value)
        elif offset == Reg.SPECIAL_GO:
            launch = self.special1.take_launch()
            yield from self._execute_special(*launch, blocking=False)
        elif offset == Reg.COUNTER_SELECT_NODE:
            self._counter_select[0] = value
        elif offset == Reg.COUNTER_SELECT_PAGE:
            self._counter_select[1] = value
        elif offset == Reg.COUNTER_READ_CTR:
            self.page_counters.set_counter(tuple(self._counter_select),
                                           "read", value)
        elif offset == Reg.COUNTER_WRITE_CTR:
            self.page_counters.set_counter(tuple(self._counter_select),
                                           "write", value)
        else:
            raise LaunchError(f"store to read-only/unknown HIB register 0x{offset:x}")

    def _register_load(self, offset: int):
        split = Reg.split_context_offset(offset, self.amap.page_bytes)
        if split is not None:
            value = yield from self._context_load(split[0], split[1])
            return value
        if offset == Reg.NODE_ID:
            yield 0
            return self.node_id
        if offset == Reg.OUTSTANDING:
            yield 0
            return self.outstanding.count
        if offset == Reg.FENCE:
            yield self.outstanding.fence()
            return 0
        if offset == Reg.SPECIAL_RESULT:
            launch = self.special1.take_launch()
            result = yield from self._execute_special(*launch, blocking=True)
            return result
        if offset == Reg.COUNTER_READ_CTR:
            yield 0
            return self.page_counters.read_counter(
                tuple(self._counter_select), "read")
        if offset == Reg.COUNTER_WRITE_CTR:
            yield 0
            return self.page_counters.read_counter(
                tuple(self._counter_select), "write")
        if offset == Reg.COUNTER_TOTAL:
            yield 0
            return self.page_counters.total_accesses(
                tuple(self._counter_select))
        raise LaunchError(f"load of unknown HIB register 0x{offset:x}")

    def _context(self, ctx_id: int) -> TelegraphosContext:
        if not 0 <= ctx_id < len(self.contexts):
            raise LaunchError(f"context id {ctx_id} out of range")
        return self.contexts[ctx_id]

    def _context_store(self, ctx_id: int, reg: int, value: int):
        context = self._context(ctx_id)
        if reg == Reg.CTX_GO:
            launch = context.take_launch()
            yield from self._execute_special(*launch, blocking=False)
        else:
            yield 0
            context.write_reg(reg, value)

    def _context_load(self, ctx_id: int, reg: int):
        context = self._context(ctx_id)
        if reg == Reg.CTX_GO:
            launch = context.take_launch()
            result = yield from self._execute_special(*launch, blocking=True)
            return result
        yield 0
        return context.read_reg(reg)

    def _shadow_store(self, phys: int, value: int) -> None:
        """A store into shadow space (Telegraphos II, §2.2.4/§2.2.5):
        the *datum* selects the context and carries the key; the
        *address* (unshadowed) is the physical argument."""
        ctx_id, key = Reg.split_shadow_argument(value)
        if not 0 <= ctx_id < len(self.contexts):
            self._protection_event("shadow store to bad context", ctx_id)
            return
        context = self.contexts[ctx_id]
        if context.key is None or context.key != key:
            self._protection_event("shadow store with wrong key", ctx_id)
            return
        context.latch_address(self.amap.unshadow(phys))

    def _protection_event(self, reason: str, ctx_id: int) -> None:
        self.tracer.record(
            "protection", node=self.node_id, reason=reason, ctx=ctx_id
        )
        if self.interrupts is not None:
            self.interrupts.post(
                "hib_protection", {"reason": reason, "ctx": ctx_id}
            )

    # ------------------------------------------------------------------
    # Special operations (atomics + remote copy)
    # ------------------------------------------------------------------

    def _decode_shared_target(self, phys: int):
        """A special-op physical argument must name shared memory:
        either a remote window (home = that node) or the local MPM
        (home = this node).  Returns (home_node, offset)."""
        decoded = self.amap.decode(phys)
        if decoded.region is Region.REMOTE:
            return decoded.node, decoded.offset
        if decoded.region is Region.MPM:
            return self.node_id, decoded.offset
        raise LaunchError(f"special-op argument {decoded!r} is not shared memory")

    def _execute_special(self, opcode, addresses, operands, blocking: bool):
        if opcode is SpecialOpcode.REMOTE_COPY:
            result = yield from self._execute_copy(addresses, operands)
            return result
        atomic = opcode.to_atomic()
        if not blocking:
            raise LaunchError(f"{opcode.name} must be launched as a blocking read")
        home, offset = self._decode_shared_target(addresses[0])
        self.stats["atomics"] += 1
        if home != self.node_id:
            self.page_counters.on_access((home, self.amap.page_of(offset)),
                                         "write")
        result = yield from self.home_atomic(
            home, offset, atomic, operands[0],
            operands[1] if len(operands) > 1 else 0)
        return result

    def home_atomic(self, home: int, offset: int, atomic: AtomicOp,
                    op0: int, op1: int = 0):
        """Apply ``atomic`` to the word at ``offset`` of ``home``'s
        shared memory and return its result: the one home-atomic path,
        for the special-operation unit and the collective unit's root.

        At a local home the atomic unit does the read-modify-write and
        the coherence engine propagates the new value; a remote home
        gets one ATOMIC_REQ, served by :meth:`_serve_atomic` there
        (§2.2.3: every atomic runs at the home HIB)."""
        if home != self.node_id:
            result = yield from self._request(
                PacketKind.ATOMIC_REQ, home, offset,
                meta={"atomic": atomic, "op0": op0, "op1": op1})
            return result
        yield self.params.timing.hib_atomic_extra_ns
        result, old, new = yield from self.backend.rmw(
            offset, lambda old: apply_atomic(atomic, old, op0, op1)
        )
        yield from self._after_home_atomic(offset, new, old)
        return result

    def _execute_copy(self, addresses, operands):
        """Remote copy (§2.2.2): non-blocking memory-to-memory read."""
        self.stats["copies"] += 1
        src_home, src_offset = self._decode_shared_target(addresses[0])
        dst_home, dst_offset = self._decode_shared_target(addresses[1])
        if src_home == self.node_id:
            value = yield from self.backend.read(src_offset)
            if dst_home == self.node_id:
                yield from self.backend.write(dst_offset, value)
            else:
                yield from self._issue_remote_write(dst_home, dst_offset, value)
            return 0
        self.page_counters.on_access(
            (src_home, self.amap.page_of(src_offset)), "read"
        )
        op_id = self.outstanding.open()
        yield from self.send(
            PacketKind.COPY_REQ, src_home, address=src_offset,
            op_id=op_id, origin=self.node_id,
            meta={"dst_node": dst_home, "dst_offset": dst_offset},
        )
        return 0

    def _after_home_atomic(self, offset: int, new: int, old: int):
        """Let the coherence engine propagate an atomic's effect on the
        home copy to any sharers."""
        if self.coherence is not None and new != old:
            yield from self.coherence.on_home_write(
                self, offset, new, origin=self.node_id
            )

    # ------------------------------------------------------------------
    # Local shared-memory stores (the coherence entry point)
    # ------------------------------------------------------------------

    def _local_shared_store(self, offset: int, value: int):
        page = self.amap.page_of(offset)
        if self.coherence is not None and self.coherence.handles_page(self, page):
            yield from self.coherence.on_local_store(self, offset, value)
            return
        yield from self.backend.write(offset, value)
        # Raw eager-update multicast (§2.2.7): mapped-out pages forward
        # every processor write to their remote images.
        destinations = self.multicast.destinations(page)
        if destinations:
            in_page = self.amap.page_offset(offset)
            for node, remote_page in destinations:
                self.stats["multicast_updates"] += 1
                yield from self._issue_remote_write(
                    node, self.amap.page_base(remote_page) + in_page, value
                )

    # ------------------------------------------------------------------
    # Network servant
    # ------------------------------------------------------------------

    def _servant(self, receive, service_ns: int,
                 wait: Optional[Accumulator]):
        """One network servant, spawned once per plane: ``receive``
        yields the next packet of its virtual network, ``service_ns``
        is its per-packet occupancy (the request decode, or the reply
        latch) and ``wait`` (``None`` when metrics are off) takes each
        packet's network time.

        The request servant serves writes, reads, atomics, copies and
        coherence/collective packets; the reply servant is the
        dedicated response latch, where replies and acks close their
        ops in the ledger, on a path congested request traffic
        cannot delay.  The fault gate, trace span, and metrics
        observation are all resolved once when the loop starts: an
        uninstrumented HIB pays for none of them per packet.  They only
        add work, never events, so the event schedule is independent of
        instrumentation.
        """
        sim = self.sim
        pool = self._pool
        handlers = self._handlers
        stats = self.stats
        transport = self._transport
        tracer = self.tracer
        span = tracer.span if (tracer.enabled and tracer.lanes) else None
        observe = None if wait is None else wait.add
        while True:
            packet: Packet = yield receive()
            if transport is not None:
                yield from self._faulty_receive_gate()
                if not transport.admit(packet):
                    continue
            stats["packets_served"] += 1
            if observe is not None and packet.injected_at is not None:
                observe(sim.now - packet.injected_at)
            began = sim.now
            yield service_ns
            yield from handlers[packet.kind](packet)
            if span is not None:
                span(
                    "hib_op", began, node=self.node_id,
                    kind=packet.kind.name, src=packet.src,
                )
            pool.release(packet)

    def _faulty_receive_gate(self):
        """Transient HIB hangs (fault injection): a hung board stops
        draining its FIFOs, so back-pressure builds behind it exactly
        as it would behind a wedged real board."""
        stall = self._injector.hang_remaining(self.node_id, self.sim.now)
        if stall:
            self.tracer.record("hib_hang", node=self.node_id, for_ns=stall)
            yield stall

    def _serve_write(self, packet: Packet):
        yield from self.backend.write(packet.address, packet.value)
        self.tracer.record(
            "home_write",
            node=self.node_id,
            offset=packet.address,
            value=packet.value,
            origin=packet.origin,
        )
        if self.coherence is not None:
            yield from self.coherence.on_home_write(
                self, packet.address, packet.value, origin=packet.origin
            )
        yield from self.ack(packet)

    def ack(self, packet: Packet):
        """Complete a served write, copy or counted update at its
        issuer."""
        if packet.origin == self.node_id:
            self.outstanding.close(packet.op_id)
            return
        self.stats["acks_sent"] += 1
        yield from self.send(PacketKind.WRITE_ACK, packet.origin,
                             op_id=packet.op_id)

    def _serve_read(self, packet: Packet):
        value = yield from self.backend.read(packet.address)
        yield self.params.timing.hib_inject_ns
        yield from self.send(PacketKind.READ_REPLY, packet.src,
                             address=packet.address, value=value,
                             op_id=packet.op_id)

    def _serve_atomic(self, packet: Packet):
        yield self.params.timing.hib_atomic_extra_ns
        result, old, new = yield from self.backend.rmw(
            packet.address,
            lambda o: apply_atomic(
                packet.meta["atomic"], o, packet.meta["op0"], packet.meta["op1"]
            ),
        )
        yield self.params.timing.hib_inject_ns
        yield from self.send(PacketKind.ATOMIC_REPLY, packet.src,
                             address=packet.address, value=result,
                             op_id=packet.op_id)
        yield from self._after_home_atomic(packet.address, new, old)

    def _serve_copy(self, packet: Packet):
        value = yield from self.backend.read(packet.address)
        dst_node = packet.meta["dst_node"]
        dst_offset = packet.meta["dst_offset"]
        if dst_node == self.node_id:
            yield from self.backend.write(dst_offset, value)
            yield from self.ack(packet)
            return
        yield self.params.timing.hib_inject_ns
        yield from self.send(
            PacketKind.WRITE_REQ, dst_node, address=dst_offset, value=value,
            op_id=packet.op_id,  # the copy's id, for its issuer's count
            origin=packet.origin,  # the copy's issuer gets the ack
        )

    def _serve_reply(self, packet: Packet):
        yield 0
        self.outstanding.close(packet.op_id, packet.value)

    def _serve_ack(self, packet: Packet):
        yield 0
        self.stats["acks_received"] += 1
        self.outstanding.close(packet.op_id)

    def _serve_update(self, packet: Packet):
        if self.coherence is None:
            raise RuntimeError(
                f"node {self.node_id}: UPDATE packet without a coherence engine"
            )
        yield from self.coherence.on_update(self, packet)

    def _serve_ring(self, packet: Packet):
        if self.coherence is None:
            raise RuntimeError(
                f"node {self.node_id}: RING_UPDATE without a coherence engine"
            )
        yield from self.coherence.on_ring(self, packet)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _counter_alarm(self, page_key, kind: str) -> None:
        self.tracer.record(
            "page_alarm", node=self.node_id, page=page_key, kind=kind
        )
        if self.interrupts is not None:
            self.interrupts.post("page_alarm", {"page": page_key, "kind": kind})

    def reset_special_state(self) -> None:
        """OS recovery path (§2.2.4 footnote): after killing a process
        that faulted mid-launch, restore the HIB to a clean state."""
        self.special1.reset()

    def assign_context(self, ctx_id: int, key: int) -> TelegraphosContext:
        """Driver operation: bind a context to a process via a key."""
        context = self._context(ctx_id)
        context.assign(key)
        return context
