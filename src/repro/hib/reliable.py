"""The reliable HIB transport: sequence numbers, acks, retry, backoff.

Telegraphos never needed this — its links are lossless and
back-pressured (§2.1) — but the paper's completion-detection machinery
(outstanding-operation counters and FENCE, §2.2/§2.3.5) is exactly the
hardware a real cluster fabric builds retransmission on (cf. Yu et
al.'s NIC-based collective protocol; APEnet+).  When fault injection
(:mod:`repro.faults`) is configured, every HIB wraps its network port
in a :class:`ReliableTransport`:

**Sender side** — each ``(destination, plane)`` pair is a *channel*.
Outgoing packets get a per-channel sequence number and are held in the
channel's retransmit window until cumulatively acknowledged.  A
per-channel :class:`~repro.sim.Timer` drives timeout recovery; an
incoming NACK drives immediate recovery.  Either way the whole window
is retransmitted (go-back-N — cheap because the fabric preserves
per-plane FIFO order, so a gap can only mean loss), after a capped
exponential backoff, with the timeout itself backing off too.  After
``retry_limit`` consecutive retransmissions of the same window the
peer is declared unreachable and both its windows are abandoned: each
packet goes to :meth:`~repro.hib.hib.HIB.abandon_packet`, which
finishes in the node's operation ledger
(:mod:`repro.hib.outstanding`) any op of this node the packet still
held open (FENCE stops waiting for a write or update; a blocked read
or atomic fails with :class:`~repro.faults.NodeUnreachableError`).  A
structured :class:`~repro.faults.NodeFailure` lands in
``cluster.stats()``; its ``unrecovered`` count is the abandoned
packets whose completion another node waits for (replies and
WRITE_ACKs this node owes, forwarded coherence traffic).

**Receiver side** — per ``(source, plane)`` the transport admits
exactly the in-order prefix of the sequence space: duplicates are
discarded (and re-acked — the ack may have been the lost packet),
gaps trigger one NACK per missing sequence number, corrupted packets
(simulated checksum failure) are treated as loss.  Every admitted
packet is cumulatively acknowledged with an ``LL_ACK`` control packet;
control packets are themselves unsequenced — their loss is recovered
by the peer's timeout, which breaks the ack-of-ack regress.

**Counts** — the transport is the only writer of its counts: per peer,
a :class:`DestinationLog` (sent, acked, NACKs received, retransmits,
timeouts), and in :attr:`ReliableTransport.stats` the receiver and
control-path counts (NACKs sent, discarded duplicates and corrupt
packets, dropped link-level acks).  The cluster's metrics registry
reads both; ``hib.retransmits``, ``hib.timeouts`` and
``hib.nacks_received`` are sums over the logs.

A faulty fabric always runs the transport on every HIB; with faults
off it is never constructed and every code path in this module is
dead: the fabric behaves bit-identically to the lossless model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

import collections

from repro.faults.injector import NodeFailure, NodeUnreachableError
from repro.network.packet import Packet, PacketKind
from repro.sim import BoundedQueue, Future, Timer

#: A channel key: (peer node id, virtual-network plane).
ChannelKey = Tuple[int, str]


def plane_of(packet: Packet) -> str:
    return "rsp" if packet.kind.is_reply else "req"


@dataclass
class DestinationLog:
    """Per-peer delivery accounting for the retry protocol."""

    sent: int = 0
    acked: int = 0
    nacks_received: int = 0
    retransmits: int = 0
    timeouts: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "acked": self.acked,
            "nacks_received": self.nacks_received,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
        }


class _Channel:
    """Sender-side state for one (destination, plane) pair."""

    __slots__ = ("dst", "plane", "log", "next_seq", "unacked", "timer",
                 "retries", "retransmitting", "waiters", "dead")

    def __init__(self, dst: int, plane: str, log: DestinationLog):
        self.dst = dst
        self.plane = plane
        #: The peer's log, shared by its two planes' channels.
        self.log = log
        self.next_seq = 0
        self.unacked: Deque[Packet] = collections.deque()
        self.timer: Optional[Timer] = None
        #: Consecutive retransmissions of the current window (reset on
        #: any ack progress) — the backoff exponent.
        self.retries = 0
        self.retransmitting = False
        #: Sends blocked while a retransmission is in flight, so new
        #: sequence numbers cannot overtake the retransmitted window.
        self.waiters: list = []
        self.dead = False


class ReliableTransport:
    """Reliable delivery for one HIB over an unreliable fabric."""

    def __init__(self, hib, injector):
        self.hib = hib
        self.sim = hib.sim
        self.port = hib.port
        self.params = hib.params
        self.node_id = hib.node_id
        self.injector = injector
        self.tracer = hib.tracer

        #: Per-peer delivery accounting, one log per destination.
        self.destinations: Dict[int, DestinationLog] = {}
        #: Receiver and control-path counts.
        self.stats = {
            "nacks_sent": 0,
            "duplicates_discarded": 0,
            "corrupt_discarded": 0,
            "ll_acks_dropped": 0,
        }
        self._channels: Dict[ChannelKey, _Channel] = {}
        #: Receiver state: next expected seq per (source, plane).
        self._expected: Dict[ChannelKey, int] = {}
        #: The seq we last NACKed per (source, plane) — one NACK per gap.
        self._last_nacked: Dict[ChannelKey, Optional[int]] = {}

        sizing = self.params.sizing
        self._ctrl = BoundedQueue(
            sizing.ll_control_queue, name=f"hib{self.node_id}.llctrl"
        )
        self._ctrl_pump = self.sim.spawn(
            self._control_loop(), name=f"hib{self.node_id}.llctrl"
        )

        base = self.params.timing.retry_backoff_ns
        #: Every backoff taken (``None`` when metrics are off).
        self._backoffs = hib.metrics.distribution(
            "hib.backoff_ns", node=self.node_id,
            buckets=tuple(base << k for k in range(6)),
        )

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def _channel(self, dst: int, plane: str) -> _Channel:
        key = (dst, plane)
        channel = self._channels.get(key)
        if channel is None:
            log = self.destinations.get(dst)
            if log is None:
                log = self.destinations[dst] = DestinationLog()
            channel = self._channels[key] = _Channel(dst, plane, log)
            channel.timer = Timer(
                self.sim, lambda ch=channel: self._on_timeout(ch),
                name=f"hib{self.node_id}.rto.{dst}.{plane}",
            )
        return channel

    def send(self, packet: Packet):
        """Sequenced, retransmit-buffered send (a process generator)."""
        channel = self._channel(packet.dst, plane_of(packet))
        if channel.dead:
            yield 0
            self.hib.abandon_packet(packet, channel.dst)
            return
        while channel.retransmitting:
            gate = Future()
            channel.waiters.append(gate)
            yield gate
            if channel.dead:
                self.hib.abandon_packet(packet, channel.dst)
                return
        packet.seq = channel.next_seq
        channel.next_seq += 1
        channel.unacked.append(packet)
        channel.log.sent += 1
        if not channel.timer.armed:
            channel.timer.start(self._timeout_ns(channel))
        yield self.port.send(packet)

    def _timeout_ns(self, channel: _Channel) -> int:
        timing = self.params.timing
        return min(timing.retry_timeout_ns << channel.retries,
                   timing.retry_timeout_cap_ns)

    def _backoff_ns(self, channel: _Channel) -> int:
        timing = self.params.timing
        return min(timing.retry_backoff_ns << (channel.retries - 1),
                   timing.retry_backoff_cap_ns)

    def _on_ack(self, channel: _Channel, upto: int) -> None:
        progressed = False
        log = channel.log
        while channel.unacked and channel.unacked[0].seq <= upto:
            channel.unacked.popleft()
            log.acked += 1
            progressed = True
        if progressed:
            channel.retries = 0
        if channel.unacked:
            if not channel.retransmitting:
                channel.timer.start(self._timeout_ns(channel))
        else:
            channel.timer.cancel()

    def _on_nack(self, channel: _Channel, expected: int) -> None:
        channel.log.nacks_received += 1
        # Everything below the requested seq was delivered.
        self._on_ack(channel, expected - 1)
        self._recover(channel, reason="nack")

    def _on_timeout(self, channel: _Channel) -> None:
        if not channel.unacked or channel.dead or channel.retransmitting:
            return
        channel.log.timeouts += 1
        self.tracer.record(
            "retry_timeout", node=self.node_id, dst=channel.dst,
            plane=channel.plane, pending=len(channel.unacked),
        )
        self._recover(channel, reason="timeout")

    def _recover(self, channel: _Channel, reason: str) -> None:
        """Retransmit the whole unacked window after a backoff."""
        if channel.retransmitting or channel.dead or not channel.unacked:
            return
        channel.retries += 1
        if channel.retries > self.params.sizing.retry_limit:
            self._declare_dead(channel.dst, channel.retries - 1)
            return
        backoff = self._backoff_ns(channel)
        if self._backoffs is not None:
            self._backoffs.add(backoff)
        self.tracer.record(
            "retransmit", node=self.node_id, dst=channel.dst,
            plane=channel.plane, reason=reason, retry=channel.retries,
            backoff_ns=backoff, from_seq=channel.unacked[0].seq,
            count=len(channel.unacked),
        )
        channel.retransmitting = True
        channel.timer.cancel()
        self.sim.spawn(
            self._retransmit(channel, backoff),
            name=f"hib{self.node_id}.retx.{channel.dst}.{channel.plane}",
        )

    def _retransmit(self, channel: _Channel, backoff: int):
        yield backoff
        log = channel.log
        # Snapshot: acks arriving during a send can shrink the window.
        for packet in tuple(channel.unacked):
            if channel.dead:
                break
            clone = packet.replace(corrupted=False,
                                   injected_at=self.sim.now)
            log.retransmits += 1
            yield self.port.send(clone)
        channel.retransmitting = False
        waiters, channel.waiters = channel.waiters, []
        for gate in waiters:
            gate.set_result(None)
        if channel.unacked and not channel.dead:
            channel.timer.start(self._timeout_ns(channel))

    # ------------------------------------------------------------------
    # Failure degradation
    # ------------------------------------------------------------------

    def _declare_dead(self, peer: int, retries: int) -> None:
        lost: Dict[str, int] = {}
        unrecovered = 0
        for plane in ("req", "rsp"):
            channel = self._channels.get((peer, plane))
            if channel is None:
                continue
            channel.dead = True
            channel.timer.cancel()
            while channel.unacked:
                packet = channel.unacked.popleft()
                lost[packet.kind.name] = lost.get(packet.kind.name, 0) + 1
                if not self.hib.abandon_packet(packet, peer):
                    unrecovered += 1
            waiters, channel.waiters = channel.waiters, []
            for gate in waiters:
                gate.set_result(None)
        failure = NodeFailure(
            reporter=self.node_id, peer=peer, at_ns=self.sim.now,
            retries=retries, lost_packets=lost, unrecovered=unrecovered,
        )
        self.injector.record_failure(failure)

    def dead_peers(self):
        return sorted({dst for (dst, _), ch in self._channels.items()
                       if ch.dead})

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def admit(self, packet: Packet) -> bool:
        """Receiver filter: True iff the HIB should process ``packet``.

        Runs synchronously in the servant loop, before any simulated
        decode time; control sends are queued on the control pump.
        """
        if packet.corrupted:
            # Checksum failure: indistinguishable from loss.  A lost
            # ack or nack is recovered by this node's own timeout.
            self.stats["corrupt_discarded"] += 1
            if not packet.kind.is_ll_control:
                key = (packet.src, plane_of(packet))
                self._nack_once(key, packet, self._expected.get(key, 0))
            return False
        if packet.kind.is_ll_control:
            self._handle_control(packet)
            return False
        key = (packet.src, plane_of(packet))
        expected = self._expected.get(key, 0)
        if packet.seq == expected:
            self._expected[key] = expected + 1
            self._last_nacked[key] = None
            self._queue_control(PacketKind.LL_ACK, packet.src, key[1],
                               expected)
            return True
        if packet.seq < expected:
            # Duplicate (injected, or a retransmission that crossed the
            # ack): discard, but re-ack — the ack may have been lost.
            self.stats["duplicates_discarded"] += 1
            self._queue_control(PacketKind.LL_ACK, packet.src, key[1],
                               expected - 1)
            return False
        # Gap: in-order fabric means the missing packets are gone.
        self._nack_once(key, packet, expected)
        return False

    def _nack_once(self, key: ChannelKey, packet: Packet,
                   expected: int) -> None:
        if self._last_nacked.get(key) == expected:
            return
        self._last_nacked[key] = expected
        self.stats["nacks_sent"] += 1
        self.tracer.record(
            "nack", node=self.node_id, src=packet.src, plane=key[1],
            expected=expected, got=packet.seq,
        )
        self._queue_control(PacketKind.LL_NACK, packet.src, key[1], expected)

    def _handle_control(self, packet: Packet) -> None:
        plane = packet.meta["plane"]
        channel = self._channel(packet.src, plane)
        if channel.dead:
            return
        if packet.kind is PacketKind.LL_ACK:
            self._on_ack(channel, packet.meta["seq"])
        else:
            self._on_nack(channel, packet.meta["seq"])

    def _queue_control(self, kind: PacketKind, dst: int, plane: str,
                       seq: int) -> None:
        control = Packet(kind, self.node_id, dst,
                         meta={"plane": plane, "seq": seq},
                         injected_at=self.sim.now)
        if not self._ctrl.try_put(control):
            # Recovered by the peer's retransmission timeout.
            self.stats["ll_acks_dropped"] += 1

    def _control_loop(self):
        while True:
            packet = yield self._ctrl.get()
            yield self.port.send(packet)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "destinations": {dst: log.to_dict() for dst, log
                             in sorted(self.destinations.items())},
            "dead_peers": self.dead_peers(),
            "windows": {
                f"{dst}.{plane}": len(ch.unacked)
                for (dst, plane), ch in sorted(self._channels.items())
            },
        }


__all__ = ["DestinationLog", "ReliableTransport", "NodeUnreachableError",
           "plane_of"]
