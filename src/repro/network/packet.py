"""Network packets.

Every interaction between HIBs is one of a small set of packet kinds,
mirroring §2.2 of the paper:

- ``WRITE_REQ`` — a remote write (fire-and-forget; §2.2.1).
- ``READ_REQ`` / ``READ_REPLY`` — a blocking remote read round trip.
- ``ATOMIC_REQ`` / ``ATOMIC_REPLY`` — fetch_and_store / fetch_and_inc /
  compare_and_swap (§2.2.3), executed at the home HIB.
- ``COPY_REQ`` — remote copy: a non-blocking memory-to-memory read
  (§2.2.2); the home node answers with a ``WRITE_REQ`` carrying the
  data to the destination address.
- ``UPDATE`` — an eager-update / reflected-write multicast packet
  (§2.2.7, §2.3); carries the origin node so the counter protocol can
  recognise a node's own writes coming back from the owner.
- ``WRITE_ACK`` — completion notice used by the outstanding-operation
  counters that implement FENCE (§2.3.5).
- ``RING_UPDATE`` — Galactica-baseline ring traversal packet (§2.4).
- ``LL_ACK`` / ``LL_NACK`` — link-level control packets of the
  retry/timeout protocol (:mod:`repro.hib.reliable`): a cumulative
  acknowledgement, and a retransmit request naming the next expected
  sequence number.  They exist only when fault injection is enabled,
  are never themselves sequenced or acknowledged, and ride the
  response plane so congested request traffic cannot delay recovery.
- ``COLL_JOIN`` / ``COLL_RELEASE`` — NIC-resident collective packets
  (:mod:`repro.hib.collectives`): a combined arrival travelling *up*
  the combining tree, and the release/result travelling back *down*
  (or fanned out via the multicast directory).
- ``COLL_FADD`` / ``COLL_FADD_REPLY`` — a combined fetch-and-add
  travelling up the combining tree, and the base-value distribution
  coming back down.  All four collective kinds ride the request plane:
  a collective round is self-throttled (at most one outstanding round
  per group per node), so they cannot contribute to request/response
  protocol deadlock, and keeping them on one plane preserves the
  combining tree's FIFO ordering per parent/child link.

Each kind has one wire format, so :class:`PacketKind` carries its wire
size (``PacketKind.WRITE_REQ.size_bytes``), derived in one table below
from a 6-byte header and 4-byte addresses and words; links charge
serialization time on it.

``Packet`` is a ``__slots__`` class (not a dataclass): a packet is the
unit object of every fabric hot path, so it pays for neither an
instance ``__dict__`` nor a per-packet empty ``meta`` dict (the shared
immutable :data:`_EMPTY_META` stands in until a producer supplies
one).  ``Packet.__init__`` is the one constructor body: a
:class:`PacketPool` runs it on every object it hands out, new or
recycled, so a recycled packet cannot differ from a fresh one.  See the
ownership rules in :class:`PacketPool`'s docstring and DESIGN.md.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, List, Optional


class PacketKind(enum.Enum):
    WRITE_REQ = "write_req"
    READ_REQ = "read_req"
    READ_REPLY = "read_reply"
    ATOMIC_REQ = "atomic_req"
    ATOMIC_REPLY = "atomic_reply"
    COPY_REQ = "copy_req"
    UPDATE = "update"
    WRITE_ACK = "write_ack"
    RING_UPDATE = "ring_update"
    LL_ACK = "ll_ack"
    LL_NACK = "ll_nack"
    COLL_JOIN = "coll_join"
    COLL_RELEASE = "coll_release"
    COLL_FADD = "coll_fadd"
    COLL_FADD_REPLY = "coll_fadd_reply"

    #: Bytes on the wire, from :data:`_WIRE_BYTES` (set below).
    size_bytes: int

    @property
    def is_reply(self) -> bool:
        """Reply-class packets travel on the response virtual network
        (the Telegraphos switch provides VC-level flow control [17]);
        separating request and response traffic is also the classic
        guard against protocol deadlock, and it means a congested
        request stream cannot delay read replies or write acks."""
        return self._is_reply

    @property
    def is_ll_control(self) -> bool:
        """Link-level control packets are outside the sequence space:
        they are never acknowledged (loss is recovered by the sender's
        retransmission timeout, cf. Yu et al.'s NIC-based protocol)."""
        return self._is_ll_control

    @property
    def is_collective(self) -> bool:
        """Collective-protocol packets are served by the HIB's
        :class:`~repro.hib.collectives.CollectiveUnit`."""
        return self._is_collective


#: Wire size per kind, in bytes.  Header = route + type + sequence
#: (6 B); addresses and data words are 4 B each on the 32-bit HIB
#: datapath.  A 14-byte write packet at 20 B/µs serializes in 0.70 µs,
#: the paper's sustained write rate (§3.2).
_HEADER, _ADDRESS, _WORD = 6, 4, 4
_WIRE_BYTES = {
    "WRITE_REQ": _HEADER + _ADDRESS + _WORD,
    "READ_REQ": _HEADER + _ADDRESS,
    "READ_REPLY": _HEADER + _WORD,
    # Opcode folded into the header; address + up to two operands
    # (compare-and-swap carries both comparand and new value).
    "ATOMIC_REQ": _HEADER + _ADDRESS + 2 * _WORD,
    "ATOMIC_REPLY": _HEADER + _WORD,
    # Source and destination addresses (§2.2.4).
    "COPY_REQ": _HEADER + 2 * _ADDRESS,
    # Reflected write / multicast update: address + value + origin; a
    # Galactica ring update carries the same fields.
    "UPDATE": _HEADER + _ADDRESS + _WORD + 2,
    "RING_UPDATE": _HEADER + _ADDRESS + _WORD + 2,
    "WRITE_ACK": _HEADER,
    # Link-level ack/nack: plane tag + cumulative seq.
    "LL_ACK": _HEADER + _WORD,
    "LL_NACK": _HEADER + _WORD,
    # Combined arrival, and release/result: group/generation tag + value.
    "COLL_JOIN": _HEADER + 2 * _WORD,
    "COLL_RELEASE": _HEADER + 2 * _WORD,
    # Combined fetch&add: group/window tag + address + delta.
    "COLL_FADD": _HEADER + _ADDRESS + 2 * _WORD,
    # Base-value distribution: group/window tag + value.
    "COLL_FADD_REPLY": _HEADER + 2 * _WORD,
}

# Membership and size are fixed at class-definition time; precomputing
# them onto each member turns the per-packet plane test into one
# attribute load.
for _kind in PacketKind:
    _kind._is_ll_control = _kind.name in ("LL_ACK", "LL_NACK")
    _kind._is_reply = _kind.name in (
        "READ_REPLY", "ATOMIC_REPLY", "WRITE_ACK", "LL_ACK", "LL_NACK",
    )
    _kind._is_collective = _kind.name.startswith("COLL_")
    _kind.size_bytes = _WIRE_BYTES[_kind.name]
del _kind


_packet_ids = itertools.count()

#: Shared placeholder for packets constructed without extras.  Treated
#: as immutable everywhere: producers that need extras pass their own
#: dict at construction time, never mutate ``meta`` in place.
_EMPTY_META: Dict[str, Any] = {}

_PACKET_FIELDS = (
    "kind", "src", "dst", "size_bytes", "address", "value", "op_id",
    "origin", "meta", "pid", "injected_at", "seq", "corrupted",
    "vc_wrap",
)


class Packet:
    """One network packet.

    ``src`` and ``dst`` are host (node) identifiers; switches never
    appear as endpoints.  ``op_id`` ties replies to requests.
    ``origin`` is the node whose processor initiated the operation —
    for reflected writes it differs from ``src`` (which is the owner).

    Notable fields beyond the addressing tuple:

    - ``size_bytes`` — bytes on the wire; defaults to the kind's.
    - ``meta`` — free-form extras (atomic opcode/operands, copy
      destination...); defaults to the shared immutable empty dict.
    - ``pid`` — unique id (debugging, tracing).
    - ``injected_at`` — timestamp of injection (set by the sender).
    - ``seq`` — per-(destination, plane) sequence number, assigned by
      the reliable transport (:mod:`repro.hib.reliable`); ``None``
      when the retry protocol is off (the default lossless fabric).
    - ``corrupted`` — set by the fault injector to model an in-flight
      bit error; the reliable transport treats a corrupted packet as
      lost (checksum failure) and requests retransmission.
    - ``vc_wrap`` — per-dimension dateline bitmask used by torus
      routing (:mod:`repro.network.adaptive`): bit *d* set means the
      packet has crossed the dateline of torus dimension *d*, so
      escape hops in that dimension must use virtual-channel class 1.
      Reset to 0 at every fabric injection point; tree fabrics never
      touch it.
    """

    __slots__ = _PACKET_FIELDS

    def __init__(
        self,
        kind: PacketKind,
        src: int,
        dst: int,
        size_bytes: Optional[int] = None,
        address: Optional[int] = None,
        value: Optional[int] = None,
        op_id: Optional[int] = None,
        origin: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        injected_at: Optional[int] = None,
        seq: Optional[int] = None,
    ):
        if size_bytes is None:
            size_bytes = kind.size_bytes
        elif size_bytes <= 0:
            raise ValueError("packet size must be positive")
        if src == dst:
            raise ValueError(
                f"packet {kind} sent from node {src} to itself; "
                "local operations must not enter the fabric"
            )
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.address = address
        self.value = value
        self.op_id = op_id
        self.origin = origin
        self.meta = _EMPTY_META if meta is None else meta
        self.pid = next(_packet_ids)
        self.injected_at = injected_at
        self.seq = seq
        self.corrupted = False
        self.vc_wrap = 0

    def replace(self, **changes: Any) -> "Packet":
        """A field-for-field copy with ``changes`` applied (including
        the same ``pid``) — the retransmission clone of the reliable
        transport, replacing ``dataclasses.replace``."""
        clone = Packet.__new__(Packet)
        for name in _PACKET_FIELDS:
            setattr(clone, name, getattr(self, name))
        for name, value in changes.items():
            if name not in _PACKET_FIELDS:
                raise TypeError(f"unknown packet field {name!r}")
            setattr(clone, name, value)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet#{self.pid} {self.kind.value} {self.src}->{self.dst} "
            f"addr={self.address} val={self.value}>"
        )


class PacketPool:
    """Recycles :class:`Packet` objects.

    Ownership rules (see DESIGN.md, "Packet pooling"):

    - A packet has exactly one owner at a time.  Senders acquire;
      ownership travels with the packet through links and switches
      (which never copy or retain it).
    - The HIB servant/reply loops are the terminal consumers: they
      release the packet after its handler returns.  Handlers must not
      stash the packet object — anything needed later is copied out
      (every coherence engine sends a *fresh* packet).
    - ``acquire`` runs ``Packet.__init__`` on a recycled object, so it
      resets every slot a fresh packet would set and takes a fresh
      ``pid`` from the same global counter: pid streams — and
      therefore traces — are identical with and without recycling.
    - A faulty fabric builds its pool with ``max_free=0``: fault
      duplication and the reliable transport's retransmit window both
      create second references that outlive the service loop, so it
      keeps no released packet and every ``acquire`` builds a fresh one.

    The free list is bounded by ``max_free``; overflow packets are
    simply dropped for the garbage collector.
    """

    __slots__ = ("_free", "max_free", "acquired", "recycled")

    def __init__(self, max_free: int = 512):
        self._free: List[Packet] = []
        self.max_free = max_free
        self.acquired = 0
        self.recycled = 0

    def acquire(
        self,
        kind: PacketKind,
        src: int,
        dst: int,
        address: Optional[int] = None,
        value: Optional[int] = None,
        op_id: Optional[int] = None,
        origin: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        injected_at: Optional[int] = None,
    ) -> Packet:
        """A ``kind`` packet of the kind's wire size, recycled when the
        free list has one, else new."""
        free = self._free
        if free:
            packet = free.pop()
            self.recycled += 1
        else:
            packet = Packet.__new__(Packet)
            self.acquired += 1
        Packet.__init__(packet, kind, src, dst, None, address, value, op_id,
                        origin, meta, injected_at)
        return packet

    def release(self, packet: Packet) -> None:
        free = self._free
        if len(free) < self.max_free:
            packet.meta = _EMPTY_META  # drop payload references early
            free.append(packet)
