"""Point-to-point links.

A :class:`Link` moves packets from a source queue to a destination
queue, charging serialization (size / bandwidth) plus propagation.
Back-pressure is structural: a packet ``dst`` has not accepted keeps
the link's one flight slot, so a full far-end buffer stalls the link,
which fills the source queue, which stalls its feeder — the paper's
"back-pressured flow control" (§2.1).

The wire is one deep: while one packet flies (or waits at ``dst``), the
next waits on the wire and a third is held by the serializer, which
then stops draining the source.  Serialization overlaps the flight
before it, but flights are one at a time: packets leave at most one
per max(serialization, propagation).  FIFO stages keep order.  Each
step is an event of its own, a put from a switch included.

A link is a **fault site**: a :class:`~repro.faults.FaultInjector` may
drop, corrupt, duplicate or stall a traversal on its deterministic
schedule.  Without one (the default) the link is a lossless wire.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Tuple

from repro.params import TimingParams
from repro.sim import BoundedQueue, Simulator, Tracer
from repro.network.packet import Packet

_Slot = Optional[Tuple[int, Packet]]


class Link:
    """A unidirectional link as a callback state machine.  A hop is four
    events — serialization start and done, a delay-0 drain of ``src``
    that launches the flight, and arrival — each queued behind all
    already due at its instant, so the link's queue operations, fault
    decisions and trace records keep their order (DESIGN.md §7).
    Switches feed it through :meth:`put_then`.  A link starts waiting
    on ``src`` when it is built, before any packet can come, so
    building one posts no event."""

    __slots__ = ("sim", "timing", "src", "dst", "name", "node", "injector",
                 "packets_carried", "bytes_carried", "busy_ns", "_span",
                 "_flight", "_wire", "_held", "_due")

    def __init__(self, sim: Simulator, timing: TimingParams,
                 src: BoundedQueue, dst: BoundedQueue, name: str = "link",
                 node: Optional[int] = None, tracer: Optional[Tracer] = None,
                 injector: Optional[Any] = None):
        self.sim = sim
        self.timing = timing
        self.src = src
        self.dst = dst
        self.name = name
        #: Attached workstation (``None`` for cables): its trace row.
        self.node = node
        #: Optional :class:`~repro.faults.FaultInjector`.
        self.injector = injector
        self.packets_carried = self.bytes_carried = self.busy_ns = 0
        self._span = (tracer.span if tracer is not None
                      and tracer.enabled and tracer.lanes else None)
        # (serialization start, packet): flying or at dst, on wire, held.
        self._flight: _Slot = None
        self._wire: _Slot = None
        self._held: _Slot = None
        #: When the latest serialization ends.
        self._due = -1
        src.get_then(self._take)

    def put_then(self, packet: Packet, then: Callable[..., None],
                 args: Tuple[Any, ...] = ()) -> None:
        """Put ``packet`` on ``src`` and run ``then(*args)`` one delay-0
        step after ``src`` accepts it, where a process resuming from the
        put would: after the link's serialization start when the link
        was waiting for the packet."""
        if self.src.try_put(packet):
            self.sim._post(0, then, args)
        else:
            # Full: ``then`` is posted by the get that admits the packet.
            self.src.put_then(packet, partial(self.sim._post, 0, then, args))

    def _launch(self) -> None:
        self.sim._post(self.timing.link_prop_ns, self._arrive)

    def _drain(self, launch: bool = False) -> None:
        if launch:
            self._launch()
        # Takes at once when a packet is waiting, else on the put.
        self.src.get_then(self._take)

    def _take(self, packet: Packet) -> None:
        self.sim._post(0, self._start, (packet,))

    def _start(self, packet: Packet) -> None:
        ns = self.timing.serialization_ns(packet.size_bytes)
        self._due = self.sim.now + ns
        self.sim._post(ns, self._clocked, ((self.sim.now, packet), ns))

    def _clocked(self, item: Tuple[int, Packet], ns: int) -> None:
        self.busy_ns += ns
        if self._wire is not None:
            self._held = item
        elif self._flight is None:
            self._flight = item
            self.sim._post(0, self._drain, (True,))
        else:
            self._wire = item
            self.sim._post(0, self._drain)

    def _arrive(self) -> None:
        assert self._flight is not None
        packet = self._flight[1]
        if self.injector is not None:
            action = self.injector.action_for(self.name, packet)
            if action.kind == "drop":
                self._pop()
                return
            if action.kind == "corrupt":
                # A flag: the sender's retransmit window holds this object.
                packet.corrupted = True
            elif action.kind == "duplicate":
                deliver = partial(self.sim._post, 0, self._deliver, (packet,))
                if self.dst.put_then(packet, deliver):
                    deliver()
                return
            elif action.kind == "stall":
                self.sim._post(action.stall_ns, self._deliver, (packet,))
                return
        self._deliver(packet)

    def _deliver(self, packet: Packet) -> None:
        # Waits while the downstream buffer is full: back-pressure.
        if self.dst.put_then(packet, self._delivered):
            self._delivered()

    def _delivered(self) -> None:
        item = self._flight
        assert item is not None
        self.packets_carried += 1
        self.bytes_carried += item[1].size_bytes
        # Skip the delay-0 step that frees the slot when nothing can tell.
        if (self._span is None and self._wire is None
                and self._due != self.sim.now):
            self._flight = None
        else:
            self.sim._post(0, self._settle, (item,))

    def _settle(self, item: Tuple[int, Packet]) -> None:
        if self._span is not None:
            started, packet = item
            self._span("link_xfer", started, link=self.name, node=self.node,
                       src=packet.src, dst=packet.dst,
                       kind=packet.kind.name, bytes=packet.size_bytes)
        self._pop()

    def _pop(self) -> None:
        # Free the slot: the wire's packet flies and a held one moves up.
        self._flight = self._wire
        if self._flight is not None:
            self._wire, self._held = self._held, None
            if self._wire is not None:
                self.sim._post(0, self._drain)
            self.sim._post(0, self._launch)
