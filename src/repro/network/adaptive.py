"""Torus switching: dimension-order and minimal-adaptive routing.

The tree-based up*/down* path (:mod:`repro.network.routing` +
:mod:`repro.network.switch`) is deadlock-free because a spanning tree
has no cycles — but it also leaves every non-tree cable idle.  A torus
(:class:`~repro.network.topology.TorusTopology`) is all cycles, so the
:class:`TorusSwitch` here derives its routes from switch *coordinates*
instead of a spanning tree, in one of two modes:

- **Dimension-order routing (DOR)** — resolve the offset to the
  destination one dimension at a time, lowest dimension first, taking
  the shorter way around each ring.  Deterministic: one path per
  (src, dst) pair, hence also in-order per pair.
- **Minimal adaptive** — at each switch, consider every *profitable*
  direction (one per unresolved dimension; minimal routing never
  moves away from the destination) and take the one whose adaptive
  output channel currently has the shallowest queue.  When every
  profitable adaptive channel is full, fall back to the DOR *escape*
  channel.  Adaptive routing balances load around hotspots but may
  reorder packets that share a (src, dst) pair.  Replies are matched
  by ``op_id`` and the reliable transport treats a gap as loss, but on
  a lossless fabric nothing restores per-pair order, so posted writes
  and multicast updates can apply out of order: a known violation of
  the §2.1 in-order property (DESIGN.md §10; the fix is a ROADMAP
  item).

Deadlock avoidance — dateline virtual channels (DESIGN.md §10):

Each directed inter-switch channel exists in up to three classes:
two *escape* classes (:data:`ESC0`/:data:`ESC1`) and, in adaptive
mode, one *adaptive* class (:data:`ADP`).  Escape hops use DOR with a
**dateline** discipline: each directed ring has a dateline at its
wraparound edge, a packet starts in class 0 and moves to class 1 on
the hop that crosses the dateline.  Per-packet state is the
``vc_wrap`` bitmask (bit *d* = "crossed the dateline of dimension
*d*"), updated on **every** hop — adaptive hops included — so a
packet that wrapped a ring via adaptive channels and only then needs
to escape still escapes in class 1.  Class-0 escape channels around a
ring form an open chain (broken at the dateline), class-1 likewise
(minimal packets never reach the dateline a second time), and DOR
orders escape dependencies from lower to higher dimensions, so the
escape channel-dependency graph is acyclic.  Adaptive channels are
only entered via a non-blocking ``try_put`` (the routing step checked
occupancy in the same step, so it can never block there), which makes
the escape network a valid Duato escape path: every blocked packet is
always one escape hop from progress, and escape drains.

Route table (DESIGN.md §10): a switch resolves each destination host
once, on the first packet to it, into either its ejection link or a
route shared by every destination with the same profitable directions
(at most 3^D - 1 per switch): the adaptive candidates in dimension
order and the DOR escape channel pair, each with its dateline bit and
whether the hop crosses it.  Per hop, routing then reads only the
candidate queues' length and capacity and the packet's ``vc_wrap``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.params import Params
from repro.sim import BoundedQueue, Simulator, Tally
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.switch import SwitchInput
from repro.network.topology import TorusTopology

#: Escape channel class used before crossing a ring's dateline.
ESC0 = 0
#: Escape channel class used on and after the dateline crossing.
ESC1 = 1
#: The adaptive channel class (non-blocking entry only).
ADP = 2

#: Channel-class display names, indexed by class id (link/queue names).
CHANNEL_NAMES = ("esc0", "esc1", "adp")

#: A directed output channel: (dimension, step, class).
ChannelKey = Tuple[int, int, int]

#: A route table entry: ``(ejection link,)``, or ``(candidates, esc0
#: link, esc1 link, dateline bit, crossing)`` where each adaptive
#: candidate is ``(queue, dateline bit, crossing)``.
RouteEntry = Tuple[Any, ...]


def minimal_directions(
    dims: Tuple[int, ...],
    src: Tuple[int, ...],
    dst: Tuple[int, ...],
) -> List[Tuple[int, int]]:
    """Profitable (dimension, step) pairs from ``src`` toward ``dst``.

    One entry per unresolved dimension, ascending dimension order (the
    DOR escape hop is the first entry).  ``step`` is +1 or -1, the
    shorter way around that ring; an exactly-opposite offset on an
    even-sized ring deterministically goes +1.
    """
    out: List[Tuple[int, int]] = []
    for dim, size in enumerate(dims):
        delta = (dst[dim] - src[dim]) % size
        if delta == 0:
            continue
        out.append((dim, 1 if delta * 2 <= size else -1))
    return out


def dor_path(
    dims: Tuple[int, ...],
    src: Tuple[int, ...],
    dst: Tuple[int, ...],
) -> List[Tuple[int, ...]]:
    """The switch coordinates a DOR packet visits, ``src`` to ``dst``
    inclusive — the golden-case oracle for the torus tests."""
    path = [src]
    current = list(src)
    for dim, size in enumerate(dims):
        delta = (dst[dim] - current[dim]) % size
        step = 1 if delta * 2 <= size else -1
        hops = delta if step == 1 else size - delta
        for _ in range(hops):
            current[dim] = (current[dim] + step) % size
            path.append(tuple(current))
    return path


def dor_route_length(topo: TorusTopology, src_host: int, dst_host: int) -> int:
    """Number of switches a DOR route visits (1 = same switch) — the
    torus counterpart of :func:`repro.network.routing.route_length`."""
    a = topo.host_attachment[src_host]
    b = topo.host_attachment[dst_host]
    assert isinstance(a, tuple) and isinstance(b, tuple)
    return len(dor_path(topo.dims, a, b))


class TorusSwitch:
    """One torus switch: coordinate routing over classed channels.

    Unlike the tree :class:`~repro.network.switch.Switch` there is no
    shared central buffer or VOQ stage — each output channel is its
    own outgoing link, so the only waits a forwarder can make are on
    escape channels and host ejection, which keeps the deadlock
    argument above airtight.  Each input port is a
    :class:`~repro.network.switch.SwitchInput` that hands packets to
    :meth:`_forward`, a callback state machine like the tree switch's.
    Wiring protocol (driven by :class:`~repro.network.fabric.Fabric`):
    :meth:`add_input` per incoming link, :meth:`add_channel` per
    outgoing inter-switch channel class, :meth:`add_ejection` per
    attached host.
    """

    def __init__(self, sim: Simulator, params: Params, switch_id: object,
                 coords: Tuple[int, ...], topo: TorusTopology,
                 host_coords: Dict[int, Tuple[int, ...]],
                 adaptive: bool, injector: Optional[Any] = None):
        self.sim = sim
        self.params = params
        self.switch_id = switch_id
        self.coords = coords
        self.dims = topo.dims
        #: dst host -> coordinates of its switch (shared, fabric-built).
        self._host_coords = host_coords
        self.adaptive = adaptive
        #: Optional :class:`~repro.faults.FaultInjector`: input ports
        #: are fault sites, exactly as on the tree switch.
        self.injector = injector
        self._inputs: Dict[object, SwitchInput] = {}
        self._channels: Dict[ChannelKey, Link] = {}
        self._ejections: Dict[int, Link] = {}
        #: dst host -> route entry, filled on its first packet.
        self._table: Dict[int, RouteEntry] = {}
        #: Profitable directions -> the route entry they share.
        self._routes: Dict[Tuple[Tuple[int, int], ...], RouteEntry] = {}
        self.packets_routed = 0
        #: Hops taken on an adaptive channel (always 0 under DOR).
        self.adaptive_hops = 0
        #: Hops taken on an escape (DOR + dateline) channel.
        self.escape_hops = 0
        #: Hops that crossed a ring's dateline (on any channel class).
        self.datelines_crossed = 0
        #: Adaptive-channel fallbacks: every profitable adaptive
        #: channel was full and the packet took the escape channel.
        self.escape_fallbacks = 0
        #: Channel queue depths observed at routing decisions — every
        #: profitable adaptive candidate (adaptive mode) or the chosen
        #: escape channel (DOR mode).  A channel holds at most
        #: ``link_credits`` packets.
        self.queue_depth = Tally(params.sizing.link_credits + 1,
                                 f"sw{switch_id}.queue_depth")

    @property
    def stats(self) -> Dict[str, int]:
        """Plain-integer counters, for gauges and collectors."""
        return {
            "packets_routed": self.packets_routed,
            "adaptive_hops": self.adaptive_hops,
            "escape_hops": self.escape_hops,
            "datelines_crossed": self.datelines_crossed,
            "escape_fallbacks": self.escape_fallbacks,
        }

    # -- wiring (fabric-time) ---------------------------------------------

    def add_input(self, label: object, from_host: bool = False) -> BoundedQueue:
        """Create the input FIFO for an incoming link.  ``from_host``
        marks an injection port, which resets each packet's
        ``vc_wrap``.  The port, its queue and its fault site are named
        ``sw{switch_id}.in.{label}``."""
        if label in self._inputs:
            raise ValueError(
                f"duplicate input port {label!r} on {self.switch_id!r}")
        port = self._inputs[label] = SwitchInput(self, label, from_host)
        return port.queue

    def add_channel(self, dim: int, step: int, cls: int, link: Link) -> None:
        """Register the outgoing link as the (``dim``, ``step``,
        ``cls``) output channel."""
        key = (dim, step, cls)
        if key in self._channels:
            raise ValueError(
                f"duplicate channel {key!r} on {self.switch_id!r}")
        self._channels[key] = link

    def add_ejection(self, node_id: int, link: Link) -> None:
        """Register the outgoing host link as the ejection port for
        locally attached ``node_id``."""
        if node_id in self._ejections:
            raise ValueError(
                f"duplicate ejection port {node_id} on {self.switch_id!r}")
        self._ejections[node_id] = link

    # -- datapath -----------------------------------------------------------

    def _forward(self, port: SwitchInput, packet: Packet,
                 duplicate: bool) -> None:
        """Route a packet to an ejection port, an adaptive channel
        (non-blocking), or an escape channel.

        A duplicated packet is cloned *before* the original is
        dispatched: the two copies route (and accumulate ``vc_wrap``
        dateline state) independently.  The tree switch can enqueue one
        object twice because its packets carry no routing state; here
        that would let one copy's dateline crossing leak into the
        other's class selection."""
        self._dispatch(port, packet, packet.replace() if duplicate else None)

    def _dispatch(self, port: SwitchInput, packet: Packet,
                  spare: Optional[Packet]) -> None:
        """Place ``packet``, then ``spare`` (a duplicate's clone), then
        take the port's next packet.  Only an ejection or escape put
        can wait; the port resumes in :meth:`_sent`."""
        while True:
            link = self._route(packet)
            if link is not None:
                link.put_then(packet, self._sent, (port, spare))
                return
            if spare is None:
                port.listen()
                return
            packet, spare = spare, None

    def _route(self, packet: Packet) -> Optional[Link]:
        """The ejection or escape link ``packet`` must be put on, or
        ``None`` when an adaptive channel took it.  Reads the table
        entry for ``packet.dst`` (see :meth:`_fill`), the candidate
        queues' ``len()`` and ``capacity`` and the packet's
        ``vc_wrap``."""
        route = self._table.get(packet.dst)
        if route is None:
            route = self._fill(packet)
        if len(route) == 1:
            return route[0]
        candidates, esc0, esc1, bit, crossing = route
        depths = self.queue_depth.counts
        if self.adaptive:
            best = None
            best_depth = 0
            for candidate in candidates:
                queue = candidate[0]
                depth = len(queue)
                depths[depth] += 1
                if depth < queue.capacity and (best is None
                                               or depth < best_depth):
                    best = candidate
                    best_depth = depth
            if best is not None:
                queue, best_bit, best_crossing = best
                if best_crossing:
                    packet.vc_wrap |= best_bit
                    self.datelines_crossed += 1
                # Checked not-full in this same step, so the put cannot
                # fail — the adaptive class never blocks a forwarder.
                accepted = queue.try_put(packet)
                assert accepted, "adaptive channel filled mid-step"
                self.adaptive_hops += 1
                self.packets_routed += 1
                return None
            self.escape_fallbacks += 1
        # Escape: DOR — lowest unresolved dimension, dateline class from
        # the packet's per-dimension wrap bitmask.
        if crossing:
            packet.vc_wrap |= bit
            self.datelines_crossed += 1
            link = esc1
        else:
            link = esc1 if packet.vc_wrap & bit else esc0
        if not self.adaptive:
            depths[len(link.src)] += 1
        self.escape_hops += 1
        # Waits while the escape channel is full: the only inter-switch
        # wait, on the acyclic escape network.
        return link

    def _fill(self, packet: Packet) -> RouteEntry:
        """Record the route table entry for ``packet.dst``: its ejection
        link when it is attached here, else the route shared by every
        destination with the same profitable directions, built on first
        use."""
        dst = packet.dst
        dst_sw = self._host_coords.get(dst)
        if dst_sw is None:
            raise RuntimeError(
                f"switch {self.switch_id!r} has no route to host "
                f"{dst} (packet {packet!r})"
            )
        if dst_sw == self.coords:
            eject = self._ejections.get(dst)
            if eject is None:
                raise RuntimeError(
                    f"switch {self.switch_id!r} has no ejection "
                    f"port for host {dst}"
                )
            entry: RouteEntry = (eject,)
        else:
            dirs = tuple(minimal_directions(self.dims, self.coords, dst_sw))
            if dirs not in self._routes:
                self._routes[dirs] = self._build_route(dirs)
            entry = self._routes[dirs]
        self._table[dst] = entry
        return entry

    def _build_route(self, dirs: Tuple[Tuple[int, int], ...]) -> RouteEntry:
        """The route along profitable directions ``dirs``: the adaptive
        candidates in dimension order (adaptive mode only), then the
        DOR escape pair for the first of them."""
        channels = self._channels
        candidates = tuple(
            (channels[(dim, step, ADP)].src, 1 << dim,
             self._crosses_dateline(dim, step))
            for dim, step in dirs) if self.adaptive else ()
        dim, step = dirs[0]
        return (candidates, channels[(dim, step, ESC0)],
                channels[(dim, step, ESC1)], 1 << dim,
                self._crosses_dateline(dim, step))

    def _sent(self, port: SwitchInput, spare: Optional[Packet]) -> None:
        """The ejection or escape channel accepted the packet."""
        self.packets_routed += 1
        if spare is None:
            port.listen()
        else:
            self._dispatch(port, spare, None)

    def _crosses_dateline(self, dim: int, step: int) -> bool:
        """Whether a hop from here along (``dim``, ``step``) traverses
        that directed ring's dateline (its wraparound edge)."""
        coord = self.coords[dim]
        return coord == self.dims[dim] - 1 if step == 1 else coord == 0
