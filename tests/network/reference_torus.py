"""The process torus switch, kept as a test oracle.

This is the torus-fabric switch the network shipped before switches
became callback state machines (:mod:`repro.network.adaptive`): one
forwarder process per input, yielding on ``BoundedQueue`` puts into the
outgoing links' source queues.  Only its wiring changed:
:meth:`ReferenceTorusSwitch.add_channel` and
:meth:`ReferenceTorusSwitch.add_ejection` take the outgoing link, as
the fabric now passes it.  The differential harness
(``test_switch_equivalence.py``) runs the same traffic through both and
requires identical observable behaviour.  Do not optimise it: its value
is being independent of the code it checks.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.network.adaptive import ADP, ESC0, ESC1, ChannelKey, minimal_directions
from repro.network.packet import Packet
from repro.network.topology import TorusTopology
from repro.params import Params
from repro.sim import BoundedQueue, Simulator, Tally


class ReferenceTorusSwitch:
    """One torus switch: coordinate routing over classed channels.

    Unlike the tree :class:`~repro.network.switch.Switch` there is no
    shared central buffer or VOQ stage — each output channel is its
    own bounded queue feeding its own link, so the only waits a
    forwarder can make are on escape channels and host ejection, which
    keeps the deadlock argument above airtight.  Wiring protocol
    (driven by :class:`~repro.network.fabric.Fabric`):
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
        self._inputs: Dict[object, BoundedQueue] = {}
        self._channels: Dict[ChannelKey, BoundedQueue] = {}
        self._ejections: Dict[int, BoundedQueue] = {}
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
        #: escape channel (DOR mode).
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
        """Create the input FIFO for an incoming link and spawn its
        forwarder.  ``from_host`` marks an injection port: its
        forwarder resets each packet's ``vc_wrap`` (host software — and
        the reliable transport's retransmit window — may hand the
        fabric a packet object that has travelled before)."""
        if label in self._inputs:
            raise ValueError(
                f"duplicate input port {label!r} on {self.switch_id!r}")
        queue = BoundedQueue(
            self.params.sizing.switch_port_fifo,
            name=f"sw{self.switch_id}.in.{label}",
        )
        self._inputs[label] = queue
        self.sim.spawn(
            self._forwarder(queue, from_host),
            name=f"sw{self.switch_id}.fwd.{label}",
        )
        return queue

    def add_channel(self, dim: int, step: int, cls: int, link) -> None:
        """Register the outgoing link's source queue as the
        (``dim``, ``step``, ``cls``) output channel."""
        key = (dim, step, cls)
        if key in self._channels:
            raise ValueError(
                f"duplicate channel {key!r} on {self.switch_id!r}")
        self._channels[key] = link.src

    def add_ejection(self, node_id: int, link) -> None:
        """Register the outgoing host link's source queue as the
        ejection port for locally attached ``node_id``."""
        if node_id in self._ejections:
            raise ValueError(
                f"duplicate ejection port {node_id} on {self.switch_id!r}")
        self._ejections[node_id] = link.src

    # -- datapath -----------------------------------------------------------

    def _forwarder(self, in_queue: BoundedQueue,
                   from_host: bool) -> Generator[Any, Any, None]:
        """Drain one input FIFO: route each packet to an ejection port,
        an adaptive channel (non-blocking), or an escape channel."""
        route_ns = self.params.timing.switch_route_ns
        coords = self.coords
        dims = self.dims
        adaptive = self.adaptive
        channels = self._channels
        host_coords = self._host_coords
        injector = self.injector
        label = in_queue.name
        get = in_queue.get
        while True:
            packet: Packet = yield get()
            if from_host:
                packet.vc_wrap = 0
            deliveries = 1
            if injector is not None:
                action = injector.action_for(label, packet)
                if action.kind == "drop":
                    continue
                if action.kind == "corrupt":
                    packet.corrupted = True
                elif action.kind == "duplicate":
                    deliveries = 2
                elif action.kind == "stall":
                    yield action.stall_ns
            yield route_ns
            # A duplicated packet is cloned *before* the original is
            # dispatched: the two copies route (and accumulate
            # ``vc_wrap`` dateline state) independently.  The tree
            # switch can enqueue one object twice because its packets
            # carry no routing state; here that would let one copy's
            # dateline crossing leak into the other's class selection.
            copies = ((packet,) if deliveries == 1
                      else (packet, packet.replace()))
            for pkt in copies:
                dst_sw = host_coords.get(pkt.dst)
                if dst_sw is None:
                    raise RuntimeError(
                        f"switch {self.switch_id!r} has no route to host "
                        f"{pkt.dst} (packet {pkt!r})"
                    )
                if dst_sw == coords:
                    eject = self._ejections.get(pkt.dst)
                    if eject is None:
                        raise RuntimeError(
                            f"switch {self.switch_id!r} has no ejection "
                            f"port for host {pkt.dst}"
                        )
                    yield eject.put(pkt)
                    self.packets_routed += 1
                    continue
                dirs = minimal_directions(dims, coords, dst_sw)
                if adaptive:
                    best: Optional[Tuple[int, int]] = None
                    best_depth = 0
                    for dim, step in dirs:
                        chan = channels[(dim, step, ADP)]
                        depth = len(chan)
                        self.queue_depth.add(depth)
                        if not chan.full and (best is None
                                              or depth < best_depth):
                            best = (dim, step)
                            best_depth = depth
                    if best is not None:
                        dim, step = best
                        if self._crosses_dateline(dim, step):
                            pkt.vc_wrap |= 1 << dim
                            self.datelines_crossed += 1
                        # Checked not-full in this same step (no yield
                        # since), so the put cannot fail — the adaptive
                        # class never blocks a forwarder.
                        accepted = channels[(dim, step, ADP)].try_put(pkt)
                        assert accepted, "adaptive channel filled mid-step"
                        self.adaptive_hops += 1
                        self.packets_routed += 1
                        continue
                    self.escape_fallbacks += 1
                # Escape: DOR — lowest unresolved dimension, dateline
                # class from the packet's per-dimension wrap bitmask.
                dim, step = dirs[0]
                crossing = self._crosses_dateline(dim, step)
                cls = ESC1 if crossing or (pkt.vc_wrap >> dim) & 1 else ESC0
                if crossing:
                    pkt.vc_wrap |= 1 << dim
                    self.datelines_crossed += 1
                chan = channels[(dim, step, cls)]
                if not adaptive:
                    self.queue_depth.add(len(chan))
                self.escape_hops += 1
                # Blocks while the escape channel is full: the only
                # inter-switch wait, on the acyclic escape network.
                yield chan.put(pkt)
                self.packets_routed += 1

    def _crosses_dateline(self, dim: int, step: int) -> bool:
        """Whether a hop from here along (``dim``, ``step``) traverses
        that directed ring's dateline (its wraparound edge)."""
        coord = self.coords[dim]
        return coord == self.dims[dim] - 1 if step == 1 else coord == 0

