"""The process switch, kept as a test oracle.

This is the tree-fabric switch the network shipped before switches
became callback state machines (:mod:`repro.network.switch`): per
input a forwarder process, per virtual output queue a pump process,
per output a transmitter process, joined by ``BoundedQueue``\\ s and a
token pool for the shared central buffer — nine generator resumptions
per packet.  Only its wiring changed: :meth:`ReferenceSwitch.add_output`
takes the outgoing link, as the fabric now passes it.  The
differential harness (``test_switch_equivalence.py``) runs the same
traffic through both and requires identical observable behaviour.  Do
not optimise it: its value is being independent of the code it checks.
"""

from __future__ import annotations

from typing import Dict

from repro.params import Params
from repro.sim import BoundedQueue, Simulator
from repro.network.packet import Packet
from repro.network.routing import NextHop


class ReferenceSwitch:
    """One switch: input FIFOs, routing table, shared buffer,
    per-output queues + transmitters.

    Ports are created by the fabric with :meth:`add_input` /
    :meth:`add_output`; the routing table is installed once with
    :meth:`install_routes` before traffic starts.
    """

    def __init__(self, sim: Simulator, params: Params, switch_id: object,
                 injector=None):
        self.sim = sim
        self.params = params
        self.switch_id = switch_id
        #: Optional :class:`~repro.faults.FaultInjector`: input ports
        #: are fault sites (named ``sw{id}.in.{label}``), modelling
        #: errors inside the switch datapath rather than on the wire.
        self.injector = injector
        self._inputs: Dict[object, BoundedQueue] = {}
        self._outputs: Dict[NextHop, BoundedQueue] = {}
        self._routes: Dict[int, NextHop] = {}
        # Resolved at install_routes time: dst host -> (hop, output
        # queue), so the forwarder's per-packet work is one dict hit.
        self._resolved: Dict[int, tuple] = {}
        # The shared central buffer, as a token pool.
        slots = params.sizing.switch_buffer_slots
        self._slots = BoundedQueue(slots, name=f"sw{switch_id}.buf")
        for _ in range(slots):
            self._slots.try_put(object())
        self.packets_routed = 0
        self.peak_buffer_use = 0
        #: Times a VOQ pump found the shared central buffer exhausted
        #: (the §2.1 back-pressure actually engaging).
        self.buffer_stalls = 0

    # -- wiring (fabric-time) ---------------------------------------------

    def add_input(self, label: object) -> BoundedQueue:
        """Create the input FIFO for a port; the fabric points a link
        at it.  Returns the queue."""
        if label in self._inputs:
            raise ValueError(f"duplicate input port {label!r} on {self.switch_id!r}")
        queue = BoundedQueue(
            self.params.sizing.switch_port_fifo,
            name=f"sw{self.switch_id}.in.{label}",
        )
        self._inputs[label] = queue
        self.sim.spawn(self._forwarder(queue),
                       name=f"sw{self.switch_id}.fwd.{label}")
        return queue

    def add_output(self, hop: NextHop, link) -> None:
        """Register the outgoing link for ``hop`` and start its
        transmitter on the link's source queue."""
        link_queue = link.src
        if hop in self._outputs:
            raise ValueError(f"duplicate output {hop!r} on {self.switch_id!r}")
        out_queue = BoundedQueue(
            self.params.sizing.switch_output_quota,
            name=f"sw{self.switch_id}.out.{hop}",
        )
        self._outputs[hop] = out_queue
        self.sim.spawn(
            self._transmitter(out_queue, link_queue),
            name=f"sw{self.switch_id}.tx.{hop}",
        )

    def install_routes(self, table: Dict[int, NextHop]) -> None:
        """Install the routing table, resolving every entry to its
        output queue up front.  Wiring errors (a route to a hop with
        no output) therefore surface at build time, not mid-traffic."""
        self._routes = dict(table)
        # Resolve each *distinct* hop once (a switch has a handful of
        # hops but, on a large fabric, thousands of destinations), then
        # fan the shared (hop, queue) pairs out in one comprehension.
        resolved_hops = {}
        for hop in set(self._routes.values()):
            out_queue = self._outputs.get(hop)
            if out_queue is None:
                raise RuntimeError(
                    f"switch {self.switch_id!r} routed to unwired hop {hop!r}"
                )
            resolved_hops[hop] = (hop, out_queue)
        self._resolved = {dst: resolved_hops[hop]
                          for dst, hop in self._routes.items()}

    # -- datapath -----------------------------------------------------------

    def _forwarder(self, in_queue: BoundedQueue):
        """Input stage: route into a per-(input, output) virtual output
        queue.  A congested output fills only its own VOQ; packets for
        other outputs at the same input flow past it — the VC-level
        flow control of [17], which is what makes the §2.3.5 fast-path
        /slow-path asymmetry physically possible.

        The input port is a fault site when an injector is attached;
        a lossless packet yields the same waitables either way, so the
        injector cannot change the event schedule."""
        route_ns = self.params.timing.switch_route_ns
        label = in_queue.name
        get = in_queue.get
        injector = self.injector
        voqs: Dict[NextHop, BoundedQueue] = {}
        voq_get = voqs.get
        while True:
            packet: Packet = yield get()
            duplicate = False
            if injector is not None:
                action = injector.action_for(label, packet)
                if action.kind == "drop":
                    continue
                if action.kind == "corrupt":
                    packet.corrupted = True
                elif action.kind == "duplicate":
                    duplicate = True
                elif action.kind == "stall":
                    yield action.stall_ns
            pair = self._resolved.get(packet.dst)
            if pair is None:
                raise RuntimeError(
                    f"switch {self.switch_id!r} has no route to host {packet.dst} "
                    f"(packet {packet!r})"
                )
            hop, _out = pair
            yield route_ns
            voq = voq_get(hop)
            if voq is None:
                voq = self._make_voq(label, hop, voqs)
            if duplicate:
                yield voq.put(packet)
            # Blocks only when THIS destination's VOQ is full.
            yield voq.put(packet)

    def _make_voq(self, label: str, hop: NextHop,
                  voqs: Dict[NextHop, BoundedQueue]) -> BoundedQueue:
        """Lazily create a virtual output queue and its pump.  Lazy so
        the pump-spawn order (and thus the event schedule) depends only
        on traffic, exactly as it did before route precomputation."""
        voq = BoundedQueue(
            self.params.sizing.switch_port_fifo,
            name=f"{label}.voq.{hop}",
        )
        voqs[hop] = voq
        self.sim.spawn(
            self._voq_pump(voq, self._outputs[hop]),
            name=f"{label}.pump.{hop}",
        )
        return voq

    def _voq_pump(self, voq: BoundedQueue, out_queue: BoundedQueue):
        """Move one VOQ's packets into the shared buffer / output
        queue, claiming central buffer slots."""
        while True:
            packet: Packet = yield voq.get()
            if not len(self._slots):
                self.buffer_stalls += 1
            token = yield self._slots.get()
            in_use = self._slots.capacity - len(self._slots)
            if in_use > self.peak_buffer_use:
                self.peak_buffer_use = in_use
            yield out_queue.put((token, packet))
            self.packets_routed += 1

    def _transmitter(self, out_queue: BoundedQueue, link_queue: BoundedQueue):
        """Output stage: feed the outgoing link, releasing the shared
        buffer slot once the link accepts the packet."""
        while True:
            token, packet = yield out_queue.get()
            yield link_queue.put(packet)  # blocks on link credits
            yield self._slots.put(token)

    # -- introspection ----------------------------------------------------------

    @property
    def buffer_in_use(self) -> int:
        return self._slots.capacity - len(self._slots)
