"""The Telegraphos switch model.

The real switch is a **pipelined-memory shared-buffer** design
([16]: "Pipelined Memory Shared Buffer for VLSI Switches"; [17] adds
VC-level flow control).  Behaviourally that means:

- **deterministic routing**: a fixed table maps destination host to
  output port;
- **no head-of-line blocking**: arriving packets are deposited into a
  *shared central buffer* and linked onto per-output queues, so a
  congested output never blocks traffic for other outputs at the same
  input — until the shared buffer itself fills;
- **per-output fairness bound**: one output may occupy at most a
  quota of the shared buffer, so a single hot destination cannot
  starve the rest of the switch;
- **back-pressure**: when the shared buffer is full, inputs stall,
  which stalls the upstream links (§2.1 "back-pressured flow
  control");
- **in-order delivery**: each input port forwards one packet at a time
  into FIFO virtual output queues, each drained in order into its
  output's FIFO queue, which one transmitter feeds to the outgoing
  link — so packets sharing a (source, destination) pair (same input,
  same output) never reorder.

This is the **tree-fabric** switch (``routing="tree"``); torus
fabrics use the per-class-channel :class:`~repro.network.adaptive.
TorusSwitch` instead (DESIGN.md §10), which has no shared central
buffer — backpressure there is per output channel.  Both run their
input ports through :class:`SwitchInput`.

Every stage is a callback state machine that ``_post``\\ s its next
step, exactly where a process looping over blocking queue operations
would resume (DESIGN.md §7, "Switches are callback state machines").
Each step is its own event: when one step wakes two, it posts both,
back to back, in the order the processes would have run them.
The virtual output queues, output queues and slot pool are plain
state; only the input FIFOs, which the links fill, are
:class:`~repro.sim.BoundedQueue`\\ s.  The VOQs live in one dict on
the :class:`Switch`, keyed by (input, output) and made on each pair's
first packet, so an input port (the torus switch's too) holds no
container of its own.  The plain queues are lists: each
holds at most a port FIFO's depth, an output's quota, the input count
or the slot count, so ``pop(0)`` costs what a deque's ``popleft``
would, and an empty list takes under a tenth of an empty deque's memory.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.params import Params
from repro.sim import BoundedQueue, Simulator
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.routing import NextHop


class SwitchInput:
    """One input port's forwarding stage, shared by both switches.

    It takes packets from the port's FIFO one at a time, passes each
    through the port's fault site, charges the routing delay and hands
    it to the switch's ``_forward(port, packet, duplicate)``, which
    calls :meth:`listen` once the packet is placed.  The port is a fault
    site when an injector is attached; a lossless packet takes the same
    steps either way, so the injector cannot change the schedule.
    """

    __slots__ = ("switch", "sim", "queue", "name", "reset_wrap", "route_ns",
                 "injector")

    def __init__(self, switch: Any, label: object, reset_wrap: bool = False):
        self.switch = switch
        self.sim: Simulator = switch.sim
        self.queue = BoundedQueue(switch.params.sizing.switch_port_fifo,
                                  name=f"sw{switch.switch_id}.in.{label}")
        self.name = self.queue.name
        #: Injection ports of a torus reset each packet's ``vc_wrap``:
        #: host software (and the reliable transport's retransmit
        #: window) may hand the fabric a packet that has travelled.
        self.reset_wrap = reset_wrap
        self.route_ns: int = switch.params.timing.switch_route_ns
        self.injector = switch.injector
        # The forwarder starts waiting now, before any packet can come.
        self.listen()

    def listen(self) -> None:
        # Takes at once when a packet is waiting, else on the link's put.
        self.queue.get_then(self._take)

    def _take(self, packet: Packet) -> None:
        self.sim._post(0, self.arrive, (packet,))

    def arrive(self, packet: Packet) -> None:
        if self.reset_wrap:
            packet.vc_wrap = 0
        if self.injector is not None:
            action = self.injector.action_for(self.name, packet)
            if action.kind == "drop":
                self.listen()
                return
            if action.kind == "corrupt":
                packet.corrupted = True
            elif action.kind == "duplicate":
                self.sim._post(self.route_ns, self.forward, (packet, True))
                return
            elif action.kind == "stall":
                self.sim._post(action.stall_ns, self.stalled, (packet,))
                return
        self.sim._post(self.route_ns, self.forward, (packet, False))

    def stalled(self, packet: Packet) -> None:
        self.sim._post(self.route_ns, self.forward, (packet, False))

    def forward(self, packet: Packet, duplicate: bool) -> None:
        self.switch._forward(self, packet, duplicate)


class Voq:
    """A virtual output queue at one input and the pump that moves its
    packets into the shared buffer, claiming a central slot each.  The
    input's forwarder is its only putter."""

    __slots__ = ("switch", "sim", "port", "output", "items", "capacity",
                 "waiting", "blocked")

    def __init__(self, switch: "Switch", port: SwitchInput, output: "Output"):
        self.switch = switch
        self.sim = switch.sim
        self.port = port
        self.output = output
        self.items: List[Packet] = []
        self.capacity = switch.params.sizing.switch_port_fifo
        #: The pump waits for the queue to fill.
        self.waiting = False
        #: The forwarder's put while the queue is full: (packet, again).
        self.blocked: Optional[Tuple[Packet, bool]] = None
        self.sim._post(0, self.pull)

    def put(self, packet: Packet, again: bool) -> None:
        """The forwarder's put; ``again`` puts a duplicate once more."""
        if self.waiting:
            self.waiting = False
            self.sim._post(0, self.claim, (packet,))
            self.sim._post(0, self.resume, (packet, again))
        elif len(self.items) < self.capacity:
            self.items.append(packet)
            self.sim._post(0, self.resume, (packet, again))
        else:
            self.blocked = (packet, again)

    def resume(self, packet: Packet, again: bool) -> None:
        """The forwarder's step after its put is accepted."""
        if again:
            self.put(packet, False)
        else:
            self.port.listen()

    def pull(self) -> None:
        """The pump's get; admits the blocked forwarder."""
        items = self.items
        if not items:
            self.waiting = True
            return
        packet = items.pop(0)
        blocked = self.blocked
        if blocked is not None:
            self.blocked = None
            items.append(blocked[0])
            self.sim._post(0, self.resume, blocked)
        self.sim._post(0, self.claim, (packet,))

    def claim(self, packet: Packet) -> None:
        """The pump takes a central buffer slot, or queues for one."""
        switch = self.switch
        if switch._free:
            switch._free -= 1
            self.sim._post(0, self.enter, (packet,))
        else:
            switch.buffer_stalls += 1
            switch._stalled.append((self, packet))

    def enter(self, packet: Packet) -> None:
        """The pump holds a slot: count it, then queue at the output."""
        switch = self.switch
        in_use = switch.slots - switch._free
        if in_use > switch.peak_buffer_use:
            switch.peak_buffer_use = in_use
        self.output.put(self, packet)

    def routed(self) -> None:
        """The output accepted the pump's packet."""
        self.switch.packets_routed += 1
        self.pull()


class Output:
    """An output's queue in the shared buffer (each packet holds a
    slot, at most ``quota`` of them) and the transmitter that feeds the
    outgoing link, returning each slot once the link accepts."""

    __slots__ = ("switch", "sim", "link", "items", "quota", "waiting",
                 "blocked")

    def __init__(self, switch: "Switch", link: Link):
        self.switch = switch
        self.sim = switch.sim
        self.link = link
        self.items: List[Packet] = []
        self.quota = switch.params.sizing.switch_output_quota
        #: The transmitter waits for the queue to fill; it starts so,
        #: before any packet can reach the switch.
        self.waiting = True
        #: Pumps whose put waits for room, in arrival order.
        self.blocked: List[Tuple[Voq, Packet]] = []

    def put(self, voq: Voq, packet: Packet) -> None:
        """A pump's put."""
        if self.waiting:
            self.waiting = False
            self.sim._post(0, self.send, (packet,))
            self.sim._post(0, voq.routed)
        elif len(self.items) < self.quota:
            self.items.append(packet)
            self.sim._post(0, voq.routed)
        else:
            self.blocked.append((voq, packet))

    def pull(self) -> None:
        """The transmitter's get; admits the first blocked pump."""
        items = self.items
        if not items:
            self.waiting = True
            return
        packet = items.pop(0)
        if self.blocked:
            voq, admitted = self.blocked.pop(0)
            items.append(admitted)
            self.sim._post(0, voq.routed)
        self.sim._post(0, self.send, (packet,))

    def send(self, packet: Packet) -> None:
        """Blocks on the link's credits."""
        self.link.put_then(packet, self.release)

    def release(self) -> None:
        """Return the slot: to the first stalled pump, else the pool."""
        switch = self.switch
        stalled = switch._stalled
        if stalled:
            voq, packet = stalled.pop(0)
            self.sim._post(0, voq.enter, (packet,))
        else:
            switch._free += 1
        self.sim._post(0, self.pull)


class Switch:
    """One switch: input FIFOs, routing table, shared buffer,
    per-output queues + transmitters.

    Ports are created by the fabric with :meth:`add_input` /
    :meth:`add_output`; the routing table is installed once with
    :meth:`install_routes` before traffic starts.
    """

    def __init__(self, sim: Simulator, params: Params, switch_id: object,
                 injector: Optional[Any] = None):
        self.sim = sim
        self.params = params
        self.switch_id = switch_id
        #: Optional :class:`~repro.faults.FaultInjector`: input ports
        #: are fault sites (named ``sw{id}.in.{label}``), modelling
        #: errors inside the switch datapath rather than on the wire.
        self.injector = injector
        self._inputs: Dict[object, SwitchInput] = {}
        self._outputs: Dict[NextHop, Output] = {}
        self._routes: Dict[int, NextHop] = {}
        # Resolved at install_routes time: dst host -> output, so the
        # forwarder's per-packet work is one dict hit.
        self._resolved: Dict[int, Output] = {}
        #: The virtual output queues, keyed by (input, output) and made
        #: on each pair's first packet, so the set depends only on
        #: traffic and an input holds no container of its own.
        self._voqs: Dict[Tuple[SwitchInput, Output], Voq] = {}
        #: The shared central buffer: its size, its free slots, and the
        #: pumps waiting for one, in arrival order.
        self.slots = params.sizing.switch_buffer_slots
        self._free = self.slots
        self._stalled: List[Tuple[Voq, Packet]] = []
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
        port = self._inputs[label] = SwitchInput(self, label)
        return port.queue

    def add_output(self, hop: NextHop, link: Link) -> None:
        """Register the outgoing link for ``hop``."""
        if hop in self._outputs:
            raise ValueError(f"duplicate output {hop!r} on {self.switch_id!r}")
        self._outputs[hop] = Output(self, link)

    def install_routes(self, table: Dict[int, NextHop]) -> None:
        """Install the routing table, resolving every entry to its
        output up front.  Wiring errors (a route to a hop with no
        output) therefore surface at build time, not mid-traffic."""
        self._routes = dict(table)
        for hop in set(self._routes.values()):
            if hop not in self._outputs:
                raise RuntimeError(
                    f"switch {self.switch_id!r} routed to unwired hop {hop!r}"
                )
        self._resolved = {dst: self._outputs[hop]
                          for dst, hop in self._routes.items()}

    # -- datapath -----------------------------------------------------------

    def _forward(self, port: SwitchInput, packet: Packet,
                 duplicate: bool) -> None:
        """Route into a per-(input, output) virtual output queue.  A
        congested output fills only its own VOQ; packets for other
        outputs at the same input flow past it — the VC-level flow
        control of [17], which is what makes the §2.3.5 fast-path
        /slow-path asymmetry physically possible."""
        output = self._resolved.get(packet.dst)
        if output is None:
            raise RuntimeError(
                f"switch {self.switch_id!r} has no route to host {packet.dst} "
                f"(packet {packet!r})"
            )
        voq = self._voqs.get((port, output))
        if voq is None:
            voq = self._voqs[port, output] = Voq(self, port, output)
        # Waits only when THIS destination's VOQ is full.
        voq.put(packet, duplicate)

    # -- introspection ----------------------------------------------------------

    @property
    def buffer_in_use(self) -> int:
        return self.slots - self._free
