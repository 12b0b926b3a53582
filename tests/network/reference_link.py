"""The process-pair link, kept as a test oracle.

This is the link model the network shipped before links became a
callback state machine (:mod:`repro.network.link`): a serializer
process and a propagator process joined by a one-slot ``_wire`` queue,
six generator resumptions per hop.  The differential harness
(``test_link_equivalence.py``) runs the same traffic through both and
requires identical observable behaviour.  Do not optimise it: its
value is being independent of the code it checks.
"""

from __future__ import annotations

from typing import Optional

from repro.network.packet import Packet
from repro.params import TimingParams
from repro.sim import BoundedQueue, Simulator, Tracer


class ReferenceLink:
    """A unidirectional link between two buffers.

    ``src`` is drained; ``dst`` is filled.  The constructor spawns the
    pump process; the link runs for the life of the simulation.
    """

    def __init__(
        self,
        sim: Simulator,
        timing: TimingParams,
        src: BoundedQueue,
        dst: BoundedQueue,
        name: str = "link",
        node: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        injector=None,
    ):
        self.sim = sim
        self.timing = timing
        self.src = src
        self.dst = dst
        self.name = name
        #: Workstation this link attaches to (``None`` for
        #: switch-to-switch cables) — used to assign the link's
        #: activity lane to a node in trace exports.
        self.node = node
        self.tracer = tracer
        #: Optional :class:`~repro.faults.FaultInjector`; ``None``
        #: means lossless delivery.
        self.injector = injector
        self.packets_carried = 0
        self.bytes_carried = 0
        self.busy_ns = 0
        # One-deep wire stage: the serializer hands each packet to the
        # propagation pump, so the next packet's serialization overlaps
        # the previous packet's flight time.  The pump flies one packet
        # at a time: one leaves per max(serialization, propagation).
        self._wire = BoundedQueue(1, name=f"{name}.wire")
        self._serializer = sim.spawn(self._serialize(), name=f"{name}.ser")
        self._pump = sim.spawn(self._propagate(), name=f"{name}.prop")

    def put_then(self, packet: Packet, then, args=()) -> None:
        """Put ``packet`` on ``src`` and run ``then(*args)`` one delay-0
        step after it is accepted, as a process yielding on the put
        resumes (the switches' entry point into a link)."""
        self.src.put(packet).add_callback(
            lambda _value, _exc: self.sim._post(0, then, args))

    def _serialize(self):
        serialization_ns = self.timing.serialization_ns
        sim = self.sim
        get = self.src.get
        put = self._wire.put
        while True:
            packet: Packet = yield get()
            started = sim.now
            serialization = serialization_ns(packet.size_bytes)
            yield serialization
            self.busy_ns += serialization
            yield put((started, packet))

    def _propagate(self):
        """Deliver each packet after its flight time, through the fault
        site when an injector is attached.

        The trace span is resolved once when the pump starts, so an
        untraced link never calls it.  Neither the
        injector nor the tracer changes the waitables a lossless packet
        yields, so the event schedule is independent of both.
        """
        prop_ns = self.timing.link_prop_ns
        get = self._wire.get
        put = self.dst.put
        injector = self.injector
        tracer = self.tracer
        span = (tracer.span if tracer is not None
                and tracer.enabled and tracer.lanes else None)
        while True:
            started, packet = yield get()
            yield prop_ns
            if injector is not None:
                action = injector.action_for(self.name, packet)
                if action.kind == "drop":
                    continue
                if action.kind == "corrupt":
                    # Model an in-flight bit error as a flag, never by
                    # mutating the payload: the sender's retransmit
                    # window holds the same Packet object.
                    packet.corrupted = True
                elif action.kind == "duplicate":
                    yield put(packet)
                elif action.kind == "stall":
                    yield action.stall_ns
            # Blocks while the downstream buffer is full: back-pressure.
            yield put(packet)
            self.packets_carried += 1
            self.bytes_carried += packet.size_bytes
            if span is not None:
                span(
                    "link_xfer", started, link=self.name, node=self.node,
                    src=packet.src, dst=packet.dst, kind=packet.kind.name,
                    bytes=packet.size_bytes,
                )
