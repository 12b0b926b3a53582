"""Fabric composition: topology + switches + links → host ports.

The :class:`Fabric` builds the whole interconnect for a
:class:`~repro.network.topology.Topology` and hands each workstation a
:class:`NetworkPort`.

The interconnect is built as **two parallel virtual networks** over
the same topology: a *request* plane (writes, reads, atomics, copies,
updates) and a *response* plane (read replies, atomic replies, write
acks).  The Telegraphos switch provides VC-level flow control with a
shared central buffer ([17]); modelling the VCs as parallel planes
captures the property that matters for the paper's arguments: a
congested request stream back-pressures other *requests*, but never
delays replies — the classic request/response separation that also
rules out protocol deadlock.

Each plane's host attachment uses the HIB FIFO depths from
:class:`~repro.params.SizingParams`, so HIB-side queueing behaviour
(the §3.2 "short batches of write operations execute even faster"
effect) is a property of the fabric, not of test scaffolding.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.params import Params
from repro.sim import BoundedQueue, Simulator
from repro.network.adaptive import ADP, CHANNEL_NAMES, ESC0, ESC1, TorusSwitch
from repro.network.link import Link
from repro.network.packet import Packet, PacketPool
from repro.network.routing import compute_routes
from repro.network.switch import Switch
from repro.network.topology import Topology, TorusTopology

#: The two virtual networks.
VCS = ("req", "rsp")

#: Supported routing modes (``ClusterConfig.routing``).
ROUTING_MODES = ("tree", "dor", "adaptive")


class NetworkPort:
    """A host's attachment point: egress/ingress FIFOs per VC.

    Also carries the fabric's :class:`~repro.network.packet.PacketPool`
    (one that keeps nothing under fault injection), so HIBs acquire and
    release packets without knowing how the fabric was built.
    """

    def __init__(self, node_id: int,
                 egress: Dict[str, BoundedQueue],
                 ingress: Dict[str, BoundedQueue],
                 pool: PacketPool):
        self.node_id = node_id
        self.pool = pool
        # Plane queues resolved once; the per-send work is one
        # precomputed plane test plus a queue put.
        self._egress_req = egress["req"]
        self._egress_rsp = egress["rsp"]
        self._ingress_req = ingress["req"]
        self._ingress_rsp = ingress["rsp"]

    def send(self, packet: Packet):
        """Inject a packet on its VC (returns a waitable; blocks while
        that VC's egress FIFO is full — the TurboChannel stalls)."""
        queue = self._egress_rsp if packet.kind._is_reply else self._egress_req
        return queue.put(packet)

    def receive(self):
        """Waitable resolving with the next incoming *request-class*
        packet."""
        return self._ingress_req.get()

    def receive_reply(self):
        """Waitable resolving with the next incoming *reply-class*
        packet."""
        return self._ingress_rsp.get()


class Fabric:
    """Builds and owns every switch and link of the cluster network."""

    def __init__(self, sim: Simulator, params: Params, topology: Topology,
                 tracer=None, injector=None, routing: str = "tree"):
        topology.validate()
        if routing not in ROUTING_MODES:
            raise ValueError(
                f"unknown routing mode {routing!r}; expected one of "
                f"{ROUTING_MODES}"
            )
        self.sim = sim
        self.params = params
        self.topology = topology
        #: Routing mode: ``"tree"`` (up*/down* spanning-tree tables,
        #: any topology), ``"dor"`` or ``"adaptive"`` (coordinate
        #: routing, :class:`~repro.network.topology.TorusTopology`
        #: only — see :mod:`repro.network.adaptive`).
        self.routing = routing
        #: Optional tracer handed to every link for activity-lane
        #: spans (see :meth:`repro.sim.Tracer.span`).
        self.tracer = tracer
        #: Optional :class:`~repro.faults.FaultInjector`, handed to
        #: every link and switch (they are the fault sites).  ``None``
        #: (the default) is the paper's lossless fabric.
        self.injector = injector
        #: Packet recycling is only safe on a lossless fabric: fault
        #: duplication and retransmit windows create second references
        #: that outlive the receiver's service loop, so a faulty fabric's
        #: pool keeps no released packet (see DESIGN.md).
        self.pool = PacketPool() if injector is None else PacketPool(max_free=0)
        #: switches[vc][switch_id] — tree-routed fabrics only.
        self.switches: Dict[str, Dict[object, Switch]] = {vc: {} for vc in VCS}
        #: torus_switches[vc][coords] — dor/adaptive fabrics only.
        self.torus_switches: Dict[str, Dict[object, TorusSwitch]] = {
            vc: {} for vc in VCS}
        self.links: List[Link] = []
        self.ports: Dict[int, NetworkPort] = {}
        if routing == "tree":
            self._build()
        else:
            self._build_torus()

    def _build(self) -> None:
        topo = self.topology

        for vc in VCS:
            for switch_id in topo.switch_ids:
                self.switches[vc][switch_id] = Switch(
                    self.sim, self.params, f"{switch_id}.{vc}",
                    injector=self.injector,
                )

        # Host attachments per VC.
        for node_id in topo.hosts:
            egress: Dict[str, BoundedQueue] = {}
            ingress: Dict[str, BoundedQueue] = {}
            for vc in VCS:
                switch = self.switches[vc][topo.host_attachment[node_id]]
                link = self._attach_host(node_id, vc, egress, ingress,
                                         switch.add_input(("host", node_id)))
                switch.add_output(("host", node_id), link)
            self.ports[node_id] = NetworkPort(node_id, egress, ingress,
                                              self.pool)

        # Inter-switch cables (both directions, both VCs).
        for a, b in sorted(topo.switch_edges, key=repr):
            for vc in VCS:
                self._wire_switch_pair(vc, a, b)
                self._wire_switch_pair(vc, b, a)

        # Routing tables (identical on both planes).
        tables = compute_routes(topo)
        for vc in VCS:
            for switch_id, table in tables.items():
                self.switches[vc][switch_id].install_routes(table)

    def _attach_host(self, node_id: int, vc: str,
                     egress: Dict[str, BoundedQueue],
                     ingress: Dict[str, BoundedQueue],
                     switch_in: BoundedQueue) -> Link:
        """Build host ``node_id``'s attachment on plane ``vc``: its HIB
        FIFOs (stored in ``egress``/``ingress``), the link from the HIB
        into ``switch_in``, and the switch-side buffer and link back to
        the host.  Returns that last link, for the caller to register
        with the switch.  Nothing here posts an event: a link starts
        waiting on its source when it is built, as a switch input
        does."""
        sizing = self.params.sizing
        timing = self.params.timing
        egress[vc] = BoundedQueue(
            sizing.hib_out_fifo, name=f"hib{node_id}.out.{vc}"
        )
        ingress[vc] = BoundedQueue(
            sizing.hib_in_fifo, name=f"hib{node_id}.in.{vc}"
        )
        self.links.append(
            Link(self.sim, timing, egress[vc], switch_in,
                 name=f"host{node_id}->sw.{vc}",
                 node=node_id, tracer=self.tracer,
                 injector=self.injector)
        )
        to_host = BoundedQueue(
            sizing.link_credits, name=f"sw->host{node_id}.buf.{vc}"
        )
        link = Link(self.sim, timing, to_host, ingress[vc],
                    name=f"sw->host{node_id}.{vc}",
                    node=node_id, tracer=self.tracer,
                    injector=self.injector)
        self.links.append(link)
        return link

    def _wire_switch_pair(self, vc: str, src_id: object, dst_id: object) -> None:
        sizing = self.params.sizing
        timing = self.params.timing
        src = self.switches[vc][src_id]
        dst = self.switches[vc][dst_id]
        buffer = BoundedQueue(
            sizing.link_credits, name=f"sw{src_id}->sw{dst_id}.buf.{vc}"
        )
        dst_in = dst.add_input(("switch", src_id))
        link = Link(self.sim, timing, buffer, dst_in,
                    name=f"sw{src_id}->sw{dst_id}.{vc}", tracer=self.tracer,
                    injector=self.injector)
        src.add_output(("switch", dst_id), link)
        self.links.append(link)

    def _build_torus(self) -> None:
        """Build the coordinate-routed torus fabric: per plane, one
        :class:`~repro.network.adaptive.TorusSwitch` per coordinate and
        one link per (directed edge, channel class).  DOR fabrics wire
        the two escape classes; adaptive fabrics add the adaptive
        class.  Hosts attach through the tree build's
        :meth:`_attach_host`, so HIBs cannot tell the fabrics apart."""
        sizing = self.params.sizing
        timing = self.params.timing
        topo = self.topology
        if not isinstance(topo, TorusTopology):
            raise ValueError(
                f"routing {self.routing!r} requires a torus topology "
                f"(got {type(topo).__name__}); coordinate routing needs "
                "the dimension sizes only TorusTopology carries"
            )
        adaptive = self.routing == "adaptive"
        classes = (ESC0, ESC1, ADP) if adaptive else (ESC0, ESC1)
        host_coords: Dict[int, Tuple[int, ...]] = {
            host: sw for host, sw in topo.host_attachment.items()
            if isinstance(sw, tuple)
        }
        coords_order = list(
            itertools.product(*(range(size) for size in topo.dims)))
        # Each switch's coordinate text, formatted once: every switch,
        # channel, buffer and input name below is built from it.  The
        # names are fault sites, which seed the fault schedule, so they
        # stay byte for byte what formatting the tuples gives.
        text = {coords: str(coords) for coords in coords_order}

        for vc in VCS:
            for coords in coords_order:
                self.torus_switches[vc][coords] = TorusSwitch(
                    self.sim, self.params, f"{text[coords]}.{vc}", coords,
                    topo, host_coords, adaptive, injector=self.injector,
                )

        # Host attachments per VC.
        for node_id in topo.hosts:
            egress: Dict[str, BoundedQueue] = {}
            ingress: Dict[str, BoundedQueue] = {}
            for vc in VCS:
                switch = self.torus_switches[vc][topo.host_attachment[node_id]]
                link = self._attach_host(
                    node_id, vc, egress, ingress,
                    switch.add_input(("host", node_id), from_host=True))
                switch.add_ejection(node_id, link)
            self.ports[node_id] = NetworkPort(node_id, egress, ingress,
                                              self.pool)

        # Inter-switch channels: every directed edge, every class.  An
        # input's label is the text of its (source coordinates, class)
        # pair, so its name reads as the pair's would.
        for vc in VCS:
            for coords in coords_order:
                src = self.torus_switches[vc][coords]
                for dim, size in enumerate(topo.dims):
                    for step in (1, -1):
                        nxt = list(coords)
                        nxt[dim] = (coords[dim] + step) % size
                        dst_coords = tuple(nxt)
                        dst = self.torus_switches[vc][dst_coords]
                        hop = f"sw{text[coords]}->sw{text[dst_coords]}"
                        for cls in classes:
                            cname = CHANNEL_NAMES[cls]
                            buffer = BoundedQueue(
                                sizing.link_credits,
                                name=f"{hop}.{cname}.buf.{vc}")
                            dst_in = dst.add_input(
                                f"({text[coords]}, {cname!r})")
                            link = Link(self.sim, timing, buffer, dst_in,
                                        name=f"{hop}.{cname}.{vc}",
                                        tracer=self.tracer,
                                        injector=self.injector)
                            src.add_channel(dim, step, cls, link)
                            self.links.append(link)

    # -- API -------------------------------------------------------------

    def port(self, node_id: int) -> NetworkPort:
        try:
            return self.ports[node_id]
        except KeyError:
            raise KeyError(f"no host {node_id} in this fabric") from None

    @property
    def total_packets_routed(self) -> int:
        return sum(
            sw.packets_routed
            for plane in self.switches.values()
            for sw in plane.values()
        ) + sum(
            tsw.packets_routed
            for tplane in self.torus_switches.values()
            for tsw in tplane.values()
        )

    def link_stats(self) -> Dict[str, Dict[str, int]]:
        return {
            link.name: {
                "packets": link.packets_carried,
                "bytes": link.bytes_carried,
                "busy_ns": link.busy_ns,
            }
            for link in self.links
        }
