"""The Telegraphos interconnect.

§2.1 of the paper states the four properties of the Telegraphos switch
network: *back-pressured flow control*, *deterministic routing*,
*in-order delivery of packets*, and *deadlock freedom*.  This package
implements an interconnect with exactly those properties, plus the
scale-out extension documented in DESIGN.md §10 — torus fabrics with
dimension-order and backpressure-adaptive routing (which keeps
deadlock freedom via a dateline escape network).  Adaptive mode can
reorder the packets of one (src, dst) pair, and on a lossless fabric
nothing restores their order: a known violation of the §2.1 in-order
property, tracked on ROADMAP.

Module map — who owns what:

- :mod:`repro.network.packet` — typed network packets with wire sizes
  (including the ``vc_wrap`` dateline bitmask torus routing stamps).
- :mod:`repro.network.link` — point-to-point links with serialization
  delay, propagation delay, and credit back-pressure: callback state
  machines, so a hop is a few posted events, not a process pair.
- :mod:`repro.network.switch` — the *tree-fabric* switch:
  input-buffered, deterministic table routing, per-(source,
  destination) in-order forwarding through a shared buffer; and the
  input stage both switches share.  Switches are callback state
  machines too: no module in this package spawns a process.
- :mod:`repro.network.routing` — spanning-tree (up*/down*) route
  computation for tree fabrics: deterministic and deadlock-free on
  any connected topology.
- :mod:`repro.network.adaptive` — the *torus-fabric* switch:
  coordinate (dimension-order or minimal-adaptive) routing over
  per-class channels, plus the DOR path oracles the tests pin.
- :mod:`repro.network.topology` — cluster topology builders (star,
  chain, ring, 2-D mesh, 2-D/3-D torus) and the
  :class:`~repro.network.topology.TorusTopology` coordinate space.
- :mod:`repro.network.fabric` — composition: builds the switches,
  channels, and links for a topology under a routing mode
  (``"tree"``, ``"dor"``, ``"adaptive"``) and exposes one
  :class:`NetworkPort` per host.
"""

from repro.network.fabric import Fabric, NetworkPort
from repro.network.packet import Packet, PacketKind
from repro.network.topology import Topology

__all__ = ["Fabric", "NetworkPort", "Packet", "PacketKind", "Topology"]
