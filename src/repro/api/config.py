"""Cluster configuration.

:class:`ClusterConfig` is the one object that describes a cluster
build: machine shape (nodes, topology, routing), protocol choice, and
the observability switches.  It gives
:class:`~repro.api.cluster.Cluster` construction a single surface:
``Cluster(ClusterConfig(...))`` is the only form ``Cluster`` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.coherence import PROTOCOLS
from repro.faults.plan import FaultConfig
from repro.network.fabric import ROUTING_MODES
from repro.network.topology import TOPOLOGIES, TORI
from repro.params import Params
from repro.sim import KERNELS

#: Collective backends (:mod:`repro.api.collectives`).
COLLECTIVES = ("host", "nic")


def _check_name(field: str, value: str, valid: tuple) -> None:
    if value not in valid:
        raise ValueError(
            f"unknown {field} {value!r}; expected one of {valid}")


@dataclass
class ClusterConfig:
    """Everything a :class:`~repro.api.cluster.Cluster` needs to build.

    Machine shape and protocol:

    - ``n_nodes`` — number of workstations (≥ 1).
    - ``protocol`` — coherence engine name
      (see :func:`repro.coherence.make_engine`).
    - ``topology`` — fabric topology name
      (see :func:`repro.network.topology.by_name`).
    - ``routing`` — fabric routing mode: ``"tree"`` (up*/down*
      spanning-tree tables — works on every topology, the default),
      ``"dor"`` (deterministic dimension-order routing) or
      ``"adaptive"`` (minimal-adaptive, backpressure-aware port
      selection with DOR escape channels).  The latter two route on
      switch coordinates and therefore require a torus topology
      (``topology="torus"`` or ``"torus3d"``); see
      :mod:`repro.network.adaptive` and DESIGN.md §10.
    - ``params`` — timing and sizing parameters
      (``None`` = :data:`~repro.params.DEFAULT_PARAMS`).
    - ``cache_entries`` — counter-cache entries per node
      (``None`` models Telegraphos I's uncached counters).
    - ``replication_threshold`` — enable the §2.2.6 alarm-driven
      replication policy at this access count (``None`` = off).
    - ``collectives`` — the backend of every collective group
      (:mod:`repro.api.collectives`): ``"host"`` (software counter
      barrier over remote atomics — the classic path, default) or
      ``"nic"`` (HIB-resident combining tree + multicast release).
    - ``kernel`` — event-loop implementation
      (see :func:`repro.sim.make_simulator`): ``"bucket"`` (the
      production calendar kernel, default) or ``"reference"`` (the
      pure-heap per-event oracle used for differential kernel
      testing).  Both dispatch events in the identical
      (time, insertion-order) order.

    Observability:

    - ``trace`` — record protocol events on the cluster
      :class:`~repro.sim.Tracer`.
    - ``trace_lanes`` — additionally record dense CPU/HIB/link
      activity spans (needed for Chrome-trace export; off by default
      because span volume grows with every operation).
    - ``metrics`` — attach a live
      :class:`~repro.obs.metrics.MetricsRegistry`; when ``False`` all
      instruments are shared no-ops.
    - ``profile_kernel`` — install an
      :class:`~repro.obs.hooks.EventLoopProfiler` on the simulation
      kernel.

    Fault injection:

    - ``faults`` — a seeded fault schedule, as a plain dict (e.g.
      ``{"seed": 7, "drop_rate": 1e-3}``) or a
      :class:`~repro.faults.FaultConfig`.  ``None`` (the default) is
      the paper's lossless fabric: no injector is built and behaviour
      is bit-identical to a pre-fault-layer cluster.  See
      :mod:`repro.faults` for the schema.
    """

    n_nodes: int = 2
    protocol: str = "none"
    topology: str = "star"
    routing: str = "tree"
    params: Optional[Params] = None
    trace: bool = True
    cache_entries: Optional[int] = 32
    replication_threshold: Optional[int] = None
    metrics: bool = True
    trace_lanes: bool = False
    profile_kernel: bool = False
    faults: Optional[Union[Dict[str, Any], FaultConfig]] = None
    collectives: str = "host"
    kernel: str = "bucket"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        _check_name("protocol", self.protocol, PROTOCOLS)
        _check_name("topology", self.topology, TOPOLOGIES)
        _check_name("routing mode", self.routing, ROUTING_MODES)
        _check_name("collectives backend", self.collectives, COLLECTIVES)
        _check_name("kernel", self.kernel, KERNELS)
        if self.routing != "tree" and self.topology not in TORI:
            raise ValueError(
                f"routing {self.routing!r} requires a torus topology, one "
                f"of {TORI}; got {self.topology!r}")
        # Validate eagerly so a typo'd fault key fails at config time,
        # not mid-build.
        self.fault_config()

    def fault_config(self) -> Optional[FaultConfig]:
        """The parsed fault schedule (``None`` when faults are off)."""
        if self.faults is None:
            return None
        if isinstance(self.faults, FaultConfig):
            return self.faults
        return FaultConfig.from_dict(self.faults)
