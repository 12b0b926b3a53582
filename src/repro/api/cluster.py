"""Cluster assembly: the composition root.

A :class:`Cluster` builds, for ``config.n_nodes`` workstations:

- the switch fabric for the chosen topology (§2.1);
- per node: DRAM, memory bus, TurboChannel, interrupt controller,
  the HIB with its shared-memory backend (MPM for Telegraphos I, a
  main-memory segment for Telegraphos II), the CPU, the VM manager,
  the kernel, and the device driver;
- the sharing directory and one coherence engine per node for the
  chosen protocol;
- optionally, an alarm-based replication policy per node;
- the observability plane: a per-cluster
  :class:`~repro.obs.metrics.MetricsRegistry` wired into every layer,
  and (opt-in) an event-loop profiler on the simulation kernel.

A cluster is built from one :class:`ClusterConfig`::

    with Cluster(ClusterConfig(n_nodes=4, protocol="telegraphos")) as c:
        ...
        c.run(join=contexts)
        print(c.stats()["metrics"]["hib.remote_writes"])
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api.config import ClusterConfig
from repro.coherence import CoherenceChecker, SharingDirectory, make_engine
from repro.faults import CATEGORIES, FaultInjector
from repro.hib import HIB
from repro.hib.backend import DramBackend, MpmBackend
from repro.machine import (
    AddressMap,
    Bus,
    CPU,
    InterruptController,
    WordMemory,
)
from repro.network import Fabric
from repro.network.topology import by_name
from repro.obs import EventLoopProfiler, MetricsRegistry
from repro.os import NodeOS, TelegraphosDriver, VirtualMemoryManager
from repro.os.replication import AlarmReplicationPolicy
from repro.params import DEFAULT_PARAMS, Params
from repro.sim import Simulator, Tracer, collector_paused

#: Main memory per workstation (4 MiB); Telegraphos II reserves up to
#: half of it for shared data.
DRAM_BYTES = 4 << 20


class Workstation:
    """One fully assembled node."""

    def __init__(self, sim: Simulator, params: Params, node_id: int,
                 amap: AddressMap, fabric: Fabric, tracer: Tracer,
                 metrics: Optional[MetricsRegistry] = None,
                 injector: Optional[FaultInjector] = None):
        timing = params.timing
        self.node_id = node_id
        self.amap = amap
        self.dram = WordMemory(DRAM_BYTES, name=f"dram{node_id}")
        self.membus = Bus(sim, f"membus{node_id}", timing.membus_arb_ns)
        self.tc_bus = Bus(sim, f"tc{node_id}", 0)
        self.interrupts = InterruptController(sim, timing, node_id)
        if params.prototype == 1:
            self.backend = MpmBackend(timing, params.sizing.mpm_bytes, node_id)
        else:
            # Telegraphos II: shared data in a reserved main-memory
            # segment, HIB access via the memory bus.
            shared_bytes = min(params.sizing.mpm_bytes, DRAM_BYTES // 2)
            self.backend = DramBackend(
                timing, self.dram, self.membus,
                base_offset=DRAM_BYTES - shared_bytes,
                size_bytes=shared_bytes,
            )
        self.hib = HIB(
            sim, params, node_id, amap, fabric.port(node_id), self.tc_bus,
            self.backend, interrupts=self.interrupts, tracer=tracer,
            metrics=metrics, injector=injector,
        )
        self.cpu = CPU(sim, params, node_id, amap, self.dram, self.membus,
                       self.hib, tracer=tracer)
        mpm_pages = params.sizing.mpm_bytes // params.sizing.page_bytes
        self.vm = VirtualMemoryManager(amap, node_id, mpm_pages)
        self.os = NodeOS(node_id, params, self.cpu, self.interrupts, self.hib)
        self.driver = TelegraphosDriver(node_id, self.hib, self.vm, amap, params)
        self.replication: Optional[AlarmReplicationPolicy] = None


class Cluster:
    """A Telegraphos workstation cluster."""

    def __init__(self, config: ClusterConfig):
        if not isinstance(config, ClusterConfig):
            raise TypeError(
                f"Cluster takes one ClusterConfig, got {config!r}; "
                "build it as Cluster(ClusterConfig(n_nodes=...))"
            )
        with collector_paused():
            self.config = config
            self.params = config.params or DEFAULT_PARAMS
            self.protocol = config.protocol
            self.sim = Simulator()
            self.metrics = MetricsRegistry(enabled=config.metrics)
            self.profiler: Optional[EventLoopProfiler] = None
            if config.profile_kernel:
                self.profiler = EventLoopProfiler()
                self.sim.hooks = self.profiler
            self.amap = AddressMap(page_bytes=self.params.sizing.page_bytes)
            self.tracer = Tracer(clock=lambda: self.sim.now,
                                 enabled=config.trace,
                                 lanes=config.trace_lanes)
            fault_config = config.fault_config()
            #: The cluster-wide fault injector (``None`` = lossless fabric).
            self.injector: Optional[FaultInjector] = (
                FaultInjector(self.sim, fault_config, tracer=self.tracer)
                if fault_config is not None else None
            )
            self.fabric = Fabric(
                self.sim, self.params, by_name(config.topology, config.n_nodes),
                tracer=self.tracer, injector=self.injector,
                routing=config.routing,
            )
            self.directory = SharingDirectory(self.params.sizing.page_bytes)
            self.nodes: List[Workstation] = [
                Workstation(self.sim, self.params, n, self.amap, self.fabric,
                            self.tracer, metrics=self.metrics,
                            injector=self.injector)
                for n in range(config.n_nodes)
            ]
            self.engines = {}
            for node in self.nodes:
                engine = make_engine(
                    config.protocol, node.node_id, self.directory,
                    tracer=self.tracer,
                    cache_entries=config.cache_entries,
                    rmw_ns=self.params.timing.counter_cache_rmw_ns,
                )
                node.hib.coherence = engine
                self.engines[node.node_id] = engine
            if config.replication_threshold is not None:
                backends = {n.node_id: n.backend for n in self.nodes}
                for node in self.nodes:
                    node.replication = AlarmReplicationPolicy(
                        node.os, node.vm, self.directory, self.params,
                        remote_backends=backends,
                        threshold=config.replication_threshold,
                    )
            self._segments: Dict[str, "Segment"] = {}
            self._collective_groups: Dict[str, "CollectiveGroup"] = {}
            self._collective_gids = 0
            self._register_metrics()

    # -- context management ------------------------------------------------

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Detach kernel hooks so a cluster left behind by a ``with``
        # block stops profiling; simulation state stays inspectable.
        self.sim.hooks = None
        return False

    # -- topology access ---------------------------------------------------

    def node(self, node_id: int) -> Workstation:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    # -- segments and processes ------------------------------------------------

    def alloc_segment(self, home: int, pages: int, name: str) -> "Segment":
        """Allocate a shared segment in ``home``'s shared memory."""
        from repro.api.shmem import Segment

        if name in self._segments:
            raise ValueError(f"segment {name!r} already exists")
        gpage = self.node(home).vm.alloc_backend_pages(pages)
        segment = Segment(self, name, home, gpage, pages)
        self._segments[name] = segment
        return segment

    def segment(self, name: str) -> "Segment":
        return self._segments[name]

    def create_process(self, node: int, name: str) -> "Proc":
        from repro.api.shmem import Proc

        return Proc(self, node, name)

    # -- collectives --------------------------------------------------------

    def collective_group(self, name: str, nodes=None, radix: int = 2,
                         release: str = "tree",
                         combine_window_ns: int = 400) -> "CollectiveGroup":
        """Create a named collective group (see
        :mod:`repro.api.collectives`).

        ``nodes`` defaults to every node; the backend is the cluster's
        ``config.collectives`` (``"host"`` or ``"nic"``).
        """
        from repro.api.collectives import CollectiveGroup

        if name in self._collective_groups:
            raise ValueError(f"collective group {name!r} already exists")
        if nodes is None:
            nodes = range(len(self.nodes))
        group = CollectiveGroup(
            self, name, nodes, radix=radix, release=release,
            combine_window_ns=combine_window_ns,
        )
        self._collective_groups[name] = group
        return group

    def _next_collective_gid(self) -> int:
        self._collective_gids += 1
        return self._collective_gids

    def start(self, proc: "Proc", body_fn):
        """Start ``body_fn(proc)`` as a program on the process's CPU."""
        return proc.start(body_fn)

    # -- execution ------------------------------------------------------------

    def run(
        self,
        join,
        limit_ns: Optional[int] = None,
        drain_ns: Optional[int] = None,
    ) -> None:
        """Run until every program context (or process) in ``join``
        completes, then drain in-flight traffic for up to ``drain_ns``
        (default 20,000,000 ns; bounded so perpetual background
        processes — schedulers, pollers — cannot hold the simulation
        open).

        Raises ``TimeoutError`` if they are still running past
        ``limit_ns`` (default 10**12 ns), and ``RuntimeError`` from the
        error of a process that fails.  A time-bounded run is
        ``cluster.sim.run(until=t)``.
        """
        processes = [getattr(c, "process", c) for c in join]
        self.sim.run_until_done(
            processes, limit_ns=10**12 if limit_ns is None else limit_ns)
        if drain_ns is None:
            drain_ns = 20_000_000
        if drain_ns:
            self.sim.run(until=self.sim.now + drain_ns)

    @property
    def now(self) -> int:
        return self.sim.now

    # -- observability ------------------------------------------------------

    def stats(self, check_coherence: bool = False) -> Dict[str, Any]:
        """One snapshot of everything observable about this cluster.

        Returns a dict with the metrics registry snapshot, quiescence
        state per node, and (when profiling is on) the event-loop
        profile.  With ``check_coherence=True`` the memory-model
        checker's verdicts are included (requires tracing).
        """
        outstanding = {
            n.node_id: n.hib.outstanding.count for n in self.nodes
        }
        out: Dict[str, Any] = {
            "now_ns": self.now,
            "n_nodes": len(self),
            "protocol": self.protocol,
            "quiescent": not any(outstanding.values()),
            "outstanding": outstanding,
            "metrics": self.metrics.snapshot(),
        }
        if self.injector is not None:
            faults = self.injector.snapshot()
            faults["transport"] = {
                n.node_id: n.hib.transport.snapshot()
                for n in self.nodes if n.hib.transport is not None
            }
            out["faults"] = faults
        if self.profiler is not None:
            out["kernel"] = self.profiler.snapshot()
        if check_coherence:
            checker = self.checker()
            out["coherence"] = {
                "subsequence_violations": checker.subsequence_violations(),
                "divergent_words": checker.divergent_words(self.backends()),
            }
        return out

    def report(self):
        """The renderable text report (see :mod:`repro.analysis.report`)."""
        from repro.analysis.report import ClusterReport

        return ClusterReport(self)

    def _register_metrics(self) -> None:
        """Wire callback gauges over every layer's native counters.

        Pull-based: nothing here costs anything until
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` runs.  Each
        count has one owner, the layer that observes it; the registry
        only reads it.
        """
        m = self.metrics
        if not m.enabled:
            return
        injector = self.injector
        if injector is not None:
            for kind in CATEGORIES:
                m.gauge_fn(f"faults.{kind}s",
                           lambda c=injector.counts, k=kind: c[k])
            m.gauge_fn("faults.node_failures",
                       lambda i=injector: len(i.node_failures))
        for station in self.nodes:
            nid = station.node_id
            hib, cpu = station.hib, station.cpu
            for key in hib.stats:
                m.gauge_fn(f"hib.{key}",
                           lambda s=hib.stats, k=key: s[k], node=nid)
            for key in hib.coll.stats:
                m.gauge_fn(f"hib.coll.{key}",
                           lambda s=hib.coll.stats, k=key: s[k], node=nid)
            out = hib.outstanding
            m.gauge_fn("hib.outstanding", lambda o=out: o.count, node=nid)
            m.gauge_fn("hib.outstanding_peak",
                       lambda o=out: o.max_outstanding, node=nid)
            m.gauge_fn("hib.ops_issued",
                       lambda o=out: o.total_issued, node=nid)
            transport = hib.transport
            if transport is not None:
                # Per node: the sum over its per-peer delivery logs.
                for key in ("retransmits", "timeouts", "nacks_received"):
                    m.gauge_fn(f"hib.{key}",
                               lambda d=transport.destinations, k=key: sum(
                                   getattr(log, k) for log in d.values()),
                               node=nid)
                for key in transport.stats:
                    m.gauge_fn(f"hib.{key}",
                               lambda s=transport.stats, k=key: s[k],
                               node=nid)
            for label, bus in (("membus", station.membus),
                               ("tc", station.tc_bus)):
                m.gauge_fn("bus.transactions",
                           lambda b=bus: b.transactions, node=nid, bus=label)
                m.gauge_fn("bus.busy_ns",
                           lambda b=bus: b.busy_ns, node=nid, bus=label)
                m.gauge_fn("bus.arb_waits",
                           lambda b=bus: b.arb_waits, node=nid, bus=label)
                m.gauge_fn("bus.wait_ns",
                           lambda b=bus: b.wait_ns, node=nid, bus=label)
            m.gauge_fn("cpu.ops", lambda c=cpu: c.ops_executed, node=nid)
            m.gauge_fn("cpu.loads", lambda c=cpu: c.loads, node=nid)
            m.gauge_fn("cpu.stores", lambda c=cpu: c.stores, node=nid)
            m.gauge_fn("cpu.fences", lambda c=cpu: c.fences, node=nid)
            m.gauge_fn("cpu.io_stall_ns",
                       lambda c=cpu: c.io_stall_ns, node=nid)
        for nid, engine in self.engines.items():
            for key in engine.stats:
                m.gauge_fn(f"coherence.{key}",
                           lambda s=engine.stats, k=key: s[k], node=nid)
            cache = getattr(engine, "counters", None)
            if cache is not None:
                for key in ("hits", "misses", "stalls", "stall_ns",
                            "max_used"):
                    m.gauge_fn(f"coherence.counter_cache.{key}",
                               lambda c=cache, k=key: getattr(c, k),
                               node=nid)
        sim = self.sim
        for link in self.fabric.links:
            m.gauge_fn("net.link.packets",
                       lambda lk=link: lk.packets_carried, link=link.name)
            m.gauge_fn("net.link.bytes",
                       lambda lk=link: lk.bytes_carried, link=link.name)
            m.gauge_fn("net.link.busy_ns",
                       lambda lk=link: lk.busy_ns, link=link.name)
            m.gauge_fn("net.link.queue_depth",
                       lambda lk=link: len(lk.src), link=link.name)
            # Share of elapsed simulated time the link spent clocking
            # bits — the per-link utilization the A2 fabric ablation
            # compares (0.0 before the simulation advances).
            m.gauge_fn(
                "net.link.utilization_pct",
                lambda lk=link: (round(100.0 * lk.busy_ns / sim.now, 3)
                                 if sim.now else 0.0),
                link=link.name)
        for vc, plane in self.fabric.switches.items():
            for switch_id, switch in plane.items():
                tags = {"switch": str(switch_id), "plane": vc}
                m.gauge_fn("net.switch.packets_routed",
                           lambda s=switch: s.packets_routed, **tags)
                m.gauge_fn("net.switch.peak_buffer",
                           lambda s=switch: s.peak_buffer_use, **tags)
                m.gauge_fn("net.switch.buffer_stalls",
                           lambda s=switch: s.buffer_stalls, **tags)
        for vc, tplane in self.fabric.torus_switches.items():
            for switch_id, tswitch in tplane.items():
                tags = {"switch": str(switch_id), "plane": vc}
                for key in tswitch.stats:
                    m.gauge_fn(f"net.switch.{key}",
                               lambda s=tswitch, k=key: s.stats[k], **tags)
                # Queue depths sampled at routing decisions, as a
                # count/mean/percentile summary dict (empty switches
                # report {"count": 0}).
                m.gauge_fn(
                    "net.switch.queue_depth",
                    lambda s=tswitch: (s.queue_depth.summary()
                                       if s.queue_depth.count
                                       else {"count": 0}),
                    **tags)

    # -- verification helpers ------------------------------------------------------

    def checker(self) -> CoherenceChecker:
        return CoherenceChecker(self.tracer, self.directory)

    def backends(self) -> Dict[int, object]:
        return {n.node_id: n.backend for n in self.nodes}

    def assert_quiescent(self) -> None:
        for node in self.nodes:
            if node.hib.outstanding.count:
                raise AssertionError(
                    f"node {node.node_id} still has "
                    f"{node.hib.outstanding.count} outstanding ops"
                )
