"""The declarative scenario registry.

An experiment used to be a hand-wired function: build a cluster, build
a workload, pick counters out of the wreckage.  This module splits that
into the three declarative layers the rest of :mod:`repro.exp` already
uses for specs (config model → factory → wiring):

- **Workload factories** — every generator in :mod:`repro.workloads`
  is registered under a stable name (``"hotspot"``,
  ``"producer_consumer"``, ``"migratory"``, ``"patterns"``,
  ``"traces"``).  A factory is called as ``factory(cluster, **params)``
  and returns a result object (usually a dataclass).
- **:class:`ScenarioSpec`** — the config model: which workload, with
  which params, on which cluster (a plain :class:`ClusterConfig`
  kwargs dict, JSON-safe so it can live inside an
  :class:`~repro.exp.spec.ExperimentSpec`'s params), plus which named
  collectors to snapshot afterwards.
- **Wiring** — :func:`make_cluster` builds the cluster (including
  timing-parameter overrides for grid axes like ``link_prop_ns``), and
  :func:`run_scenario` executes the whole scenario and returns one
  JSON-safe document.

``run_scenario`` is a pure function of its scenario — the property the
experiment cache keys and the byte-identity contract rely on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

WorkloadFactory = Callable[..., Any]
Collector = Callable[[Any], Dict[str, Any]]

_WORKLOADS: Dict[str, WorkloadFactory] = {}
_COLLECTORS: Dict[str, Collector] = {}
_BUILTINS_LOADED = False


def register_workload(
    name: str, factory: Optional[WorkloadFactory] = None
) -> Callable[[WorkloadFactory], WorkloadFactory]:
    """Register ``factory`` under ``name`` (also usable as a
    decorator).  Re-registering a name is an error — scenario specs
    address factories by name, so a silent replacement would change
    what a committed spec means."""

    def installer(fn: WorkloadFactory) -> WorkloadFactory:
        if name in _WORKLOADS and _WORKLOADS[name] is not fn:
            raise ValueError(f"workload {name!r} is already registered")
        _WORKLOADS[name] = fn
        return fn

    if factory is not None:
        installer(factory)
        return factory
    return installer


def register_collector(
    name: str, collector: Optional[Collector] = None
) -> Callable[[Collector], Collector]:
    def installer(fn: Collector) -> Collector:
        if name in _COLLECTORS and _COLLECTORS[name] is not fn:
            raise ValueError(f"collector {name!r} is already registered")
        _COLLECTORS[name] = fn
        return fn

    if collector is not None:
        installer(collector)
        return collector
    return installer


def _load_builtins() -> None:
    """Register the :mod:`repro.workloads` factories (lazily, so
    importing :mod:`repro.exp` does not drag the whole workload layer
    in)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.workloads import (
        TracePlayer,
        false_sharing_trace,
        play_pattern,
        private_pages_trace,
        run_hotspot_counter,
        run_migratory,
        run_producer_consumer,
        true_sharing_trace,
    )

    register_workload("hotspot", run_hotspot_counter)
    register_workload("producer_consumer", run_producer_consumer)
    register_workload("migratory", run_migratory)
    register_workload("patterns", play_pattern)

    trace_builders = {
        "false_sharing": false_sharing_trace,
        "true_sharing": true_sharing_trace,
        "private_pages": private_pages_trace,
    }

    def run_trace(cluster: Any, trace: str = "false_sharing",
                  nodes: Optional[List[int]] = None, refs: int = 12,
                  think_ns: int = 800_000, mode: str = "replica") -> Any:
        """Play one of the §2.2.6 [22]-study traces through a
        :class:`~repro.workloads.TracePlayer`."""
        builder = trace_builders.get(trace)
        if builder is None:
            raise KeyError(
                f"unknown trace {trace!r}; known: "
                f"{sorted(trace_builders)}"
            )
        built = builder(nodes if nodes is not None else [1, 2], refs,
                        think_ns=think_ns)
        seg = cluster.alloc_segment(home=0, pages=max(1, built.n_pages),
                                    name="study")
        return TracePlayer(cluster, seg, mode=mode).run(built)

    register_workload("traces", run_trace)

    def collect_coherence(cluster: Any) -> Dict[str, Any]:
        engines = cluster.engines.values()
        return {
            "updates_sent": sum(e.stats["updates_sent"] for e in engines),
            "updates_received": sum(
                e.stats["updates_received"] for e in engines),
            "updates_ignored": sum(
                e.stats["updates_ignored"] for e in engines),
        }

    def collect_hib(cluster: Any) -> Dict[str, Any]:
        stations = cluster.nodes
        return {
            "remote_writes": sum(
                s.hib.stats["remote_writes"] for s in stations),
            "remote_reads": sum(
                s.hib.stats["remote_reads"] for s in stations),
            "atomics": sum(s.hib.stats["atomics"] for s in stations),
            "packets_served": sum(
                s.hib.stats["packets_served"] for s in stations),
        }

    def collect_network(cluster: Any) -> Dict[str, Any]:
        """Fabric-level counters: per-link utilization extremes plus
        the torus routing-decision counters (zero on tree fabrics).
        All values derive from integer simulation counters, so the
        document is deterministic across worker counts and kernels."""
        fabric = cluster.fabric
        now = cluster.now
        links = fabric.links
        peak_busy = max((link.busy_ns for link in links), default=0)
        total_busy = sum(link.busy_ns for link in links)
        torus = [
            sw for plane in fabric.torus_switches.values()
            for sw in plane.values()
        ]
        depth_count = sum(sw.queue_depth.count for sw in torus)
        depth_total = sum(sw.queue_depth.total for sw in torus)
        depth_max = max(
            (sw.queue_depth.maximum for sw in torus if sw.queue_depth.count),
            default=0,
        )
        return {
            "packets_routed": fabric.total_packets_routed,
            "links": len(links),
            "peak_link_utilization_pct": (
                round(100.0 * peak_busy / now, 4) if now else 0.0),
            "mean_link_utilization_pct": (
                round(100.0 * total_busy / (len(links) * now), 4)
                if now and links else 0.0),
            "adaptive_hops": sum(sw.adaptive_hops for sw in torus),
            "escape_hops": sum(sw.escape_hops for sw in torus),
            "datelines_crossed": sum(
                sw.datelines_crossed for sw in torus),
            "escape_fallbacks": sum(
                sw.escape_fallbacks for sw in torus),
            "queue_depth": {
                "count": depth_count,
                "mean": (round(depth_total / depth_count, 4)
                         if depth_count else None),
                "max": depth_max,
            },
        }

    register_collector("coherence", collect_coherence)
    register_collector("hib", collect_hib)
    register_collector("network", collect_network)


def workload_factory(name: str) -> WorkloadFactory:
    _load_builtins()
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {workload_names()}"
        ) from None


def workload_names() -> List[str]:
    _load_builtins()
    return sorted(_WORKLOADS)


def collector(name: str) -> Collector:
    _load_builtins()
    try:
        return _COLLECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown collector {name!r}; registered: "
            f"{sorted(_COLLECTORS)}"
        ) from None


# ---------------------------------------------------------------------------
# Wiring.
# ---------------------------------------------------------------------------


def make_cluster(**wiring: Any) -> Any:
    """Build a cluster from a declarative wiring dict.

    ``wiring`` is :class:`~repro.api.config.ClusterConfig` kwargs, plus
    one convenience key the config object itself cannot express in
    JSON: ``timing`` — a dict of :class:`~repro.params.TimingParams`
    field overrides applied to the default parameter set.  This is how
    a grid axis like ``link_prop_ns`` reaches the simulator without
    every experiment hand-building a :class:`~repro.params.Params`.
    """
    from repro.api import Cluster, ClusterConfig
    from repro.params import DEFAULT_PARAMS

    wiring = dict(wiring)
    timing = wiring.pop("timing", None)
    if timing:
        wiring["params"] = DEFAULT_PARAMS.with_timing(**timing)
    return Cluster(ClusterConfig(**wiring))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declared scenario: workload × params × cluster wiring.

    Everything in here is JSON-safe plain data, so a scenario can be
    embedded verbatim in an :class:`~repro.exp.spec.ExperimentSpec`'s
    ``params`` (and therefore in its cache key).
    """

    #: Scenario name (labels the result document).
    name: str
    #: Registered workload-factory name (see :func:`workload_names`).
    workload: str
    #: ``ClusterConfig`` kwargs plus the optional ``timing`` override
    #: dict understood by :func:`make_cluster`.
    cluster: Mapping[str, Any] = field(default_factory=dict)
    #: Keyword arguments for the workload factory.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Named collectors snapshotted after the run (``"coherence"``,
    #: ``"hib"``).
    collect: Tuple[str, ...] = ()
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workload": self.workload,
            "cluster": dict(self.cluster),
            "params": dict(self.params),
            "collect": list(self.collect),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            workload=data["workload"],
            cluster=dict(data.get("cluster", {})),
            params=dict(data.get("params", {})),
            collect=tuple(data.get("collect", ())),
            description=str(data.get("description", "")),
        )


def _jsonable(value: Any) -> Any:
    """Normalise a workload result into JSON-safe plain data.

    Dataclass results expand field by field; accumulators summarise as
    their streaming statistics (the mean is computed exactly the way
    callers used to — ``total / count`` — so ported experiments stay
    byte-identical)."""
    from repro.sim import Accumulator

    if isinstance(value, Accumulator):
        return {
            "count": value.count,
            "total": value.total,
            "mean": value.mean if value.count else None,
            "min": value.minimum if value.count else None,
            "max": value.maximum if value.count else None,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def run_scenario(scenario: ScenarioSpec, **overrides: Any) -> Dict[str, Any]:
    """Execute one scenario end to end.

    Builds the cluster from the scenario's wiring, runs the named
    workload factory with the scenario's params (plus call-time
    ``overrides``, which grid axes use), snapshots the requested
    collectors, and returns one JSON-safe document::

        {"scenario": ..., "workload": ..., "result": {...},
         "collected": {"coherence": {...}, ...}}
    """
    factory = workload_factory(scenario.workload)
    cluster = make_cluster(**scenario.cluster)
    params = {**scenario.params, **overrides}
    result = factory(cluster, **params)
    document: Dict[str, Any] = {
        "scenario": scenario.name,
        "workload": scenario.workload,
        "result": _jsonable(result),
    }
    if scenario.collect:
        document["collected"] = {
            name: collector(name)(cluster) for name in scenario.collect
        }
    return document
