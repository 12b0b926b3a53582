"""The declared grid families — paper claims swept along an axis.

Where the flat specs in this package reproduce a table or figure *at
the paper's operating point*, each :class:`~repro.exp.grid.GridSpec`
here sweeps one claim across a parameter range, producing the
plot-ready families ``repro report`` aggregates:

- **T2/** — the §3.2 latency table vs link propagation delay: how much
  of the 7.2 µs remote read is the wire vs the blocking protocol.
- **S3/** — §2.3.4 counter-cache stalls vs burst size at the paper's
  16-entry cache: where the "16-32 entries will have enough space"
  estimate starts to strain.
- **X1/** — barrier cost vs node count for both collective backends:
  the O(N) host funnel vs the O(log N) NIC combining tree.
- **W1/** — migratory sharing (§2.3.6) across both sharing policies ×
  round counts (:func:`~repro.workloads.run_migratory`).
- **W2/** — alarm-based replication (§2.2.6) vs stream skew
  (``hot_fraction`` is a float axis; :func:`~repro.workloads.play_pattern`).
- **A2/** — the topology ablation as a routing-mode family: the same
  4×4 torus under tree (up*/down* over the torus graph), deterministic
  dimension-order, and backpressure-adaptive routing, each under clean
  hotspot traffic and a seeded fault soak (DESIGN.md §10).

The W1, W2 and A2 runs below build their cluster with
``Cluster(ClusterConfig(...))``, call one :mod:`repro.workloads`
function and read the fields of the dataclass it returns.  Every
``run`` is a module-level function: grid points travel to pool workers
(and, under spawn, must pickle by reference).  Points carry no
renderer: EXPERIMENTS.md shows a family through its aggregate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.exp.experiments import s3_counter_cache, t2_latency, x1_barrier_scaling
from repro.exp.grid import GridSpec


def _coherence_counters(cluster: Any) -> Dict[str, int]:
    """Update-protocol traffic summed over every coherence engine."""
    engines = cluster.engines.values()
    return {
        "updates_sent": sum(e.stats["updates_sent"] for e in engines),
        "updates_received": sum(e.stats["updates_received"] for e in engines),
        "updates_ignored": sum(e.stats["updates_ignored"] for e in engines),
    }


def _hib_counters(cluster: Any) -> Dict[str, int]:
    """Operation counts summed over every node's HIB."""
    stations = cluster.nodes
    return {
        "remote_writes": sum(s.hib.stats["remote_writes"] for s in stations),
        "remote_reads": sum(s.hib.stats["remote_reads"] for s in stations),
        "atomics": sum(s.hib.stats["atomics"] for s in stations),
        "packets_served": sum(
            s.hib.stats["packets_served"] for s in stations),
    }


def _network_counters(cluster: Any) -> Dict[str, Any]:
    """Fabric-level counters: per-link utilization extremes plus the
    torus routing-decision counters (zero on tree fabrics).  All values
    derive from integer simulation counters, so the document is
    deterministic across worker counts and kernels."""
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
        "datelines_crossed": sum(sw.datelines_crossed for sw in torus),
        "escape_fallbacks": sum(sw.escape_fallbacks for sw in torus),
        "queue_depth": {
            "count": depth_count,
            "mean": (round(depth_total / depth_count, 4)
                     if depth_count else None),
            "max": depth_max,
        },
    }


def run_migratory_point(sharing: str, rounds_per_node: int,
                        words: int = 8, n_nodes: int = 3) -> Dict[str, Any]:
    """One W1 point: migratory sharing under one policy × round count."""
    from repro.api import Cluster, ClusterConfig
    from repro.workloads import run_migratory

    protocol = "telegraphos" if sharing == "replica" else "none"
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes, protocol=protocol))
    result = run_migratory(cluster, rounds_per_node=rounds_per_node,
                           words=words, sharing=sharing)
    if result.final_sum != result.expected_sum:
        raise AssertionError(
            f"lost updates: {result.final_sum} != {result.expected_sum}"
        )
    return {
        "sharing": sharing,
        "rounds_per_node": rounds_per_node,
        "makespan_us": result.makespan_ns / 1000.0,
        "updates": result.total_updates_sent,
        "coherence": _coherence_counters(cluster),
    }


def run_patterns_point(hot_fraction: float, threshold: int = 32,
                       accesses: int = 400, n_pages: int = 4,
                       seed: int = 11) -> Dict[str, Any]:
    """One W2 point: the alarm-replication stream at one skew level,
    with a no-replication baseline for the speedup column."""
    from repro.api import Cluster, ClusterConfig
    from repro.workloads import PatternRunResult, play_pattern

    def stream(replication_threshold: Optional[int]) -> PatternRunResult:
        cluster = Cluster(ClusterConfig(
            n_nodes=2, protocol="telegraphos",
            replication_threshold=replication_threshold))
        return play_pattern(cluster, kind="hot_page", accesses=accesses,
                            n_pages=n_pages, hot_fraction=hot_fraction,
                            seed=seed)

    alarm = stream(threshold)
    baseline = stream(None)
    return {
        "hot_fraction": hot_fraction,
        "threshold": threshold,
        "mean_us": alarm.mean_ns / 1000.0,
        "tail_us": alarm.tail_ns / 1000.0,
        "replications": alarm.replications,
        "baseline_mean_us": baseline.mean_ns / 1000.0,
        "baseline_tail_us": baseline.tail_ns / 1000.0,
        "tail_speedup": baseline.tail_ns / alarm.tail_ns,
    }


def run_fabric_point(routing: str, traffic: str, n_nodes: int = 24,
                     increments_per_node: int = 6) -> Dict[str, Any]:
    """One A2 point: the hotspot counter on a torus fabric under one
    routing mode, optionally soaked in seeded packet faults.

    ``routing="tree"`` runs up*/down* over a spanning tree of the same
    torus graph the other two modes use, so the family isolates the
    routing discipline — not the wiring.  The fault-soak variant keeps
    the go-back-N reliability layer on and asserts the counter total is
    exact, which doubles as a termination/livelock check for the
    adaptive router.
    """
    from repro.api import Cluster, ClusterConfig
    from repro.workloads import run_hotspot_counter

    faults = None
    if traffic == "fault_soak":
        faults = {"seed": 11, "drop_rate": 0.002, "duplicate_rate": 0.001}
    elif traffic != "hotspot":
        raise ValueError(f"unknown traffic pattern {traffic!r}")
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes, topology="torus",
                                    routing=routing, faults=faults))
    result = run_hotspot_counter(
        cluster, increments_per_node=increments_per_node)
    if result.final_value != result.expected_value:
        raise AssertionError(
            f"lost increments under routing={routing!r} "
            f"traffic={traffic!r}: {result.final_value} != "
            f"{result.expected_value}"
        )
    return {
        "routing": routing,
        "traffic": traffic,
        "makespan_us": result.makespan_ns / 1000.0,
        "atomic_mean_us": result.atomic_ns.mean / 1000.0,
        "network": _network_counters(cluster),
        "hib": _hib_counters(cluster),
    }


#: EXPERIMENTS.md grid-summary order.
GRIDS: List[GridSpec] = [
    GridSpec(
        family="T2",
        title="§3.2 remote latency vs link propagation delay",
        bench="benchmarks/bench_table2_latency.py",
        run=t2_latency.run,
        axes={"link_prop_ns": [50, 200, 800, 3200]},
        base={"ops": 2000},
        provenance="emergent",
        caveat="2000 operations per point (the flat T2 claim keeps the "
               "paper's 10000); latencies scale with the link term "
               "only where the protocol blocks end-to-end.",
        version=1,
        cost=0.7,
        summary_metrics=("read_us", "write_us"),
    ),
    GridSpec(
        family="S3",
        title="§2.3.4 counter-cache stalls vs burst size",
        bench="benchmarks/bench_s234_counter_cache.py",
        run=s3_counter_cache.run_point,
        axes={"burst": [8, 16, 24, 32, 48]},
        base={"bursts": 4, "entries": 16},
        provenance="emergent",
        caveat="Paper-sized 16-entry cache at every point; bursts of "
               "distinct-word writes are the worst case for "
               "outstanding counters.",
        version=1,
        cost=0.1,
        summary_metrics=("stalls", "stall_ns", "max_used",
                         "makespan_ns"),
    ),
    GridSpec(
        family="X1",
        title="Barrier round latency vs node count",
        bench="benchmarks/bench_x1_barrier_scaling.py",
        run=x1_barrier_scaling.run_point,
        axes={"nodes": [2, 4, 8, 16]},
        base={"rounds": 2},
        provenance="emergent",
        caveat="NIC-resident collectives are an extension built from "
               "the paper's own HIB mechanisms, not a measurement of "
               "the 1996 hardware.",
        version=1,
        cost=0.5,
        summary_metrics=("host_round_us", "nic_round_us", "speedup"),
    ),
    GridSpec(
        family="W1",
        title="§2.3.6 migratory sharing across policies",
        bench="benchmarks/bench_s236_update_vs_invalidate.py",
        run=run_migratory_point,
        axes={"sharing": ["replica", "remote"],
              "rounds_per_node": [2, 4]},
        base={"words": 8},
        provenance="emergent",
        caveat="Three nodes passing lock-protected data; 'replica' "
               "multicasts every update, 'remote' reads through the "
               "home window.",
        version=1,
        cost=0.1,
        summary_metrics=("makespan_us", "updates",
                         "coherence.updates_ignored"),
    ),
    GridSpec(
        family="W2",
        title="§2.2.6 alarm-based replication vs stream skew",
        bench="benchmarks/bench_s226_replication.py",
        run=run_patterns_point,
        axes={"hot_fraction": [0.5, 0.7, 0.9, 0.98]},
        base={"threshold": 32},
        provenance="emergent",
        caveat="400-access seeded streams; the float axis is the "
               "fraction of accesses landing on the hot page.",
        version=1,
        cost=0.2,
        summary_metrics=("mean_us", "tail_us", "replications",
                         "tail_speedup"),
    ),
    GridSpec(
        family="A2",
        title="Torus routing modes under hotspot and fault-soak traffic",
        bench="benchmarks/bench_ablation_topology.py",
        run=run_fabric_point,
        axes={"routing": ["tree", "dor", "adaptive"],
              "traffic": ["hotspot", "fault_soak"]},
        base={"n_nodes": 24, "increments_per_node": 6},
        provenance="emergent",
        caveat="Torus fabrics and adaptive routing are an extension "
               "beyond the paper's Figure 1 layouts; the "
               "dateline/escape deadlock argument is documented in "
               "DESIGN.md §10.",
        preamble="All three modes run the same 24-host 4×4 torus (2 "
                 "hosts per switch): `tree` routes up\\*/down\\* over a "
                 "spanning tree of the torus graph, `dor` "
                 "dimension-ordered over the wraparound links, and "
                 "`adaptive` picks among minimal ports by "
                 "instantaneous queue depth with a dateline escape "
                 "network (DESIGN.md §10).  The fault-soak rows re-run "
                 "each mode under seeded packet drops and duplicates "
                 "with the go-back-N reliability layer on — the "
                 "counter total is asserted exact, so a row existing "
                 "at all is the termination/livelock check.",
        version=1,
        cost=1.5,
        summary_metrics=("makespan_us",
                         "network.peak_link_utilization_pct",
                         "network.mean_link_utilization_pct",
                         "network.adaptive_hops",
                         "network.escape_hops"),
    ),
]

__all__ = ["GRIDS", "run_fabric_point", "run_migratory_point",
           "run_patterns_point"]
