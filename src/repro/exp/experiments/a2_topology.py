"""[A2] Ablation — latency and throughput across cluster topologies.

Figure 1 shows the prototype's workstations hanging off one or two
switches connected by ribbon cables.  This ablation scales that out:
blocking-read latency grows with switch hop count (each hop adds
store-and-forward serialization plus routing), while the streamed
remote-write cost stays pinned at the *bottleneck link* rate — writes
don't wait for the path, which is the §2.2.1 asymmetry again, now as
a function of distance.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

DEFAULT_CASES = [
    {"topology": "star", "n_nodes": 4, "src": 0, "dst": 1},   # same switch
    {"topology": "chain", "n_nodes": 4, "src": 0, "dst": 3},  # 2 switches
    {"topology": "chain", "n_nodes": 8, "src": 0, "dst": 7},  # 4 switches
    {"topology": "mesh", "n_nodes": 8, "src": 0, "dst": 7},   # 2x2 mesh
]


def _measure_pair(topology: str, n_nodes: int, src: int,
                  dst: int) -> Dict[str, Any]:
    from repro.analysis import measure_op_stream, us
    from repro.api import Cluster, ClusterConfig
    from repro.network.routing import route_length

    cluster = Cluster(ClusterConfig(n_nodes=n_nodes, topology=topology,
                                    trace=False))
    seg = cluster.alloc_segment(home=dst, pages=2, name="bench")
    proc = cluster.create_process(node=src, name="bench")
    base = proc.map(seg)
    hops = route_length(cluster.fabric.topology, src, dst)
    read_us = us(
        measure_op_stream(
            cluster, proc, lambda i: proc.load(base + 4 * (i % 64)),
            count=60, fence_at_end=False,
        )
    )
    cluster2 = Cluster(ClusterConfig(n_nodes=n_nodes, topology=topology,
                                     trace=False))
    seg2 = cluster2.alloc_segment(home=dst, pages=2, name="bench")
    proc2 = cluster2.create_process(node=src, name="bench")
    base2 = proc2.map(seg2)
    write_us = us(
        measure_op_stream(
            cluster2, proc2, lambda i: proc2.store(base2 + 4 * (i % 64), i),
            count=2000,
        )
    )
    return {
        "route": f"{topology}/{n_nodes}n {src}->{dst}",
        "hops": hops,
        "read_us": read_us,
        "write_us": write_us,
    }


def run() -> Dict[str, Any]:
    return {"cases": [_measure_pair(**case) for case in DEFAULT_CASES]}


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(
        ["route", "switch hops", "read", "streamed write"])
    for case in result["cases"]:
        table.add_row(case["route"], case["hops"],
                      f"{case['read_us']:.1f} µs",
                      f"{case['write_us']:.2f} µs")
    ordered: List[Dict[str, Any]] = sorted(result["cases"],
                                           key=lambda c: c["hops"])
    return (
        f"{table.render()}\n\n"
        f"Blocking reads grow {ordered[0]['read_us']:.1f} → "
        f"{ordered[-1]['read_us']:.1f} µs from {ordered[0]['hops']} to "
        f"{ordered[-1]['hops']}\nswitch hops, while streamed writes "
        f"stay pinned at {ordered[0]['write_us']:.2f} µs regardless\n"
        "of distance — §2.2.1's asymmetry as a function of route "
        "length."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """Blocking reads degrade with hop count; streamed writes stay at
    the network transfer rate whatever the distance."""
    ordered = sorted(result["cases"], key=lambda case: case["hops"])
    near, far = ordered[0], ordered[-1]
    write_costs = [case["write_us"] for case in ordered]
    return unmet(
        (near["hops"] < far["hops"], "every route has the same hop count"),
        (far["read_us"] > near["read_us"] * 1.3,
         f"reads cost {near['read_us']:.2f} µs at {near['hops']} hops and "
         f"{far['read_us']:.2f} µs at {far['hops']}: not 1.3× worse"),
        (max(write_costs) < min(write_costs) * 1.10,
         f"streamed writes vary beyond 10% with distance: {write_costs}"),
    )


SPEC = ExperimentSpec(
    exp_id="A2",
    title="Ablation: topology scaling (§2.2.1 asymmetry vs distance)",
    bench="benchmarks/bench_ablation_topology.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="Topologies beyond the prototype's one-or-two switches are "
           "extrapolation; the paper shows only Figure 1's layouts.",
    version=1,
    cost=2.0,
)
