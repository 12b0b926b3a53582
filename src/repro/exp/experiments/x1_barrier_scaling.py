"""[X1] Barrier scaling: host counter vs NIC combining tree.

The paper gives the HIB everything a NIC-side barrier needs — atomics
at the home HIB (§2.2.3) and a multicast list memory (§2.2.7) — but
its synchronization story stops at software counter barriers over
those primitives.  This experiment quantifies what NIC-residency buys:
a cluster-wide barrier at 2..64 nodes under both backends of
:mod:`repro.api.collectives`.

The host path funnels every arrival (one remote fetch&add) and every
release poll (remote reads) through the single home HIB, so the
per-round latency grows O(N) — and worse than linearly once the poll
traffic of N-1 spinners competes with the arrival atomics for the same
servant.  The NIC path combines arrivals up a radix-2 tree of HIBs and
releases down it, so the critical path is the tree depth: O(log N)
network hops per round.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet


def _barrier_round_ns(n_nodes: int, backend: str, rounds: int) -> Dict[str, Any]:
    """Mean per-round barrier latency across ``rounds`` back-to-back
    cluster-wide barriers, plus the NIC engine's own counters."""
    from repro.api import Cluster, ClusterConfig

    config = ClusterConfig(
        n_nodes=n_nodes, trace=False, metrics=False, collectives=backend,
    )
    with Cluster(config) as cluster:
        group = cluster.collective_group("bar")
        finished: Dict[int, int] = {}
        contexts = []
        for node in range(n_nodes):
            proc = cluster.create_process(node=node, name=f"b{node}")
            collective = group.join(proc)

            def program(p, collective=collective, node=node):
                for _ in range(rounds):
                    yield from collective.barrier()
                finished[node] = cluster.now

            contexts.append(proc.start(program))
        cluster.run(join=contexts, drain_ns=0)
        root = cluster.node(group.members[0]).hib.coll.stats
        return {
            "round_ns": max(finished.values()) // rounds,
            "releases_sent": root["releases_sent"],
            "tree_depth": root["tree_depth_max"],
        }


def run_point(nodes: int, rounds: int = 2) -> Dict[str, Any]:
    """One grid point: both barrier backends at a single node count
    (the X1/* family sweeps ``nodes``)."""
    host = _barrier_round_ns(nodes, "host", rounds)
    nic = _barrier_round_ns(nodes, "nic", rounds)
    return {
        "nodes": nodes,
        "rounds": rounds,
        "host": host,
        "nic": nic,
        "host_round_us": host["round_ns"] / 1000.0,
        "nic_round_us": nic["round_ns"] / 1000.0,
        "speedup": host["round_ns"] / nic["round_ns"],
    }


def _claims(points: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The scaling claims over the first and last node counts."""
    first, last = points[0], points[-1]
    scale = last["nodes"] / first["nodes"]
    host_growth = last["host"]["round_ns"] / first["host"]["round_ns"]
    nic_growth = last["nic"]["round_ns"] / first["nic"]["round_ns"]
    return {
        # The NIC barrier's growth over a `scale`x node increase is
        # far below linear (tree depth grows with log N).
        "nic_sublinear": nic_growth < scale / 2,
        # The host counter barrier grows at least linearly (poll
        # traffic makes it super-linear in practice).
        "host_linear_or_worse": host_growth >= scale / 2,
        "nic_faster_at_max": (
            last["host"]["round_ns"] > 2 * last["nic"]["round_ns"]
        ),
        "host_growth": round(host_growth, 1),
        "nic_growth": round(nic_growth, 1),
        "speedup_at_max": round(
            last["host"]["round_ns"] / last["nic"]["round_ns"], 1
        ),
    }


def run(nodes: Sequence[int] = (2, 4, 8, 16, 32, 64),
        rounds: int = 2) -> Dict[str, Any]:
    points = [
        {"nodes": n,
         "host": _barrier_round_ns(n, "host", rounds),
         "nic": _barrier_round_ns(n, "nic", rounds)}
        for n in nodes
    ]
    return {"rounds": rounds, "points": points, "claims": _claims(points)}


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(["nodes", "host barrier (µs/round)",
                           "nic barrier (µs/round)", "speedup"])
    for point in result["points"]:
        host, nic = point["host"]["round_ns"], point["nic"]["round_ns"]
        table.add_row(point["nodes"], f"{host / 1000.0:.1f}",
                      f"{nic / 1000.0:.1f}", f"{host / nic:.1f}×")
    claims = result["claims"]
    first, last = result["points"][0], result["points"][-1]
    return (
        f"{table.render()}\n\n"
        f"From {first['nodes']} to {last['nodes']} nodes the host "
        f"counter barrier slows down {claims['host_growth']}× (every "
        "arrival and poll serializes at the home HIB) while the NIC "
        f"combining tree slows down only {claims['nic_growth']}× "
        "(the critical path is the tree depth, "
        f"{last['nic']['tree_depth']} levels at {last['nodes']} "
        f"nodes) — {claims['speedup_at_max']}× faster at scale."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """Sub-linear NIC growth, linear-or-worse host growth, and the NIC
    barrier wins at every node count, not just at the ends."""
    points = result["points"]
    claims = _claims(points)
    span = f"from {points[0]['nodes']} to {points[-1]['nodes']} nodes"
    return unmet(
        (claims["nic_sublinear"],
         f"the NIC barrier slows {claims['nic_growth']}× {span}: not "
         "sub-linear"),
        (claims["host_linear_or_worse"],
         f"the host barrier slows only {claims['host_growth']}× {span}"),
        (claims["nic_faster_at_max"],
         f"the NIC barrier is only {claims['speedup_at_max']}× faster at "
         f"{points[-1]['nodes']} nodes"),
        *[(point["nic"]["round_ns"] < point["host"]["round_ns"],
           f"at {point['nodes']} nodes the NIC barrier "
           f"({point['nic']['round_ns']} ns) loses to the host one "
           f"({point['host']['round_ns']} ns)")
          for point in points],
    )


SPEC = ExperimentSpec(
    exp_id="X1",
    title="Barrier scaling: host counter vs NIC combining tree",
    bench="benchmarks/bench_x1_barrier_scaling.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="NIC-resident collectives are an extension built from the "
           "paper's own HIB mechanisms (home atomics + multicast "
           "lists), not a measurement of the 1996 hardware.",
    version=1,
    cost=8.0,
)
