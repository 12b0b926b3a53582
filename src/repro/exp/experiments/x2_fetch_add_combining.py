"""[X2] Fetch-and-add combining on a hot word.

The Ultracomputer argument, replayed on the HIB: when every node
increments the *same* shared counter (ticket locks, work queues,
reduction indices), the §2.2.3 path serializes one atomic round trip
per increment at the home HIB.  With NIC-side combining
(:mod:`repro.hib.collectives`), each HIB merges increments that land
within a short window and forwards one combined fetch&add up the tree;
the home word is touched once per *window*, and base values are
distributed back down so every caller still observes a distinct,
serializable fetched value.

Correctness is asserted inside the measurement: under both backends
the N×K fetched values must be exactly ``0..N*K-1`` (each once) and
the final counter must equal N×K.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet


def _hot_word_ns(n_nodes: int, increments: int, backend: str,
                 radix: int, window_ns: int) -> Dict[str, Any]:
    from repro.api import Cluster, ClusterConfig

    config = ClusterConfig(
        n_nodes=n_nodes, trace=False, metrics=False, collectives=backend,
    )
    with Cluster(config) as cluster:
        # The hot word lives at node 0 — also the combining-tree root,
        # so the NIC backend's single application per window is a local
        # MPM read-modify-write.
        seg = cluster.alloc_segment(home=0, pages=1, name="hot")
        # The window must be longer than one packet serialization
        # (0.70 µs) or children's contributions miss each other; a
        # wider tree shortens the up/down critical path.
        group = cluster.collective_group(
            "fadd", radix=radix, combine_window_ns=window_ns,
        )
        fetched: List[int] = []
        finished: Dict[int, int] = {}
        contexts = []
        for node in range(n_nodes):
            proc = cluster.create_process(node=node, name=f"f{node}")
            base = proc.map(seg)
            collective = group.join(proc)

            def program(p, collective=collective, base=base, node=node):
                for _ in range(increments):
                    value = yield from collective.fetch_add(base, 1)
                    fetched.append(value)
                finished[node] = cluster.now

            contexts.append(proc.start(program))
        cluster.run(join=contexts, drain_ns=0)
        total = n_nodes * increments
        if sorted(fetched) != list(range(total)):
            raise AssertionError(
                f"{backend}: fetched values are not a permutation of "
                f"0..{total - 1}: {sorted(fetched)[:10]}..."
            )
        if seg.peek(0) != total:
            raise AssertionError(
                f"{backend}: final counter {seg.peek(0)} != {total}"
            )
        if backend == "nic":
            root = cluster.node(0).hib.coll.stats
            home_rmws = root["fadds_applied"]
            combine_hits = sum(
                station.hib.coll.stats["combine_hits"]
                for station in cluster.nodes
            )
        else:
            home_rmws = total  # every increment is one home atomic
            combine_hits = 0
        return {
            "elapsed_ns": max(finished.values()),
            "home_rmws": home_rmws,
            "combine_hits": combine_hits,
        }


def _claims(result: Dict[str, Any]) -> Dict[str, Any]:
    host, nic = result["host"], result["nic"]
    return {
        "nic_faster": nic["elapsed_ns"] < host["elapsed_ns"],
        "home_word_decongested": nic["home_rmws"] < result["total"],
        "speedup": round(host["elapsed_ns"] / nic["elapsed_ns"], 1),
        "rmw_reduction": round(host["home_rmws"] / nic["home_rmws"], 1),
    }


def run(n_nodes: int = 16, increments: int = 8,
        radix: int = 4, window_ns: int = 1600) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "n_nodes": n_nodes,
        "increments": increments,
        "total": n_nodes * increments,
        "radix": radix,
        "window_ns": window_ns,
    }
    for backend in ("host", "nic"):
        result[backend] = _hot_word_ns(n_nodes, increments, backend,
                                       radix, window_ns)
    result["claims"] = _claims(result)
    return result


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(
        ["backend", "elapsed (µs)", "home-word RMWs", "combine hits"])
    for backend in ("host", "nic"):
        point = result[backend]
        table.add_row(
            backend,
            f"{point['elapsed_ns'] / 1000.0:.1f}",
            point["home_rmws"],
            point["combine_hits"],
        )
    claims = result["claims"]
    return (
        f"{table.render()}\n\n"
        f"{result['n_nodes']} nodes × {result['increments']} "
        f"increments of one hot word: combining touches the home "
        f"word {claims['rmw_reduction']}× less often and finishes "
        f"{claims['speedup']}× sooner, while every caller still "
        "fetches a distinct value (the full permutation "
        f"0..{result['total'] - 1} is asserted under both backends)."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """Combining finishes sooner, and it is real rather than incidental:
    well under one home RMW per increment, with merges observed."""
    claims = _claims(result)
    nic = result["nic"]
    return unmet(
        (claims["nic_faster"],
         f"combining finished {claims['speedup']}× sooner, not faster"),
        (nic["home_rmws"] <= result["total"] // 2,
         f"the home word took {nic['home_rmws']} RMWs for "
         f"{result['total']} increments: not combined"),
        (nic["combine_hits"] > 0, "no increments were merged"),
    )


SPEC = ExperimentSpec(
    exp_id="X2",
    title="Fetch-and-add combining on a hot word",
    bench="benchmarks/bench_x2_fetch_add_combining.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="Combining windows (1.6 µs, radix-4 tree) are a modelling "
           "choice for the HIB's FPGA state machines; the paper's "
           "hardware serializes every atomic at the home HIB.",
    version=1,
    cost=2.0,
)
