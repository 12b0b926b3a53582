"""[S6] §2.2.6 — page access counters and alarm-based replication.

"By setting the counters to small values, the operating system can
implement alarm-based replication: when the number of accesses exceeds
a predetermined value, the operating system is notified in order to
make a replication decision.  Our simulation studies suggest that page
access counters improve the performance of distributed shared memory
applications."

A reader node runs a seeded access stream against remote pages, under
three policies: never replicate; alarm-based replication at threshold
N (the §2.2.6 design); and the same alarm policy on a *uniform*
stream, where no page is hot and replication (correctly) never
triggers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

POLICIES = ("hot_no_replication", "hot_alarm", "uniform_alarm")
POLICY_LABELS = {
    "hot_no_replication": "hot stream / no replication",
    "hot_alarm": "hot stream / alarm @{threshold}",
    "uniform_alarm": "uniform stream / alarm @{threshold}",
}


def _run_stream(kind: str, accesses: int, n_pages: int, seed: int,
                threshold: Optional[int]) -> Dict[str, Any]:
    """Play one access stream on a fresh two-node cluster.
    ``threshold=None`` disables replication."""
    from repro.api import Cluster, ClusterConfig
    from repro.workloads import play_pattern

    cluster = Cluster(ClusterConfig(n_nodes=2, protocol="telegraphos",
                                    replication_threshold=threshold))
    result = play_pattern(cluster, kind=kind, accesses=accesses,
                          n_pages=n_pages, hot_fraction=0.9, seed=seed)
    return {
        "mean_us": result.mean_ns / 1000.0,
        "tail_us": result.tail_ns / 1000.0,
        "replications": result.replications,
        "makespan_us": result.makespan_ns / 1000.0,
    }


def run(accesses: int = 400, threshold: int = 32,
        seed: int = 11) -> Dict[str, Any]:
    return {
        "threshold": threshold,
        "hot_no_replication": _run_stream("hot_page", accesses, 4, seed,
                                          None),
        "hot_alarm": _run_stream("hot_page", accesses, 4, seed, threshold),
        # Spread over 16 pages: ~25 accesses per page, below the alarm
        # threshold — no page is hot enough to be worth replicating.
        "uniform_alarm": _run_stream("uniform", accesses, 16, seed,
                                     threshold),
    }


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(
        ["policy", "mean access", "last-100 accesses", "replications"])
    for policy in POLICIES:
        r = result[policy]
        label = POLICY_LABELS[policy].format(threshold=result["threshold"])
        bold = policy == "hot_alarm"
        mean = f"**{r['mean_us']:.1f} µs**" if bold else f"{r['mean_us']:.1f} µs"
        tail = f"**{r['tail_us']:.1f} µs**" if bold else f"{r['tail_us']:.1f} µs"
        note = {"hot_no_replication": "",
                "hot_alarm": " (the hot page)",
                "uniform_alarm": " (nothing hot)"}[policy]
        table.add_row(label, mean, tail, f"{r['replications']}{note}")
    ratio = (result["hot_no_replication"]["tail_us"]
             / result["hot_alarm"]["tail_us"])
    return (
        f"{table.render()}\n\n"
        "Alarm-based replication converts the hot page's accesses to "
        f"local ones\n({ratio:.1f}× cheaper tail) and correctly stays "
        "idle on a uniform stream."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """The alarm fires exactly for the hot page, post-replication
    accesses go local, and a uniform stream never triggers it."""
    no_repl = result["hot_no_replication"]
    alarm = result["hot_alarm"]
    uniform = result["uniform_alarm"]
    return unmet(
        (alarm["replications"] == 1,
         f"the alarm replicated {alarm['replications']} pages, not the "
         "one hot page"),
        (alarm["tail_us"] < no_repl["tail_us"] / 3,
         f"after replication the tail costs {alarm['tail_us']:.2f} µs, "
         f"not a third of {no_repl['tail_us']:.2f} µs"),
        (alarm["mean_us"] < no_repl["mean_us"],
         "replication did not improve the whole run"),
        (uniform["replications"] == 0,
         f"a uniform stream triggered {uniform['replications']} "
         "replications"),
    )


SPEC = ExperimentSpec(
    exp_id="S6",
    title="§2.2.6 page access counters → alarm-based replication",
    bench="benchmarks/bench_s226_replication.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="400-access streams, 90% of the hot stream on one page.",
    version=1,
    params={"accesses": 400, "threshold": 32, "seed": 11},
    cost=0.2,
)
