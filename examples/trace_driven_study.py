#!/usr/bin/env python3
"""A trace-driven coherence study (the methodology of [22]).

The paper's §2.2.6 cites the authors' companion paper, "Trace-Driven
Simulations of Data-Alignment and Other Factors affecting Update and
Invalidate Based Coherent Memory".  This example re-runs that study's
core question on our cluster: how much does *data alignment* matter?

Three synthetic traces — false sharing (distinct words, one page),
true sharing (the same words), and page-aligned private data — replay
under word-granular Telegraphos update replicas and under the
page-granular VSM baseline.  A cluster report at the end shows where
the traffic went.

Run:  python examples/trace_driven_study.py
"""

from repro.analysis import ClusterReport, Table
from repro.api import Cluster, ClusterConfig
from repro.workloads import (
    TracePlayer,
    false_sharing_trace,
    private_pages_trace,
    true_sharing_trace,
)

NODES = [1, 2]
REFS = 10
THINK_NS = 800_000


def run_case(mode, protocol, trace):
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol))
    seg = cluster.alloc_segment(home=0, pages=max(1, trace.n_pages),
                                name="study")
    player = TracePlayer(cluster, seg, mode=mode)
    result = player.run(trace)
    faults = 0
    if player._vsm is not None:
        faults = player._vsm.read_faults + player._vsm.write_faults
    return cluster, result, faults


def main():
    traces = {
        "false sharing": false_sharing_trace(NODES, REFS, think_ns=THINK_NS),
        "true sharing": true_sharing_trace(NODES, REFS, think_ns=THINK_NS),
        "private pages": private_pages_trace(NODES, REFS, think_ns=THINK_NS),
    }
    table = Table(
        ["trace", "system", "mean access (us)", "page faults"],
        title="Data-alignment sensitivity ([22] methodology)",
    )
    last_cluster = None
    for name, trace in traces.items():
        cluster, tele, _ = run_case("replica", "telegraphos", trace)
        _, vsm, faults = run_case("vsm", "none", trace)
        table.add_row(name, "telegraphos", tele.mean_latency_ns / 1000.0, "-")
        table.add_row(name, "vsm", vsm.mean_latency_ns / 1000.0, faults)
        last_cluster = cluster
    print(table.render())
    print()
    print("Conclusion: page-granular DSM collapses under false sharing")
    print("(every reference ping-pongs the whole page); Telegraphos'")
    print("word-granular updates are insensitive to alignment.")
    print()
    print(ClusterReport(last_cluster).render())


if __name__ == "__main__":
    main()
