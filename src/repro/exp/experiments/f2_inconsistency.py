"""[F2] Figure 2 — "Inconsistency caused by multicasting in the lack
of ownership."

Two processors update their own copy of the same page simultaneously
and multicast their updates.  Without ownership the updates are
applied in different orders at different nodes and the copies
*diverge* — and stay divergent.  Serializing all updates through the
page's owner (§2.3.1) repairs it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

PROTOCOLS = ("eager", "owner-stale", "telegraphos")
PROTOCOL_LABELS = {
    "eager": "eager multicast (no owner)",
    "owner-stale": "owner-serialized",
    "telegraphos": "counter protocol",
}


def _run_two_writers(protocol: str) -> Dict[str, Any]:
    from repro.api import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=4, protocol=protocol))
    seg = cluster.alloc_segment(home=0, pages=1, name="page")
    procs, bases = [], []
    for node in (1, 2):
        proc = cluster.create_process(node=node, name=f"w{node}")
        bases.append(proc.map(seg, mode="replica"))
        procs.append(proc)
    # An observer replica that never writes (Figure 2's third copy).
    observer = cluster.create_process(node=3, name="obs")
    observer.map(seg, mode="replica")

    contexts = []
    for proc, base, value in zip(procs, bases, (111, 222)):
        def program(p, base=base, value=value):
            yield p.store(base, value)

        contexts.append(cluster.start(proc, program))
    cluster.run(join=contexts)
    checker = cluster.checker()
    return {
        "divergent_words": len(checker.divergent_words(
            cluster.backends(), words_per_page=1)),
        "order_violations": len(checker.subsequence_violations()),
        "copies": [
            cluster.node(node).backend.peek(
                cluster.directory.group(0, seg.gpage).local_offset(node, 0)
            )
            for node in range(4)
        ],
    }


def run() -> Dict[str, Any]:
    return {protocol: _run_two_writers(protocol) for protocol in PROTOCOLS}


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(["protocol", "copies after quiescence", "divergent"])
    for protocol in PROTOCOLS:
        r = result[protocol]
        copies = " ".join(str(v) for v in r["copies"])
        divergent = ("**yes** — writers literally swap values"
                     if r["divergent_words"] else "no")
        table.add_row(PROTOCOL_LABELS[protocol], copies, divergent)
    return (
        f"{table.render()}\n\n"
        "Reproduces the figure: without a serialization point the two "
        "writers'\ncopies end with *each other's* value, and stay that "
        "way."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """No ownership means permanent divergence (the figure); updates
    through the owner repair it (§2.3.1)."""
    eager = result["eager"]
    return unmet(
        (eager["divergent_words"] > 0, "eager multicast did not diverge"),
        (eager["order_violations"] > 0,
         "eager multicast applied every update in order"),
        # The writers literally swap values (each applied its own first).
        (eager["copies"][1] != eager["copies"][2],
         f"the eager writers did not swap values: {eager['copies']}"),
        *[(result[protocol]["divergent_words"] == 0
           and len(set(result[protocol]["copies"])) == 1,
           f"{protocol}: copies {result[protocol]['copies']} diverged")
          for protocol in ("owner-stale", "telegraphos")],
        (result["telegraphos"]["order_violations"] == 0,
         "the counter protocol violated update order"),
    )


SPEC = ExperimentSpec(
    exp_id="F2",
    title="Figure 2: inconsistency from un-owned multicast",
    bench="benchmarks/bench_fig2_inconsistency.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="Two simultaneous writers (111 and 222) to the same word of "
           "a 4-copy page.",
    version=1,
    cost=0.1,
)
