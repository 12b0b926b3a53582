"""[S5] §2.4 — comparison with the Galactica Net update protocol.

"Suppose for example, that one processor writes the value '1' to a
variable, while at the same time another processor writes the value
'2' to the same variable.  Then under the Galactica protocol, it is
possible that a third processor sees the sequence '1,2,1' which is a
sequence that is not a valid program sequence under any memory
consistency model.  The protocol that we describe in this paper avoids
this inconsistency."

Two near-simultaneous conflicting writers on a sharing ring, plus an
observer sitting between them in ring order.  Under Galactica the
loser backs off and re-circulates the winner's value, so the observer
sees winner, loser, winner — the invalid "1,2,1".  Under the counter
protocol every observer's sequence is a subsequence of the owner's
order.  Both protocols converge; only one is ever *observably* wrong.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

PROTOCOLS = ("galactica", "telegraphos")
PROTOCOL_LABELS = {
    "galactica": "Galactica ring",
    "telegraphos": "counter protocol",
}


def _run_conflict(protocol: str) -> Dict[str, Any]:
    from repro.api import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=4, protocol=protocol))
    seg = cluster.alloc_segment(home=0, pages=1, name="page")
    # Ring order = sorted copy holders [0, 1, 2, 3]; writers at 1 and
    # 3 put the observer (2) between them.
    procs = {}
    bases = {}
    for node in (1, 2, 3):
        proc = cluster.create_process(node=node, name=f"n{node}")
        bases[node] = proc.map(seg, mode="replica")
        procs[node] = proc
    contexts = []
    for node, value in ((1, 1), (3, 2)):  # the paper's "1" and "2"
        def program(p, base=bases[node], value=value):
            yield p.store(base, value)

        contexts.append(cluster.start(procs[node], program))
    cluster.run(join=contexts)
    checker = cluster.checker()
    key = (0, seg.gpage, 0)
    return {
        "observer_sequence": checker.applied_values(2, key),
        "aba_observations": len(checker.aba_observations(observer=2)),
        "divergent_words": len(checker.divergent_words(
            cluster.backends(), words_per_page=1)),
        "order_violations": len(checker.subsequence_violations()),
        "final": seg.peek(0),
        "backoffs": sum(
            getattr(e, "backoffs", 0) for e in cluster.engines.values()
        ),
    }


def run() -> Dict[str, Any]:
    return {protocol: _run_conflict(protocol) for protocol in PROTOCOLS}


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(
        ["protocol", "observer's value sequence", "valid?", "converged"])
    for protocol in PROTOCOLS:
        r = result[protocol]
        sequence = ", ".join(str(v) for v in r["observer_sequence"])
        if r["aba_observations"]:
            sequence = f"**{sequence}**"
            valid = "**no** (the paper's invalid sequence)"
            if r["backoffs"]:
                converged = "yes (loser backed off)"
            else:
                converged = "yes" if not r["divergent_words"] else "**no**"
        else:
            valid = "yes"
            converged = "yes" if not r["divergent_words"] else "**no**"
        table.add_row(PROTOCOL_LABELS[protocol], sequence, valid, converged)
    return (
        f"{table.render()}\n\n"
        "Exactly the paper's example: Galactica converges but exposes "
        "\"1,2,1\";\nTelegraphos observers only ever see \"1\", \"2\", "
        "\"1,2\" or \"2,1\"."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """Galactica converges but its observer sees the invalid "1,2,1";
    under the counter protocol "no processor ever reads 1,2,1"."""
    galactica, tele = result["galactica"], result["telegraphos"]
    return unmet(
        (galactica["divergent_words"] == 0 and galactica["backoffs"] == 1,
         f"Galactica did not converge through one back-off "
         f"({galactica['backoffs']} back-offs, "
         f"{galactica['divergent_words']} divergent words)"),
        (galactica["observer_sequence"] == [1, 2, 1]
         and galactica["aba_observations"] > 0,
         f"Galactica's observer saw {galactica['observer_sequence']}, "
         "not the invalid 1,2,1"),
        (tele["divergent_words"] == 0 and tele["order_violations"] == 0,
         "the counter protocol diverged or violated update order"),
        (tele["aba_observations"] == 0
         and tele["observer_sequence"] in ([1], [2], [1, 2], [2, 1]),
         f"the counter protocol's observer saw "
         f"{tele['observer_sequence']}"),
    )


SPEC = ExperimentSpec(
    exp_id="S5",
    title="§2.4 Galactica comparison",
    bench="benchmarks/bench_s24_galactica.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="The Galactica baseline is implemented from the paper's "
           "§2.4 description of [15] (ring traversal, priority "
           "back-off), not from the Galactica paper itself.",
    version=1,
    cost=0.1,
)
