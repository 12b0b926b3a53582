"""[S1] §2.3.2 — "Writes to Locally-Present but Remotely-Owned Pages".

Reproduces both anomalies the section derives, on the same scenario:

Problem 1 (no local apply, "owner-stale"): P writes M=1 and
immediately reads M — and gets 0, "The processor reads something
different from what it just wrote."

Problem 2 (local apply without counters, "owner-local"): P writes
M=2 then M=3; the reflected 2 later overwrites the newer 3, so for a
window of time P's copy has gone *backwards* (an A-B-A on its own
copy, during which a read returns 2).

The counter protocol ("telegraphos") passes both.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

PROTOCOLS = ("owner-stale", "owner-local", "telegraphos")
PROTOCOL_LABELS = {
    "owner-stale": "owner-stale (no local apply)",
    "owner-local": "owner-local (no counters)",
    "telegraphos": "counter protocol",
}


def _stale_read_scenario(protocol: str) -> int:
    """P writes M=1, reads M immediately; returns the read value."""
    from repro.api import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol))
    seg = cluster.alloc_segment(home=0, pages=1, name="page")
    writer = cluster.create_process(node=1, name="writer")
    base = writer.map(seg, mode="replica")
    other = cluster.create_process(node=2, name="other")
    other.map(seg, mode="replica")
    got = {}

    def program(p):
        yield p.store(base, 1)
        got["read"] = yield p.load(base)

    cluster.run(join=[cluster.start(writer, program)])
    return got["read"]


def _overwrite_scenario(protocol: str) -> Dict[str, Any]:
    """P writes 2 then 3; returns P's copy's applied-value sequence
    and the duration of any stale window (copy value < latest write)."""
    from repro.api import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol))
    seg = cluster.alloc_segment(home=0, pages=1, name="page")
    writer = cluster.create_process(node=1, name="writer")
    base = writer.map(seg, mode="replica")
    other = cluster.create_process(node=2, name="other")
    other.map(seg, mode="replica")

    def program(p):
        yield p.store(base, 2)
        yield p.store(base, 3)

    cluster.run(join=[cluster.start(writer, program)])
    checker = cluster.checker()
    key = (0, seg.gpage, 0)
    sequence = checker.applied_values(1, key)
    # Width of the stale window: time between the stale apply and the
    # corrective apply, from the trace timestamps.
    events = [
        e for e in cluster.tracer.events
        if e.category == "apply" and e.fields["node"] == 1
        and e.fields["key"] == key
        and e.fields["kind"] in ("local", "reflect")
    ]
    stale_ns = 0
    for i, event in enumerate(events[:-1]):
        if event.value < 3 and any(x.value == 3 for x in events[:i]):
            stale_ns += events[i + 1].time - event.time
    return {"sequence": sequence, "stale_ns": stale_ns}


def run() -> Dict[str, Any]:
    return {
        "stale_read": {p: _stale_read_scenario(p) for p in PROTOCOLS},
        "overwrite": {p: _overwrite_scenario(p) for p in PROTOCOLS},
    }


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable([
        "protocol", "read right after writing M=1",
        "copy sequence after writing 2,3", "stale window",
    ])
    for protocol in PROTOCOLS:
        read = result["stale_read"][protocol]
        over = result["overwrite"][protocol]
        sequence = str(over["sequence"])
        if protocol == "owner-stale":
            read_cell = f"**{read}** (problem 1: reads old value)"
        else:
            read_cell = str(read)
        if protocol == "owner-local":
            sequence = f"**{sequence}** (problem 2: goes backwards)"
        stale = (f"{over['stale_ns'] / 1000.0:.1f} µs"
                 if over["stale_ns"] else "0")
        table.add_row(PROTOCOL_LABELS[protocol], read_cell, sequence, stale)
    return (
        f"{table.render()}\n\n"
        "Both §2.3.2 failure modes demonstrated and both fixed by "
        "§2.3.3."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """Both §2.3.2 problems reproduce, and the counter protocol fixes
    both."""
    from repro.coherence.checker import contains_aba

    stale, over = result["stale_read"], result["overwrite"]
    local, tele = over["owner-local"], over["telegraphos"]
    return unmet(
        (stale["owner-stale"] == 0,
         f"owner-stale read {stale['owner-stale']} right after writing 1, "
         "not the old 0 (problem 1)"),
        # Problem 2: owner-local's copy goes 2,3,2,3 -- backwards in the
        # middle, with a real time window where a read returns 2.
        (contains_aba(local["sequence"]) is not None and local["stale_ns"] > 0,
         f"owner-local's copy {local['sequence']} did not go backwards "
         "for a while (problem 2)"),
        (stale["telegraphos"] == 1,
         f"the counter protocol read {stale['telegraphos']} right after "
         "writing 1"),
        (tele["sequence"] == [2, 3] and tele["stale_ns"] == 0,
         f"the counter protocol's copy went {tele['sequence']}, stale for "
         f"{tele['stale_ns']} ns"),
    )


SPEC = ExperimentSpec(
    exp_id="S1",
    title="§2.3.2 anomalies of owner-based updates",
    bench="benchmarks/bench_s232_local_apply.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    version=1,
    cost=0.1,
)
