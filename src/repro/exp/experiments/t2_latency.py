"""[T2] §3.2 latency table — remote read 7.2 µs, remote write 0.70 µs.

Reproduces the paper's measurement verbatim: "We started one
application on one workstation that makes remote memory accesses to
the other workstation's HIB ... we measured the latency of remote read
and write operations by performing 10000 operations."

Two DEC 3000/300 stand-ins on one switch; 10000 operations each;
elapsed time divided by count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

PAPER_WRITE_US = 0.70
PAPER_READ_US = 7.2
#: Calibration tolerance: the three §3.2 numbers were used to fit
#: three internal latencies, so they must land close.
TOLERANCE = 0.10


def _two_node_setup(link_prop_ns: Optional[int] = None):
    from repro.exp.scenario import make_cluster

    wiring: Dict[str, Any] = {"n_nodes": 2, "trace": False}
    if link_prop_ns is not None:
        wiring["timing"] = {"link_prop_ns": link_prop_ns}
    cluster = make_cluster(**wiring)
    segment = cluster.alloc_segment(home=1, pages=2, name="bench")
    proc = cluster.create_process(node=0, name="bench")
    base = proc.map(segment)
    return cluster, proc, base


def run(ops: int = 10_000,
        link_prop_ns: Optional[int] = None) -> Dict[str, Any]:
    from repro.analysis import measure_op_stream, us

    cluster, proc, base = _two_node_setup(link_prop_ns)
    write_us = us(measure_op_stream(
        cluster, proc, lambda i: proc.store(base + 4 * (i % 1024), i),
        count=ops,
    ))
    cluster, proc, base = _two_node_setup(link_prop_ns)
    read_us = us(measure_op_stream(
        cluster, proc, lambda i: proc.load(base + 4 * (i % 1024)),
        count=ops, fence_at_end=False,
    ))
    return {"read_us": read_us, "write_us": write_us}


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(["operation", "paper", "measured", "ratio"])
    table.add_row("Remote read", f"{PAPER_READ_US} µs",
                  f"{result['read_us']:.2f} µs",
                  f"{result['read_us'] / PAPER_READ_US:.2f}×")
    table.add_row("Remote write", f"{PAPER_WRITE_US} µs",
                  f"{result['write_us']:.3f} µs",
                  f"{result['write_us'] / PAPER_WRITE_US:.2f}×")
    return (
        f"{table.render()}\n\n"
        "These two numbers (plus C1) were used to fit three internal\n"
        "latencies (TC synchronizer, HIB decode depth, blocked-read\n"
        "completion), so the match is by construction; the "
        "**structural** claim\nasserted is that reads cost "
        f"{result['read_us'] / result['write_us']:.0f}× writes because "
        "only reads block end-to-end."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """The calibration landed, and reads cost roughly an order of
    magnitude more than writes because they block for the full round
    trip."""
    read, write = result["read_us"], result["write_us"]
    return unmet(
        (abs(write - PAPER_WRITE_US) / PAPER_WRITE_US < TOLERANCE,
         f"remote write {write:.3f} µs is not within {TOLERANCE:.0%} of "
         f"the paper's {PAPER_WRITE_US} µs"),
        (abs(read - PAPER_READ_US) / PAPER_READ_US < TOLERANCE,
         f"remote read {read:.2f} µs is not within {TOLERANCE:.0%} of "
         f"the paper's {PAPER_READ_US} µs"),
        (read > 5 * write,
         f"remote read {read:.2f} µs is not 5× the remote write "
         f"{write:.3f} µs"),
    )


SPEC = ExperimentSpec(
    exp_id="T2",
    title="§3.2 latency table",
    bench="benchmarks/bench_table2_latency.py",
    run=run,
    render=render,
    check=check,
    provenance="fit",
    caveat="Two nodes, one switch, 10000 operations, elapsed/count "
           "(the paper's methodology).",
    version=1,
    params={"ops": 10_000},
    cost=3.1,
)
