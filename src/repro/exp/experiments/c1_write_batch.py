"""[C1] §3.2 in-text claim — "a stream of 100 remote write operations
takes less than 50 µs, thus each of the remote write operations takes
less than 0.5 µs ... short batches of write operations may take
advantage of Telegraphos queueing."

Measures the processor-visible cost of a 100-write burst (the HIB
FIFO absorbs it at issue rate) against the sustained 10000-write rate
(bounded by the network transfer rate), and sweeps the batch size to
show where queueing stops helping — the crossover at roughly the
FIFO depth.  Every batch is a prefix of one unfenced write stream, so
one 10000-write run, read at each batch size's checkpoint, measures
them all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.tables import MarkdownTable
from repro.exp.experiments.t2_latency import TOLERANCE
from repro.exp.spec import ExperimentSpec, unmet

PAPER_BATCH_LIMIT_US = 0.5
PAPER_SUSTAINED_US = 0.70

DEFAULT_SIZES = [10, 50, 100, 200, 500, 2000, 10000]


def _batch_costs_us(sizes: List[int]) -> Dict[int, float]:
    """µs per write of each batch size in ``sizes``.  A batch of N is
    N back-to-back stores, no FENCE, on a fresh 2-node cluster, so the
    simulation up to store N is the N-store run: one stream of
    ``max(sizes)`` stores, read at each size's checkpoint, gives every
    size's cost as its own run would, bit for bit."""
    from repro.analysis import us
    from repro.api import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=2, trace=False))
    segment = cluster.alloc_segment(home=1, pages=2, name="bench")
    proc = cluster.create_process(node=0, name="bench")
    base = proc.map(segment)
    checkpoints = set(sizes)
    costs: Dict[int, float] = {}

    def program(p):
        start = cluster.now
        for i in range(max(sizes)):
            yield proc.store(base + 4 * (i % 1024), i)
            if i + 1 in checkpoints:
                costs[i + 1] = us((cluster.now - start) / (i + 1))

    cluster.run(join=[cluster.start(proc, program)])
    return costs


def run(sizes: Optional[List[int]] = None) -> Dict[str, Any]:
    sizes = sizes if sizes is not None else DEFAULT_SIZES
    costs = _batch_costs_us(sizes)
    return {
        "batches": [
            {"size": size, "us_per_write": costs[size]} for size in sizes
        ]
    }


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable(["batch size", "µs/write"])
    for batch in result["batches"]:
        size, cost = batch["size"], batch["us_per_write"]
        if size == 100:
            cell = f"**{cost:.2f}** (paper: < 0.5; 100 writes < 50 µs ✓)"
        elif size == 10000:
            cell = f"**{cost:.2f}** (paper: 0.70, the network transfer rate)"
        else:
            cell = f"{cost:.2f}"
        table.add_row(size, cell)
    return (
        f"{table.render()}\n\n"
        "Shape reproduced: short bursts run at the TurboChannel issue "
        "rate\n(absorbed by the HIB out-FIFO — \"Telegraphos "
        "queueing\"), long streams\nconverge to the wire rate."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """The paper's two anchors, and the batch-size crossover shape."""
    costs = {b["size"]: b["us_per_write"] for b in result["batches"]}
    return unmet(
        (costs[100] < PAPER_BATCH_LIMIT_US,
         f"100 writes take {100 * costs[100]:.1f} µs; the paper: under "
         f"50 µs, i.e. under {PAPER_BATCH_LIMIT_US} µs each"),
        (abs(costs[10000] - PAPER_SUSTAINED_US) / PAPER_SUSTAINED_US
         < TOLERANCE,
         f"sustained write {costs[10000]:.3f} µs is not within "
         f"{TOLERANCE:.0%} of the paper's {PAPER_SUSTAINED_US} µs"),
        # Past startup amortization (tiny batches spread the first
        # write's latency over few ops) the cost rises monotonically
        # from the issue rate toward the network transfer rate.
        (costs[100] <= costs[500] <= costs[2000] <= costs[10000] * 1.01
         and costs[100] < costs[10000],
         "µs/write does not rise from 100 to 10000 writes: "
         + ", ".join(f"{size}: {costs[size]:.3f}"
                     for size in (100, 500, 2000, 10000))),
    )


SPEC = ExperimentSpec(
    exp_id="C1",
    title="§3.2 claim: 100-write batches under 0.5 µs/write",
    bench="benchmarks/bench_claim_write_batch.py",
    run=run,
    render=render,
    check=check,
    provenance="fit",
    caveat="The sustained (10000-write) rate is the third calibration "
           "anchor; the batch-size crossover shape is emergent.",
    version=1,
    params={"sizes": DEFAULT_SIZES},
    cost=1.8,
)
