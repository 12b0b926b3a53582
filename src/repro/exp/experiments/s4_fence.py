"""[S4] §2.3.5 — memory consistency and the FENCE / MEMORY_BARRIER.

The paper's scenario: variable ``flag`` resides on one processor,
``data`` on another; A does write(data); write(flag); B spins on the
flag and then reads data.  "It is possible that the flag variable is
written before the data variable is written, because the communication
path to the processor containing variable flag may be faster" — B then
reads *stale* data.

We reproduce the fast/slow path asymmetry with congestion: two
background nodes flood data's home with writes, so A's data write
crawls through the request plane while A's flag write (to an
uncongested third node) lands immediately.  B polls the flag (its
read replies ride the uncongested response plane) and reads the data
word, which lives in B's own memory.

Without a fence: B observably reads the old value.  With the paper's
fix — "The write(flag) operation is now substituted by the
UNLOCK(flag) operation which also contains a FENCE" — the stale read
is impossible, at the cost of stalling A for the write round trip.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

#: What A writes to ``data`` before raising the flag.
DATA_VALUE = 4242


def _run_scenario(safe: bool) -> Dict[str, Any]:
    """Returns the value B read and A's elapsed publish time."""
    from repro.api import Cluster, ClusterConfig, Signal

    cluster = Cluster(ClusterConfig(n_nodes=5))
    # data homed at B (node 1): B reads it locally, A writes it remotely.
    data = cluster.alloc_segment(home=1, pages=1, name="data")
    # flag homed at node 2: an uncongested path from A.
    flags = cluster.alloc_segment(home=2, pages=1, name="flag")

    # Flooders (nodes 3, 4) congest the request path to B.
    flood_ctxs = []
    for node in (3, 4):
        flooder = cluster.create_process(node=node, name=f"flood{node}")
        fbase = flooder.map(data)

        def flood(p, fbase=fbase):
            for i in range(120):
                yield p.store(fbase + 4096 + 4 * (i % 64), i)

        flood_ctxs.append(cluster.start(flooder, flood))

    producer = cluster.create_process(node=0, name="A")
    data_w = producer.map(data)
    flag_w = producer.map(flags)
    a_flag = Signal(producer, flag_w)
    timings = {}

    def produce(p):
        yield p.think(30_000)  # let the flood establish its backlog
        start = cluster.now
        yield p.store(data_w, DATA_VALUE)
        if safe:
            yield from a_flag.raise_signal()        # FENCE inside
        else:
            yield from a_flag.raise_signal_unsafe()  # the paper's bug
        timings["publish"] = cluster.now - start

    consumer = cluster.create_process(node=1, name="B")
    data_r = consumer.map(data)   # local: B is the home
    flag_r = consumer.map(flags)
    b_flag = Signal(consumer, flag_r)
    got = {}

    def consume(p):
        yield from b_flag.await_value(1)
        got["data"] = yield p.load(data_r)

    ctxs = [
        cluster.start(producer, produce),
        cluster.start(consumer, consume),
    ] + flood_ctxs
    cluster.run(join=ctxs)
    return {"read": got["data"], "publish_ns": timings["publish"]}


def run() -> Dict[str, Any]:
    return {
        "unsafe": _run_scenario(safe=False),
        "safe": _run_scenario(safe=True),
    }


def render(result: Dict[str, Any]) -> str:
    unsafe, safe = result["unsafe"], result["safe"]
    table = MarkdownTable(
        ["variant", "consumer read", "producer publish cost"])
    table.add_row("no fence (the paper's bug)",
                  f"**{unsafe['read']} (stale!)**",
                  f"{unsafe['publish_ns'] / 1000.0:.1f} µs")
    table.add_row("UNLOCK with embedded FENCE",
                  f"{safe['read']} (fresh)",
                  f"{safe['publish_ns'] / 1000.0:.1f} µs")
    return (
        f"{table.render()}\n\n"
        "Reproduces both halves of the section: the anomaly is real "
        "when paths\nhave different speeds, and the fix \"makes "
        "synchronization more\nexpensive, but keeps the cost of remote "
        "write operations low\"."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """Without the fence B reads stale data; with it the read is always
    fresh, and the cost is real: A stalls for the write's completion
    ("makes synchronization more expensive, but keeps the cost of
    remote write operations low")."""
    unsafe, safe = result["unsafe"], result["safe"]
    return unmet(
        (unsafe["read"] == 0,
         f"without the fence B read {unsafe['read']}, not the stale 0"),
        (safe["read"] == DATA_VALUE,
         f"with the fence B read {safe['read']}, not {DATA_VALUE}"),
        (safe["publish_ns"] > 3 * unsafe["publish_ns"],
         f"the fenced publish ({safe['publish_ns']} ns) is not 3× the "
         f"unfenced one ({unsafe['publish_ns']} ns)"),
    )


SPEC = ExperimentSpec(
    exp_id="S4",
    title="§2.3.5 memory consistency / FENCE",
    bench="benchmarks/bench_s235_fence.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="write(data); write(flag) with the data path congested "
           "(request-plane flood) and the flag path fast.",
    version=1,
    cost=0.1,
)
