"""[S7] §1/§2.1 motivation — Telegraphos vs the software state of the
art.

"Most traditional environments need the intervention of the operating
system to make even the simplest exchange of information between
workstations" (sockets/PVM), and Virtual Shared Memory pays a page
fault plus whole-page traffic per sharing transition.

One word of information moves from node 0 to node 1 under three
systems built on the same timing parameters: Telegraphos (one
user-level remote write, plus the fence-complete round trip as the
conservative upper bound); sockets (one OS-mediated message: trap +
copy + stack on each side); VSM (one page-fault transition: traps +
whole-page transfer).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet


def _telegraphos_word_ns() -> Dict[str, int]:
    """One remote write, issue latency and fenced-complete latency."""
    from repro.api import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=2, trace=False))
    seg = cluster.alloc_segment(home=1, pages=1, name="w")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    marks = {}

    def program(p):
        start = cluster.now
        yield p.store(base, 1)
        marks["issue"] = cluster.now - start
        yield p.fence()
        marks["complete"] = cluster.now - start

    cluster.run(join=[cluster.start(proc, program)])
    return marks


def _socket_word_ns() -> Dict[str, int]:
    from repro.baselines import SocketNetwork
    from repro.params import DEFAULT_PARAMS
    from repro.sim import Simulator

    sim = Simulator()
    net = SocketNetwork(sim, DEFAULT_PARAMS, 2)
    marks = {}

    def sender():
        start = sim.now
        yield from net.socket(0).send(1, [1])
        marks["send"] = sim.now - start

    def receiver():
        start = sim.now
        yield from net.socket(1).recv()
        marks["delivered"] = sim.now - start

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    return marks


def _vsm_word_ns() -> Dict[str, int]:
    from repro.api import Cluster, ClusterConfig
    from repro.baselines import VsmManager

    cluster = Cluster(ClusterConfig(n_nodes=2, trace=False))
    seg = cluster.alloc_segment(home=0, pages=1, name="vsmseg")
    seg.poke(0, 1)
    vsm = VsmManager(cluster, seg)
    proc = cluster.create_process(node=1, name="reader")
    base = vsm.map_into(proc)
    marks = {}

    def program(p):
        start = cluster.now
        yield p.load(base)  # read fault: page transition
        marks["fault"] = cluster.now - start
        start = cluster.now
        yield p.load(base)  # now local
        marks["local"] = cluster.now - start

    cluster.run(join=[cluster.start(proc, program)])
    return marks


def run() -> Dict[str, Any]:
    return {
        "telegraphos": _telegraphos_word_ns(),
        "sockets": _socket_word_ns(),
        "vsm": _vsm_word_ns(),
    }


def render(result: Dict[str, Any]) -> str:
    from repro.analysis import us

    tele, sock, vsm = (result["telegraphos"], result["sockets"],
                       result["vsm"])
    table = MarkdownTable(["system", "cost"])
    table.add_row("Telegraphos remote write (issue)",
                  f"{us(tele['issue']):.2f} µs")
    table.add_row("Telegraphos remote write (fence-complete)",
                  f"{us(tele['complete']):.1f} µs")
    table.add_row("Sockets/PVM message (OS both sides)",
                  f"{us(sock['delivered']):.0f} µs")
    table.add_row("VSM page-fault transition",
                  f"{us(vsm['fault']):.0f} µs")
    table.add_row("VSM read once resident",
                  f"{us(vsm['local']):.1f} µs")
    socket_ratio = sock["delivered"] / tele["issue"]
    vsm_ratio = vsm["fault"] / sock["delivered"]
    return (
        f"{table.render()}\n\n"
        f"The motivating orders of magnitude: ~{socket_ratio:.0f}× from "
        f"Telegraphos to sockets,\n~{vsm_ratio:.0f}× more to a VSM "
        "fault — and the §2.1 nuance that VSM is fine *after*\n"
        "replication (its cost is the software transition)."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """Each software layer costs an order of magnitude or more, and VSM
    is fine *after* replication: its problem is the transition."""
    tele, sock, vsm = (result["telegraphos"], result["sockets"],
                       result["vsm"])
    return unmet(
        (sock["delivered"] > 10 * tele["issue"],
         f"a socket message ({sock['delivered']} ns) is not 10× a remote "
         f"write ({tele['issue']} ns)"),
        (vsm["fault"] > 5 * sock["delivered"],
         f"a VSM fault ({vsm['fault']} ns) is not 5× a socket message"),
        (vsm["fault"] > 100 * tele["issue"],
         "a VSM fault is not 100× a remote write"),
        (vsm["local"] < tele["complete"],
         f"a resident VSM read ({vsm['local']} ns) is not cheaper than a "
         f"completed remote write ({tele['complete']} ns)"),
    )


SPEC = ExperimentSpec(
    exp_id="S7",
    title="§1/§2.1 motivation: Telegraphos vs software sharing",
    bench="benchmarks/bench_motivation_baselines.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="One word, node 0 → 1; all three systems share the same "
           "timing parameters.",
    version=1,
    cost=0.1,
)
