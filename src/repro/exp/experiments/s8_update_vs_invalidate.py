"""[S8] §2.3.6 — update vs invalidate coherent memory.

"Although the multicast mechanism provided by Telegraphos can decrease
the read latency of applications that use a producer-consumer style of
communication, it may not be appropriate for applications that have
different communication patterns ...  Telegraphos leaves such
decisions entirely to software."

Two canonical patterns, each under the two policies software can pick:
producer/consumer and migratory sharing, with consumers replicated +
eagerly updated ("update") vs reading through the remote window
("no-replication", the degenerate invalidate choice).  Expected
crossover: update wins producer/consumer; no-replication wins
migratory.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet

MODES = ("replica", "remote")


def _protocol(mode: str) -> str:
    return "telegraphos" if mode == "replica" else "none"


def _pc_scenario(mode: str):
    from repro.exp.scenario import ScenarioSpec

    return ScenarioSpec(
        name=f"s8.producer_consumer.{mode}",
        workload="producer_consumer",
        cluster={"n_nodes": 3, "protocol": _protocol(mode)},
        params={"producer_node": 0, "consumer_nodes": [1, 2],
                "batches": 4, "words_per_batch": 16, "sharing": mode},
        collect=("coherence",),
        description="§2.3.6 producer/consumer under one sharing policy",
    )


def _mig_scenario(mode: str):
    from repro.exp.scenario import ScenarioSpec

    return ScenarioSpec(
        name=f"s8.migratory.{mode}",
        workload="migratory",
        cluster={"n_nodes": 3, "protocol": _protocol(mode)},
        params={"rounds_per_node": 3, "words": 8, "sharing": mode},
        description="§2.3.6 migratory sharing under one sharing policy",
    )


def _run_pc(mode: str) -> Dict[str, Any]:
    from repro.exp.scenario import run_scenario

    out = run_scenario(_pc_scenario(mode))
    return {
        "read_us": out["result"]["consumer_read_ns"]["mean"] / 1000.0,
        "makespan_us": out["result"]["makespan_ns"] / 1000.0,
        "updates": out["collected"]["coherence"]["updates_sent"],
    }


def _run_mig(mode: str) -> Dict[str, Any]:
    from repro.exp.scenario import run_scenario

    out = run_scenario(_mig_scenario(mode))
    result = out["result"]
    assert result["final_sum"] == result["expected_sum"], "lost updates!"
    return {
        "makespan_us": result["makespan_ns"] / 1000.0,
        "updates": result["total_updates_sent"],
    }


def run() -> Dict[str, Any]:
    return {
        "producer_consumer": {mode: _run_pc(mode) for mode in MODES},
        "migratory": {mode: _run_mig(mode) for mode in MODES},
    }


def render(result: Dict[str, Any]) -> str:
    pc = result["producer_consumer"]
    mig = result["migratory"]
    table = MarkdownTable(
        ["workload", "policy", "consumer read", "update packets"])
    table.add_row("producer/consumer", "update replicas",
                  f"**{pc['replica']['read_us']:.1f} µs**",
                  pc["replica"]["updates"])
    table.add_row("producer/consumer", "no replication",
                  f"{pc['remote']['read_us']:.1f} µs",
                  pc["remote"]["updates"])
    table.add_row("migratory", "update replicas", "–",
                  f"**{mig['replica']['updates']}** (wasted multicast)")
    table.add_row("migratory", "no replication", "–",
                  mig["remote"]["updates"])
    ratio = pc["remote"]["read_us"] / pc["replica"]["read_us"]
    return (
        f"{table.render()}\n\n"
        "The crossover the section argues for: update multicast wins\n"
        f"producer/consumer ({ratio:.1f}× cheaper consumer reads) and "
        "merely generates\ntraffic for migratory sharing — which is "
        "why \"Telegraphos leaves such\ndecisions entirely to "
        "software\"."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """The crossover: update replication wins producer/consumer, and on
    migratory sharing it only generates traffic nobody reads."""
    pc, mig = result["producer_consumer"], result["migratory"]
    return unmet(
        # Local reads vs 7 µs remote reads.
        (pc["replica"]["read_us"] < pc["remote"]["read_us"] / 2,
         f"replicated consumers read in {pc['replica']['read_us']:.2f} µs, "
         f"not half of {pc['remote']['read_us']:.2f} µs"),
        (mig["replica"]["updates"] > 3 * mig["remote"]["updates"],
         f"migratory replicas sent {mig['replica']['updates']} updates, "
         f"not 3× {mig['remote']['updates']}"),
        (mig["remote"]["makespan_us"] <= mig["replica"]["makespan_us"] * 1.10,
         "update replication paid off on migratory sharing"),
    )


SPEC = ExperimentSpec(
    exp_id="S8",
    title="§2.3.6 update vs invalidate",
    bench="benchmarks/bench_s236_update_vs_invalidate.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    version=1,
    cost=0.2,
)
