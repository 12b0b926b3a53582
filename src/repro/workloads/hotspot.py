"""Synchronization hot spot: every node hammers one shared counter
with remote fetch&add (§2.2.3).

The atomics execute at the counter's home HIB, which serializes them —
no update is ever lost, whatever the contention.  Reports per-atomic
latency and the final counter value (which must equal the total issue
count: the correctness half of the experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Accumulator


@dataclass
class HotspotResult:
    makespan_ns: int
    atomic_ns: Accumulator
    final_value: int
    expected_value: int

    @property
    def lost_updates(self) -> int:
        return self.expected_value - self.final_value


def run_hotspot_counter(
    cluster,
    home: int = 0,
    increments_per_node: int = 10,
    think_ns: int = 1000,
) -> HotspotResult:
    """All nodes (including the home) increment one counter."""
    seg = cluster.alloc_segment(home, pages=1, name="hotspot")
    latency = Accumulator("atomic_ns")
    contexts = []
    for station in cluster.nodes:
        proc = cluster.create_process(station.node_id, f"inc{station.node_id}")
        base = proc.map(seg)

        def program(p, base=base):
            for _ in range(increments_per_node):
                start = cluster.now
                yield from p.fetch_and_add(base, 1)
                latency.add(cluster.now - start)
                if think_ns:
                    yield p.think(think_ns)

        contexts.append(cluster.start(proc, program))
    start = cluster.now
    cluster.run(join=contexts)
    expected = increments_per_node * len(cluster.nodes)
    return HotspotResult(
        makespan_ns=cluster.now - start,
        atomic_ns=latency,
        final_value=seg.peek(0),
        expected_value=expected,
    )
