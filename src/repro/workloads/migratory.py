"""Migratory sharing: lock-protected data visiting every node in turn
(§2.3.6).

Each node, under a spin lock, reads and rewrites a block of shared
words.  This is the pattern where update-based coherence wastes work —
every write is multicast to all replicas although only the *next*
lock holder will read it — and where an invalidate protocol (or no
replication at all) does better.  The §2.3.6 point is exactly that
Telegraphos "leaves such decisions entirely to software": the same
workload runs under either configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.collectives import Mutex


@dataclass
class MigratoryResult:
    makespan_ns: int
    total_updates_sent: int
    final_sum: int
    expected_sum: int


def run_migratory(
    cluster,
    home: int = 0,
    rounds_per_node: int = 3,
    words: int = 8,
    sharing: str = "remote",
) -> MigratoryResult:
    """Every node increments ``words`` counters under a global lock.

    ``sharing="remote"``: data accessed through remote windows (no
    replication — the invalidate-ish configuration for this pattern).
    ``sharing="replica"``: every node holds a replica (update protocol
    multicasts every write to everyone).
    """
    data = cluster.alloc_segment(home, pages=1, name="mig.data")
    sync = cluster.alloc_segment(home, pages=1, name="mig.sync")
    contexts = []
    for station in cluster.nodes:
        proc = cluster.create_process(station.node_id, f"mig{station.node_id}")
        lock_base = proc.map(sync)
        data_base = proc.map(data, mode=sharing if sharing == "replica" else "remote")
        lock = Mutex(proc, lock_base)

        def program(p, lock=lock, data_base=data_base):
            for _ in range(rounds_per_node):
                yield from lock.acquire()
                for w in range(words):
                    value = yield p.load(data_base + 4 * w)
                    yield p.store(data_base + 4 * w, value + 1)
                yield from lock.release()

        contexts.append(cluster.start(proc, program))
    start = cluster.now
    cluster.run(join=contexts)
    updates = sum(
        engine.stats["updates_sent"] for engine in cluster.engines.values()
    )
    expected = rounds_per_node * len(cluster.nodes)
    final_sum = sum(data.peek(4 * w) for w in range(words))
    return MigratoryResult(
        makespan_ns=cluster.now - start,
        total_updates_sent=updates,
        final_sum=final_sum,
        expected_sum=expected * words,
    )
