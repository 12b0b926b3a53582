"""Determinism: identical runs produce identical simulated histories.

The simulator is a deterministic event system (FIFO tie-breaking at
equal timestamps, seeded workload generators), so any experiment can
be reproduced bit-for-bit — the property every result in
EXPERIMENTS.md rests on.
"""

from repro.api import Cluster, ClusterConfig
from repro.workloads import true_sharing_trace, TracePlayer


def mixed_run():
    cluster = Cluster(ClusterConfig(n_nodes=4, protocol="telegraphos",
                                    topology="chain"))
    seg = cluster.alloc_segment(home=0, pages=1, name="mix")
    ctxs = []
    for node in (1, 2, 3):
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(seg, mode="replica")

        def program(p, base=base, node=node):
            for i in range(6):
                yield p.store(base + 4 * (i % 3), node * 100 + i)
                yield p.think(1500)
                yield from p.fetch_and_add(base + 0x100, 1)

        ctxs.append(cluster.start(proc, program))
    cluster.run(join=ctxs)
    trace_fingerprint = [
        (e.time, e.category, tuple(sorted(e.fields.items())))
        for e in cluster.tracer.events
    ]
    memory_fingerprint = {
        n.node_id: tuple(n.backend.memory.written_words())
        for n in cluster.nodes
    }
    return cluster.now, trace_fingerprint, memory_fingerprint


def test_identical_runs_produce_identical_histories():
    first = mixed_run()
    second = mixed_run()
    assert first[0] == second[0], "simulated end times differ"
    assert first[1] == second[1], "event traces differ"
    assert first[2] == second[2], "final memories differ"


def test_trace_replay_is_deterministic():
    def once():
        cluster = Cluster(ClusterConfig(n_nodes=3, protocol="telegraphos"))
        seg = cluster.alloc_segment(home=0, pages=1, name="t")
        player = TracePlayer(cluster, seg, mode="replica")
        result = player.run(true_sharing_trace([1, 2], refs_per_node=8))
        return result.makespan_ns, {
            n: tuple(acc.samples) for n, acc in result.latency.items()
        }

    assert once() == once()


def faulty_run(fault_seed):
    """A lossy-fabric run: the full fingerprint — trace (including the
    injector's fault events and the transport's retry events), final
    memories, and the metrics snapshot — must be a pure function of
    the fault seed."""
    import json

    cluster = Cluster(ClusterConfig(
        n_nodes=3, protocol="telegraphos", topology="chain",
        faults={"seed": fault_seed, "drop_rate": 0.03,
                "corrupt_rate": 0.02, "duplicate_rate": 0.02,
                "stall_rate": 0.03},
    ))
    seg = cluster.alloc_segment(home=0, pages=1, name="f")
    ctxs = []
    for node in (1, 2):
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(seg, mode="replica")

        def program(p, base=base, node=node):
            for i in range(6):
                yield p.store(base + 4 * (i % 3), node * 100 + i)
                yield p.think(1100 * node)
            yield p.fence()

        ctxs.append(cluster.start(proc, program))
    cluster.run(join=ctxs)
    trace_fingerprint = [
        (e.time, e.category, tuple(sorted(e.fields.items())))
        for e in cluster.tracer.events
    ]
    memory_fingerprint = {
        n.node_id: tuple(n.backend.memory.written_words())
        for n in cluster.nodes
    }
    metrics_fingerprint = json.dumps(cluster.stats()["metrics"],
                                     sort_keys=True)
    return cluster.now, trace_fingerprint, memory_fingerprint, \
        metrics_fingerprint


def test_same_fault_seed_same_history():
    first = faulty_run(7)
    second = faulty_run(7)
    assert first[0] == second[0], "simulated end times differ"
    assert first[1] == second[1], "event traces differ"
    assert first[2] == second[2], "final memories differ"
    assert first[3] == second[3], "metrics snapshots differ"


def test_different_fault_seeds_give_different_histories():
    assert faulty_run(7)[1] != faulty_run(8)[1], (
        "3%+ fault rates over hundreds of traversals must produce "
        "seed-dependent fault schedules")
