#!/usr/bin/env python3
"""A parallel reduction across the cluster (the §1 scientific-computing
motivation), via the unified collectives API.

Four workstations each own a slice of a data set in their local shared
memory.  Every node reduces its slice locally, then the partial sums
meet in one ``all_reduce("sum", ...)`` — run twice, once per backend:

- ``host``: the classic software path (remote fetch&add into a hot
  accumulator plus a counter barrier, all serialized at the home HIB);
- ``nic``: NIC-resident collectives — the HIBs combine the partials up
  a k-ary tree and multicast/tree-release the result (O(log N) hops).

Run:  python examples/parallel_reduction.py
"""

from repro.api import Cluster, ClusterConfig


N_NODES = 4
SLICE_WORDS = 64


def reduce_once(backend: str):
    cluster = Cluster(ClusterConfig(n_nodes=N_NODES, collectives=backend))

    # Each node's slice lives in its own shared memory; values are
    # node*3 + i so the expected total is easy to compute.
    slices = []
    expected_total = 0
    for node in range(N_NODES):
        seg = cluster.alloc_segment(home=node, pages=1, name=f"slice{node}")
        for i in range(SLICE_WORDS):
            value = node * 3 + i
            seg.poke(4 * i, value)
            expected_total += value
        slices.append(seg)

    group = cluster.collective_group("reduce")
    contexts = []
    partials = {}
    grands = {}
    for node in range(N_NODES):
        proc = cluster.create_process(node=node, name=f"worker{node}")
        slice_base = proc.map(slices[node])          # local shared data
        collective = group.join(proc)

        def worker(p, slice_base=slice_base, collective=collective,
                   node=node):
            # Local reduction over this node's slice.
            total = 0
            for i in range(SLICE_WORDS):
                total += yield p.load(slice_base + 4 * i)
            partials[node] = total
            # The partials meet in one collective reduction; every
            # member gets the grand total back.
            grand = yield from collective.all_reduce("sum", total)
            assert grand == expected_total, (node, grand)
            grands[node] = grand

        contexts.append(cluster.start(proc, worker))

    cluster.run(join=contexts)
    print(f"[{backend}] {N_NODES} nodes reduced {N_NODES * SLICE_WORDS} "
          f"words in {cluster.now / 1000.0:.0f} us (simulated)")
    for node in range(N_NODES):
        print(f"  node {node}: partial sum {partials[node]}")
    assert set(grands.values()) == {expected_total}
    print(f"  global sum {expected_total} returned to every node")


def main():
    for backend in ("host", "nic"):
        reduce_once(backend)


if __name__ == "__main__":
    main()
