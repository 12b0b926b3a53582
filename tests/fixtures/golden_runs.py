"""Builders for the pinned golden-trace runs.

Two deterministic scenarios whose Chrome-trace exports are committed
byte-for-byte under ``tests/fixtures/``:

- **retry** — the golden single-drop run from
  ``tests/faults/test_golden_retry.py``: one forced drop, one nack,
  one go-back-N retransmission.
- **coherence** — a small telegraphos true-sharing run with lane
  spans on, exercising the coherence engine, UPDATE fan-out, and the
  cpu/hib/link duration lanes of the exporter.
- **collectives** — an X1-style 8-node NIC-barrier run (combining
  tree, released back down the tree: the default ``release="tree"``),
  pinned under the calendar-queue kernel; its release fan-outs produce
  the densest same-timestamp batches.

The retry/coherence fixtures were produced by the pre-refactor kernel
(commit 531526b), so ``test_golden_traces.py`` proves the fast-path
and calendar-queue rewrites preserved the event schedule
*bit-for-bit*.  Every builder takes a ``kernel=`` name from
``tests/kernels.py`` so ``tests/sim/test_kernel_equivalence.py`` can
replay the same run under the reference kernel.  Regenerate (only after an intentional semantic
change) with::

    PYTHONPATH=src python -m tests.fixtures.golden_runs --regen
"""

from __future__ import annotations

import json
import os

from repro.api import Cluster, ClusterConfig
from repro.obs import chrome_trace
from tests.kernels import build_cluster

FIXTURE_DIR = os.path.dirname(__file__)

RETRY_FIXTURE = os.path.join(FIXTURE_DIR, "golden_retry_trace.json")
COHERENCE_FIXTURE = os.path.join(FIXTURE_DIR, "golden_coherence_trace.json")
COLLECTIVES_FIXTURE = os.path.join(
    FIXTURE_DIR, "golden_collectives_trace.json")

#: Same forced drop as tests/faults/test_golden_retry.py.
GOLDEN_FAULTS = {"seed": 1, "drop_exact": [["host0->sw.req", 2]]}


def retry_run(kernel: str = "bucket") -> Cluster:
    """The golden single-drop retry scenario (8 stores + fence)."""
    cluster = build_cluster(ClusterConfig(n_nodes=2, protocol="none",
                                          faults=GOLDEN_FAULTS), kernel)
    seg = cluster.alloc_segment(home=1, pages=1, name="g")
    proc = cluster.create_process(node=0, name="g")
    base = proc.map(seg, mode="remote")

    def program(p):
        for i in range(8):
            yield p.store(base + 4 * i, 100 + i)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    cluster.assert_quiescent()
    return cluster


def coherence_run(kernel: str = "bucket") -> Cluster:
    """A telegraphos true-sharing run with lane spans enabled."""
    cluster = build_cluster(ClusterConfig(n_nodes=3, protocol="telegraphos",
                                          topology="chain", trace_lanes=True),
                            kernel)
    seg = cluster.alloc_segment(home=0, pages=1, name="coh")
    ctxs = []
    for node in (1, 2):
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(seg, mode="replica")

        def program(p, base=base, node=node):
            for i in range(4):
                yield p.store(base + 4 * (i % 2), node * 100 + i)
                yield p.think(1500)
                yield from p.fetch_and_add(base + 0x80, 1)
            yield p.fence()

        ctxs.append(cluster.start(proc, program))
    cluster.run(join=ctxs)
    return cluster


def collectives_run(kernel: str = "bucket") -> Cluster:
    """An X1-style 8-node NIC-collectives run: staggered arrivals into
    three barrier rounds over the HIB combining tree, each released
    back down the tree (the default ``release="tree"``; the
    calendar-queue kernel's densest same-timestamp batches come from
    exactly this release fan-out)."""
    n = 8
    cluster = build_cluster(ClusterConfig(n_nodes=n, collectives="nic"),
                            kernel)
    group = cluster.collective_group("bar")
    contexts = []
    for node in range(n):
        proc = cluster.create_process(node=node, name=f"b{node}")
        collective = group.join(proc)

        def program(p, c=collective, node=node):
            for _ in range(3):
                yield p.think(1_000 * (node + 1))
                yield from c.barrier()

        contexts.append(proc.start(program))
    cluster.run(join=contexts)
    return cluster


def canonical_trace_bytes(cluster: Cluster) -> bytes:
    """Byte-exact canonical form of the Chrome-trace export."""
    doc = chrome_trace(cluster)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return text.encode("utf-8")


GOLDEN_RUNS = {
    RETRY_FIXTURE: retry_run,
    COHERENCE_FIXTURE: coherence_run,
    COLLECTIVES_FIXTURE: collectives_run,
}


def main() -> None:  # pragma: no cover - fixture maintenance
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the committed fixtures in place")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to rewrite the pinned fixtures")
    for path, build in GOLDEN_RUNS.items():
        with open(path, "wb") as fh:
            fh.write(canonical_trace_bytes(build()))
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
