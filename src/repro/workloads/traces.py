"""Trace-driven simulation (the methodology of the authors' own
companion study [22], "Trace-Driven Simulations of Data-Alignment and
Other Factors affecting Update and Invalidate Based Coherent Memory").

A trace is a list of per-node memory references against one shared
segment; the :class:`TracePlayer` replays it on a live cluster under a
chosen sharing policy (remote window, update replicas, or the VSM
baseline) and reports per-node access latency.  Synthetic trace
generators cover the sharing patterns [22] studies, most importantly
**false sharing** (distinct words of one page written by different
nodes), where page-granular software DSM thrashes and Telegraphos'
word-granular updates do not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.sim import Accumulator


@dataclass(frozen=True)
class TraceRecord:
    """One memory reference."""

    node: int
    is_write: bool
    page: int
    offset: int          # byte offset within the page, word-aligned
    value: int = 0
    think_ns: int = 0    # local compute before this reference

    def __post_init__(self):
        if self.offset % 4:
            raise ValueError("trace offsets must be word-aligned")


@dataclass
class Trace:
    """A full trace plus its provenance."""

    records: List[TraceRecord]
    n_pages: int
    description: str

    def __len__(self) -> int:
        return len(self.records)

    def nodes(self) -> List[int]:
        return sorted({r.node for r in self.records})

    def per_node(self) -> Dict[int, List[TraceRecord]]:
        out: Dict[int, List[TraceRecord]] = {}
        for record in self.records:
            out.setdefault(record.node, []).append(record)
        return out

    def writes(self) -> int:
        return sum(1 for r in self.records if r.is_write)


@dataclass
class TraceResult:
    makespan_ns: int
    latency: Dict[int, Accumulator]
    trace: Trace

    @property
    def mean_latency_ns(self) -> float:
        samples = [v for acc in self.latency.values() for v in acc.samples]
        return sum(samples) / len(samples)


class TracePlayer:
    """Replays a trace on a cluster.

    ``mode`` selects the sharing policy:

    - ``"remote"``   — every reference crosses the network (no copies);
    - ``"replica"``  — every node holds update-protocol replicas
      (the cluster must be built with an update protocol);
    - ``"vsm"``      — the software-DSM baseline (page-fault driven).
    """

    def __init__(self, cluster, segment, mode: str = "remote"):
        if mode not in ("remote", "replica", "vsm"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.cluster = cluster
        self.segment = segment
        self.mode = mode
        self._vsm = None
        if mode == "vsm":
            from repro.baselines import VsmManager

            self._vsm = VsmManager(cluster, segment)

    def run(self, trace: Trace, name_prefix: str = "trace") -> TraceResult:
        if trace.n_pages > self.segment.pages:
            raise ValueError("trace touches more pages than the segment has")
        cluster = self.cluster
        page_bytes = cluster.amap.page_bytes
        latency: Dict[int, Accumulator] = {}
        contexts = []
        for node, records in trace.per_node().items():
            proc = cluster.create_process(node, f"{name_prefix}{node}")
            if self.mode == "vsm":
                base = self._vsm.map_into(proc)
            elif self.mode == "replica":
                base = proc.map(self.segment, mode="replica")
            else:
                base = proc.map(self.segment)
            acc = Accumulator(f"node{node}")
            latency[node] = acc

            def program(p, records=records, base=base, acc=acc):
                for record in records:
                    if record.think_ns:
                        yield p.think(record.think_ns)
                    vaddr = base + record.page * page_bytes + record.offset
                    start = cluster.now
                    if record.is_write:
                        yield p.store(vaddr, record.value)
                    else:
                        yield p.load(vaddr)
                    acc.add(cluster.now - start)

            contexts.append(cluster.start(proc, program))
        start = cluster.now
        cluster.run(join=contexts)
        return TraceResult(
            makespan_ns=cluster.now - start, latency=latency, trace=trace
        )


# ---------------------------------------------------------------------------
# Synthetic trace generators (the [22] sharing patterns)
# ---------------------------------------------------------------------------


def false_sharing_trace(nodes: List[int], refs_per_node: int = 20,
                        words_per_node: int = 4, think_ns: int = 20_000,
                        seed: int = 5) -> Trace:
    """Each node read-modify-writes its OWN words — but all words live
    in the SAME page.  No data is actually shared; only the page is."""
    rng = random.Random(seed)
    records = []
    for i in range(refs_per_node):
        for slot, node in enumerate(nodes):
            word = slot * words_per_node + rng.randrange(words_per_node)
            offset = 4 * word
            records.append(
                TraceRecord(node, False, 0, offset, think_ns=think_ns)
            )
            records.append(
                TraceRecord(node, True, 0, offset, value=i)
            )
    return Trace(records, 1, f"false sharing: {len(nodes)} nodes, one page")


def true_sharing_trace(nodes: List[int], refs_per_node: int = 20,
                       shared_words: int = 4, think_ns: int = 20_000,
                       seed: int = 6) -> Trace:
    """All nodes read and write the SAME words (genuine communication)."""
    rng = random.Random(seed)
    records = []
    for i in range(refs_per_node):
        for node in nodes:
            offset = 4 * rng.randrange(shared_words)
            is_write = rng.random() < 0.5
            records.append(
                TraceRecord(node, is_write, 0, offset, value=i,
                            think_ns=think_ns)
            )
    return Trace(records, 1, f"true sharing: {len(nodes)} nodes")


def private_pages_trace(nodes: List[int], refs_per_node: int = 20,
                        think_ns: int = 20_000, seed: int = 7) -> Trace:
    """Each node works on its own page — the aligned layout [22]
    recommends; no coherence traffic should result."""
    rng = random.Random(seed)
    records = []
    for i in range(refs_per_node):
        for slot, node in enumerate(nodes):
            offset = 4 * rng.randrange(16)
            records.append(
                TraceRecord(node, rng.random() < 0.5, slot, offset,
                            value=i, think_ns=think_ns)
            )
    return Trace(records, len(nodes),
                 f"private pages: {len(nodes)} nodes, page-aligned data")
