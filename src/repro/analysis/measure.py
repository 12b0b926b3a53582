"""Latency measurement on a live cluster.

The paper's methodology (§3.2): "we measured the latency of remote
read and write operations by performing 10000 operations" — i.e.
elapsed time over a long stream, divided by the count.  Both that
*stream* measurement and a per-operation (isolated, fence-separated)
measurement are provided; the difference between them is itself one of
the paper's observations (streamed writes are cheaper than isolated
ones thanks to HIB queueing).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.machine.ops import Fence
from repro.sim import Accumulator


def us(ns: float) -> float:
    """Nanoseconds → microseconds."""
    return ns / 1000.0


def measure_op_stream(cluster, proc, op_factory: Callable[[int], object],
                      count: int, fence_at_end: bool = True) -> float:
    """Issue ``count`` operations back to back; return the mean cost
    in ns/op (the paper's 10000-op methodology).

    ``op_factory(i)`` returns the i-th operation (an op object, or a
    generator for composite special ops).
    """
    result = {}

    def program(p):
        start = cluster.now
        for i in range(count):
            op = op_factory(i)
            if hasattr(op, "send"):
                yield from op
            else:
                yield op
        if fence_at_end:
            yield Fence()
        result["elapsed"] = cluster.now - start

    ctx = cluster.start(proc, program)
    cluster.run(join=[ctx])
    return result["elapsed"] / count


def measure_single_ops(cluster, proc, op_factory: Callable[[int], object],
                       count: int, fence_between: bool = True) -> Accumulator:
    """Measure each operation in isolation (fence-separated so no
    queueing overlap); returns per-op latency samples in ns."""
    acc = Accumulator("latency_ns")

    def program(p):
        for i in range(count):
            if fence_between:
                yield Fence()
            start = cluster.now
            op = op_factory(i)
            if hasattr(op, "send"):
                yield from op
            else:
                yield op
            acc.add(cluster.now - start)
        if fence_between:
            yield Fence()

    ctx = cluster.start(proc, program)
    cluster.run(join=[ctx])
    return acc


def run_to_completion(cluster, contexts: Iterable,
                      limit_ns: Optional[int] = None) -> int:
    """Run the given program contexts to completion; returns the
    simulated makespan in ns."""
    start = cluster.now
    cluster.run(join=list(contexts), limit_ns=limit_ns)
    return cluster.now - start
