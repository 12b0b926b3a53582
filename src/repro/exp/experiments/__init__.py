"""The declarative experiment specs — one module per paper claim.

Each module holds a pure ``run(**params)`` returning a
JSON-serializable result, a ``render(result)`` producing the
EXPERIMENTS.md section body, a ``check(result)`` returning one message
per way the result breaks the paper's claim (``[]`` when it holds),
and a module-level ``SPEC`` tying them together.  The sweep checks
every fresh result and the test suite every committed one.

``SPECS`` lists every spec in EXPERIMENTS.md document order.
"""

from __future__ import annotations

from typing import List

from repro.exp.experiments import (
    a1_prototypes,
    a2_topology,
    a3_false_sharing,
    c1_write_batch,
    f2_inconsistency,
    s1_local_apply,
    s2_counter_protocol,
    s3_counter_cache,
    s4_fence,
    s5_galactica,
    s6_replication,
    s7_motivation,
    s8_update_vs_invalidate,
    t1_gatecount,
    t2_latency,
    x1_barrier_scaling,
    x2_fetch_add_combining,
)
from repro.exp.spec import ExperimentSpec

#: EXPERIMENTS.md document order.
SPECS: List[ExperimentSpec] = [
    t1_gatecount.SPEC,
    t2_latency.SPEC,
    c1_write_batch.SPEC,
    f2_inconsistency.SPEC,
    s1_local_apply.SPEC,
    s2_counter_protocol.SPEC,
    s3_counter_cache.SPEC,
    s4_fence.SPEC,
    s5_galactica.SPEC,
    s6_replication.SPEC,
    s7_motivation.SPEC,
    s8_update_vs_invalidate.SPEC,
    a3_false_sharing.SPEC,
    a1_prototypes.SPEC,
    a2_topology.SPEC,
    x1_barrier_scaling.SPEC,
    x2_fetch_add_combining.SPEC,
]

__all__ = ["SPECS"]
