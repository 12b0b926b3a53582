"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to live traffic.

One injector per cluster.  Links and switch input ports call
:meth:`FaultInjector.action_for` once per packet traversal; the HIB
servant loops call :meth:`hang_remaining`; the reliable transport
reports unrecoverable peers through :meth:`record_failure`.  Every
fault is counted once, in :attr:`FaultInjector.counts` (unrecoverable
peers in :attr:`FaultInjector.node_failures`), which the cluster's
metrics registry reads as ``faults.*``, and traced (``fault_drop``,
``fault_corrupt``, ``fault_duplicate``, ``fault_stall`` events), so a
Chrome-trace export shows injected faults inline with the retries they
provoke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.plan import FaultConfig, FaultDecision, FaultPlan
from repro.network.packet import Packet


class NodeUnreachableError(RuntimeError):
    """Raised into a blocked reader/atomic whose home node was declared
    unreachable by the retry protocol (retry limit exhausted)."""

    def __init__(self, node: int, peer: int, op_id: Optional[int] = None):
        super().__init__(
            f"node {node}: peer {peer} unreachable (retry limit exhausted)"
            + (f" while op {op_id} was pending" if op_id is not None else "")
        )
        self.node = node
        self.peer = peer
        self.op_id = op_id


@dataclass
class NodeFailure:
    """Structured report of one declared-unreachable peer."""

    #: Node whose transport gave up.
    reporter: int
    #: The peer that stopped acknowledging.
    peer: int
    at_ns: int
    retries: int
    #: Packets abandoned in the retransmit window, by kind name.
    lost_packets: Dict[str, int] = field(default_factory=dict)
    #: Abandoned operations whose completion bookkeeping could not be
    #: unwound (e.g. coherence-engine traffic with engine-held
    #: counters); a non-zero value means FENCE on the reporter may
    #: never resolve.
    unrecovered: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reporter": self.reporter,
            "peer": self.peer,
            "at_ns": self.at_ns,
            "retries": self.retries,
            "lost_packets": dict(self.lost_packets),
            "unrecovered": self.unrecovered,
        }


class FaultInjector:
    """Applies the plan to packets and tracks everything it did."""

    def __init__(self, sim, config: FaultConfig, tracer=None):
        self.sim = sim
        self.config = config
        self.plan = FaultPlan(config)
        self.tracer = tracer
        self.node_failures: List[NodeFailure] = []
        self.counts: Dict[str, int] = {
            "drop": 0, "corrupt": 0, "duplicate": 0, "stall": 0,
            "forced_drop": 0,
        }

    # -- packet-level faults (called by links and switch ports) ---------

    def action_for(self, site: str, packet: Packet) -> FaultDecision:
        decision = self.plan.decide(site)
        if decision.kind != "deliver":
            self.counts[decision.kind] += 1
            if decision.forced:
                self.counts["forced_drop"] += 1
            if self.tracer is not None:
                # No packet.pid here: pids come from a process-global
                # counter, and fault traces must compare equal across
                # runs in one process (the determinism regression).
                self.tracer.record(
                    f"fault_{decision.kind}", site=site,
                    kind=packet.kind.name, src=packet.src, dst=packet.dst,
                    seq=packet.seq,
                )
        return decision

    # -- HIB hangs ------------------------------------------------------

    def hang_remaining(self, node: int, now: int) -> int:
        return self.plan.hang_remaining(node, now)

    # -- failure reports ------------------------------------------------

    def record_failure(self, failure: NodeFailure) -> None:
        self.node_failures.append(failure)
        if self.tracer is not None:
            self.tracer.record(
                "node_failure", node=failure.reporter, peer=failure.peer,
                retries=failure.retries, unrecovered=failure.unrecovered,
            )

    # -- observability --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "injected": dict(self.counts),
            "node_failures": [f.to_dict() for f in self.node_failures],
        }
