"""Engine construction by protocol name (used by the cluster
builder)."""

from __future__ import annotations

from typing import Optional

from repro.coherence.base import CoherenceEngine
from repro.coherence.counter_protocol import CounterProtocolEngine
from repro.coherence.directory import SharingDirectory
from repro.coherence.eager import EagerUpdateEngine
from repro.coherence.galactica import GalacticaEngine
from repro.coherence.owner import OwnerUpdateEngine

#: Protocol names accepted by :func:`make_engine`:
#:
#: - ``"none"``        — no propagation (shared pages behave private).
#: - ``"eager"``       — Figure 2 baseline: unordered eager multicast.
#: - ``"owner-stale"`` — owner-serialized, no local apply (§2.3.2 #1).
#: - ``"owner-local"`` — owner-serialized + local apply (§2.3.2 #2).
#: - ``"telegraphos"`` — the §2.3.3 counter protocol (the paper).
#: - ``"galactica"``   — the §2.4 ring baseline.
PROTOCOLS = (
    "none",
    "eager",
    "owner-stale",
    "owner-local",
    "telegraphos",
    "galactica",
)


def make_engine(
    protocol: str,
    node_id: int,
    directory: SharingDirectory,
    tracer=None,
    cache_entries: Optional[int] = 32,
    rmw_ns: int = 160,
) -> CoherenceEngine:
    """Build the per-node engine for ``protocol``."""
    if protocol == "none":
        return CoherenceEngine(node_id, directory, tracer)
    if protocol == "eager":
        return EagerUpdateEngine(node_id, directory, tracer)
    if protocol == "owner-stale":
        return OwnerUpdateEngine(node_id, directory, tracer, apply_local=False)
    if protocol == "owner-local":
        return OwnerUpdateEngine(node_id, directory, tracer, apply_local=True)
    if protocol == "telegraphos":
        return CounterProtocolEngine(
            node_id, directory, tracer,
            cache_entries=cache_entries, rmw_ns=rmw_ns,
        )
    if protocol == "galactica":
        return GalacticaEngine(node_id, directory, tracer)
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
