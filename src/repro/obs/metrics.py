"""The cluster-wide metrics registry.

§2.2.6 positions the HIB's page access counters as input for
"profiling, performance monitoring and visualization tools"; real NICs
in the same lineage (APEnet+, arXiv:1102.3796) ship a register file of
hardware performance counters for exactly this reason.  This module is
the software analogue for the whole simulated cluster: one
:class:`MetricsRegistry` per :class:`~repro.api.cluster.Cluster`, with
every series addressable by a hierarchical name
(``"hib.remote_writes"``, ``"net.link.packets"``) plus identifying
tags (``node=0``, ``link="host0->sw.req"``).

The registry owns no counts.  Each layer keeps its own plain counters
(link packet counts, bus busy time, the injector's fault tallies, the
transport's per-peer logs), and :meth:`MetricsRegistry.gauge_fn`
registers a callback that reads one of them at
:meth:`MetricsRegistry.snapshot` time, so steady-state simulation pays
nothing for it.  The one series the registry feeds is a
:meth:`~MetricsRegistry.distribution`: an
:class:`~repro.sim.Accumulator` the caller adds samples to (latencies,
backoffs), summarised at snapshot time.

**Pay-for-use**: a disabled registry registers nothing, hands out no
distribution (``None``), and snapshots to an empty dict.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim import Accumulator


def _tag_label(tags: Dict[str, Any]) -> str:
    """Deterministic rendering of a tag set: ``"link=a,node=0"``."""
    return ",".join(f"{k}={v}" for k, v in sorted(tags.items()))


def _summary(acc: Accumulator,
             buckets: Optional[Tuple[float, ...]]) -> Dict[str, Any]:
    """A distribution's snapshot: ``{"count": 0}`` when empty, else the
    :meth:`~repro.sim.Accumulator.summary` plus, with ``buckets``, a
    cumulative breakdown (``{"<=5000": 3, ..., "inf": 7}``)."""
    if not acc.count:
        return {"count": 0}
    out: Dict[str, Any] = acc.summary()
    if buckets is not None:
        samples = acc.samples
        out["buckets"] = {
            f"<={bound:g}": sum(1 for s in samples if s <= bound)
            for bound in buckets
        }
        out["buckets"]["inf"] = len(samples)
    return out


class MetricsRegistry:
    """Named, tagged series for one cluster, read at snapshot time."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Every series in registration order: (name, tags, reader).
        self._series: List[Tuple[str, Dict[str, Any], Callable[[], Any]]] = []

    def gauge_fn(self, name: str, fn: Callable[[], Any], **tags: Any) -> None:
        """Register a callback gauge: ``fn()`` is evaluated only at
        snapshot time (zero steady-state cost)."""
        if self.enabled:
            self._series.append((name, tags, fn))

    def distribution(self, name: str,
                     buckets: Optional[Sequence[float]] = None,
                     **tags: Any) -> Optional[Accumulator]:
        """Register a distribution and return the
        :class:`~repro.sim.Accumulator` to feed it, or ``None`` when
        the registry is disabled.  ``buckets`` (upper bounds) adds a
        cumulative bucket breakdown where the *shape* is the point,
        e.g. the retransmission backoff of :mod:`repro.hib.reliable`."""
        if not self.enabled:
            return None
        acc = Accumulator(name)
        bounds = tuple(sorted(buckets)) if buckets else None
        self._series.append((name, tags, lambda: _summary(acc, bounds)))
        return acc

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``{metric name: {tag label: value}}``, names sorted, each
        name's tag sets in registration order.

        Callback values are whatever the callback returns; a
        distribution snapshots to a summary dict (see :func:`_summary`).
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name, tags, fn in self._series:
            out.setdefault(name, {})[_tag_label(tags)] = fn()
        return {name: out[name] for name in sorted(out)}

    def __len__(self) -> int:
        return len(self._series)
