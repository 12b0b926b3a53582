"""Tracing and statistics collection.

A :class:`Tracer` records typed events (category + fields) with their
simulation timestamps; experiments and the memory-model checker read
them back.  An :class:`Accumulator` collects scalar samples and reports
summary statistics — it is the backbone of every latency measurement in
the experiment specs.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List


class TraceEvent:
    """One recorded event: ``(time, category, fields)``."""

    __slots__ = ("time", "category", "fields")

    def __init__(self, time: int, category: str, fields: Dict[str, Any]):
        self.time = time
        self.category = category
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"<{self.time}ns {self.category} {kv}>"

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None


class Tracer:
    """Collects :class:`TraceEvent`\\ s.

    Recording is on by default; ``enabled=False`` skips it all, so a
    run that never reads its trace (the T2 latency measurement, a HIB
    built without a cluster tracer) does not pay for event storage.
    """

    def __init__(self, clock: Callable[[], int], enabled: bool = True,
                 lanes: bool = False):
        self._clock = clock
        self.enabled = enabled
        #: Activity-lane spans (``cpu_op``/``hib_op``/``link_xfer``,
        #: via :meth:`span`) are much denser than protocol events, so
        #: they have their own switch; the Chrome-trace exporter
        #: (:mod:`repro.obs.chrome_trace`) turns them into per-node
        #: timeline lanes.
        self.lanes = lanes
        self.events: List[TraceEvent] = []

    def record(self, category: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(self._clock(), category, fields))

    def span(self, category: str, begin: int, **fields: Any) -> None:
        """Record an activity span that started at ``begin`` and ends
        now.  No-op unless both ``enabled`` and ``lanes`` are set."""
        if not (self.enabled and self.lanes):
            return
        self.events.append(
            TraceEvent(self._clock(), category, {"begin": begin, **fields})
        )

    def select(self, category: str, **match: Any) -> List[TraceEvent]:
        """Events of ``category`` whose fields include all of ``match``."""
        out = []
        for event in self.events:
            if event.category != category:
                continue
            if all(event.fields.get(k) == v for k, v in match.items()):
                out.append(event)
        return out

    def clear(self) -> None:
        self.events.clear()


class Accumulator:
    """Streaming scalar statistics (count/mean/min/max/stddev/percentiles).

    Samples are kept (they are needed for percentiles), so use one
    accumulator per metric, not per packet field.
    """

    def __init__(self, name: str = "metric"):
        self.name = name
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        self.samples.append(float(value))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in accumulator {self.name!r}")
        return self.total / len(self.samples)

    @property
    def minimum(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in accumulator {self.name!r}")
        return min(self.samples)

    @property
    def maximum(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in accumulator {self.name!r}")
        return max(self.samples)

    @property
    def stddev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, ``pct`` in [0, 100]."""
        if not self.samples:
            raise ValueError(f"no samples in accumulator {self.name!r}")
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (pct / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }
