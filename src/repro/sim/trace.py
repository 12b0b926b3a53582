"""Tracing and statistics collection.

A :class:`Tracer` records typed events (category + fields) with their
simulation timestamps; experiments and the memory-model checker read
them back.  An :class:`Accumulator` collects scalar samples and reports
summary statistics — it is the backbone of every latency measurement in
the experiment specs.  A :class:`Tally` reports the same statistics for
small non-negative integer samples from one count per value.
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
    accumulator per metric, not per packet field.  For samples that are
    small non-negative integers (queue depths), a :class:`Tally` reports
    the same statistics in constant memory.
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


class Tally:
    """Samples drawn from ``0 .. size - 1``, kept as one count per value.

    Memory stays constant however many samples arrive.  ``count``,
    ``total`` and ``maximum`` read the counts; ``mean`` and
    :meth:`summary` are the :class:`Accumulator`'s, over the expanded
    samples, so both report the same values with the same types.  A
    hot path may increment ``counts[value]`` in place, skipping
    :meth:`add`'s range check.
    """

    __slots__ = ("name", "counts")

    def __init__(self, size: int, name: str = "tally"):
        self.name = name
        #: ``counts[v]``: how many samples equalled ``v``.
        self.counts = [0] * size

    def add(self, value: int) -> None:
        if not 0 <= value < len(self.counts):
            raise ValueError(
                f"tally {self.name!r} takes 0..{len(self.counts) - 1}, "
                f"got {value!r}")
        self.counts[value] += 1

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def total(self) -> float:
        # An Accumulator sums float samples; an empty one totals int 0.
        return sum(float(value * n) for value, n in enumerate(self.counts)
                   if n)

    @property
    def maximum(self) -> float:
        for value in range(len(self.counts) - 1, -1, -1):
            if self.counts[value]:
                return float(value)
        raise ValueError(f"no samples in tally {self.name!r}")

    @property
    def mean(self) -> float:
        return self._expanded().mean

    def summary(self) -> Dict[str, float]:
        return self._expanded().summary()

    def _expanded(self) -> Accumulator:
        """An :class:`Accumulator` holding the samples, in value order."""
        accumulator = Accumulator(self.name)
        for value, n in enumerate(self.counts):
            accumulator.samples += [float(value)] * n
        return accumulator
