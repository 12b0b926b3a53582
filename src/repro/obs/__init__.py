"""Cluster-wide observability: metrics, kernel profiling, trace export.

The paper motivates hardware page-access counters as the substrate for
"profiling, performance monitoring and visualization tools" (§2.2.6);
this package is that tooling layer for the whole reproduction:

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named,
  tagged series, one per cluster, that reads the counters every layer
  of the stack keeps itself (fabric links and switches, HIBs and their
  reliable transports, the fault injector, buses, coherence engines,
  CPUs) at snapshot time; distributions (wait times, backoffs) are the
  only series it is fed.  A disabled registry registers nothing and
  hands out no distribution, so observability is strictly pay-for-use.
- :mod:`repro.obs.hooks` — :class:`KernelHooks` callbacks on the
  simulation kernel and the :class:`EventLoopProfiler` built on them
  (events/sec, queue depth, hottest callbacks).
- :mod:`repro.obs.chrome_trace` — Chrome trace-event JSON export
  (``chrome://tracing`` / Perfetto) rendering per-node CPU/HIB/link
  activity lanes from :class:`~repro.sim.Tracer` events.

Entry points: ``Cluster(...).stats()`` for a snapshot,
``python -m repro stats`` / ``python -m repro trace`` on the CLI.
"""

from repro.obs.chrome_trace import chrome_trace, export_chrome_trace
from repro.obs.hooks import EventLoopProfiler, KernelHooks
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EventLoopProfiler",
    "KernelHooks",
    "MetricsRegistry",
    "chrome_trace",
    "export_chrome_trace",
]
