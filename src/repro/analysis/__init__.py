"""Measurement harness and result presentation.

- :mod:`repro.analysis.measure` — latency/throughput probes that run
  operation loops on a cluster and collect
  :class:`~repro.sim.Accumulator` statistics (the simulated analogue
  of the paper's "10000 operations" methodology, §3.2).
- :mod:`repro.analysis.tables` — plain-text table rendering for the
  self-check and EXPERIMENTS.md, including paper-vs-measured rows.
- :mod:`repro.analysis.metrics` — structural reduction of result
  documents to flat numeric metrics (the series the aggregates plot).
- :mod:`repro.analysis.results` — grid-family aggregation: committed
  point results → plot-ready ``results/aggregates/<family>.json``
  (``repro report``).
- :mod:`repro.analysis.monitors` — sweep progress tallies
  (:class:`SweepMonitor`), the per-family digest of a grid sweep.
"""

from repro.analysis.measure import (
    measure_op_stream,
    measure_single_ops,
    run_to_completion,
    us,
)
from repro.analysis.metrics import flatten_metrics, series_for
from repro.analysis.monitors import SweepMonitor
from repro.analysis.report import ClusterReport, render_experiments_md
from repro.analysis.results import (
    AggregateError,
    aggregate_family,
    aggregate_path,
    build_aggregates,
    check_aggregate,
    render_grid_summary,
    write_aggregate,
)
from repro.analysis.tables import MarkdownTable, Table, comparison_table, fmt_cell

__all__ = [
    "AggregateError",
    "ClusterReport",
    "MarkdownTable",
    "SweepMonitor",
    "Table",
    "aggregate_family",
    "aggregate_path",
    "build_aggregates",
    "check_aggregate",
    "comparison_table",
    "flatten_metrics",
    "fmt_cell",
    "render_experiments_md",
    "render_grid_summary",
    "series_for",
    "measure_op_stream",
    "measure_single_ops",
    "run_to_completion",
    "us",
    "write_aggregate",
]

