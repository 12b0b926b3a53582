"""Grid-family aggregation: ``results/<family>/*.json`` → plot-ready
aggregates (``repro report``).

One aggregate per grid family, written to
``results/aggregates/<family>.json`` through the same canonical
serializer as every other results document, so the aggregates inherit
the byte-identity contract: a pure function of the committed point
documents and the grid declarations, regenerable (and CI drift-gated)
from a fresh checkout.

The aggregate layout is deliberately plot-ready — axes, per-point
assignments, and column-major numeric series — so a notebook or
gnuplot script consumes it without re-deriving structure::

    {"schema": 1, "family": "T2", "title": ..., "bench": ...,
     "axes": {"link_prop_ns": [50, 200, 800, 3200]},
     "base_params": {"ops": 2000},
     "summary_metrics": ["read_us", "write_us"],
     "points": [{"experiment": "T2/link_prop_ns=50",
                 "assignment": {"link_prop_ns": 50},
                 "cache_key": ..., "metrics": {...}}, ...],
     "series": {"read_us": [...], "write_us": [...]}}
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import flatten_metrics, series_for
from repro.analysis.tables import MarkdownTable

#: Version of the aggregate envelope; participates in the drift gate
#: (a layout change regenerates every aggregate).
AGGREGATE_SCHEMA_VERSION = 1

#: Subdirectory of the results dir the aggregates live in.
AGGREGATES_DIR = "aggregates"


class AggregateError(RuntimeError):
    """An aggregate cannot be built or is stale on disk."""


def aggregate_path(results_dir: str, family: str) -> str:
    return os.path.join(results_dir, AGGREGATES_DIR, f"{family}.json")


def aggregate_family(grid, results_dir: str = "results") -> Dict[str, Any]:
    """Build one family's plot-ready aggregate from its committed
    point documents.

    Every point must be present and fresh (cache key matching the
    spec); a missing or stale point raises :class:`AggregateError`
    naming it — the aggregate must never silently describe a partial
    or outdated grid.
    """
    from repro.analysis.report import ResultsError, load_result_document
    from repro.exp.grid import axis_assignment

    points: List[Dict[str, Any]] = []
    flat: List[Dict[str, float]] = []
    for spec in grid.expand():
        try:
            document = load_result_document(results_dir, spec)
        except ResultsError as exc:
            raise AggregateError(str(exc)) from None
        metrics = flatten_metrics(document["result"])
        points.append({
            "experiment": spec.exp_id,
            "assignment": axis_assignment(spec, grid),
            "cache_key": document["cache_key"],
            "metrics": metrics,
        })
        flat.append(metrics)
    return {
        "schema": AGGREGATE_SCHEMA_VERSION,
        "family": grid.family,
        "title": grid.title,
        "bench": grid.bench,
        "axes": {axis: list(values) for axis, values in grid.axes.items()},
        "base_params": dict(grid.base),
        "summary_metrics": list(grid.summary_metrics),
        "points": points,
        "series": series_for(flat),
    }


def write_aggregate(aggregate: Dict[str, Any],
                    results_dir: str = "results") -> str:
    """Atomically write one aggregate's canonical bytes; returns the
    path."""
    from repro.exp.spec import canonical_json_bytes

    path = aggregate_path(results_dir, aggregate["family"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(canonical_json_bytes(aggregate))
    os.replace(tmp_path, path)
    return path


def check_aggregate(aggregate: Dict[str, Any],
                    results_dir: str = "results") -> Optional[str]:
    """Drift check: ``None`` when the on-disk aggregate is
    byte-identical to the recomputed one, else a one-line reason."""
    from repro.exp.spec import canonical_json_bytes

    path = aggregate_path(results_dir, aggregate["family"])
    try:
        with open(path, "rb") as handle:
            on_disk = handle.read()
    except OSError:
        return f"{path}: missing; run `python -m repro report`"
    if on_disk != canonical_json_bytes(aggregate):
        return (f"{path}: stale relative to results/ and the grid "
                f"declarations; run `python -m repro report`")
    return None


def _format_metric(value: Any) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def summary_table(aggregate: Dict[str, Any]) -> MarkdownTable:
    """One family as a markdown table: axis columns + the declared
    summary metrics, one row per point in expansion order."""
    axes = list(aggregate["axes"])
    metrics = list(aggregate["summary_metrics"])
    if not metrics:
        metrics = sorted(aggregate["series"])[:6]
    table = MarkdownTable(axes + metrics)
    for point in aggregate["points"]:
        row: List[Any] = [
            _format_metric(point["assignment"][axis]) for axis in axes
        ]
        row.extend(
            _format_metric(point["metrics"].get(metric))
            for metric in metrics
        )
        table.add_row(*row)
    return table


def render_grid_summary(aggregate: Dict[str, Any], caveat: str = "",
                        preamble: str = "") -> str:
    """The EXPERIMENTS.md subsection for one family."""
    family = aggregate["family"]
    lines = [
        f"### {family}/ — {aggregate['title']}",
        f"`{aggregate['bench']}` → "
        f"[`results/aggregates/{family}.json`]"
        f"(results/aggregates/{family}.json), points under "
        f"[`results/{family}/`](results/{family}/)",
    ]
    if preamble:
        lines.extend(["", preamble])
    lines.extend([
        "",
        summary_table(aggregate).render(),
    ])
    if aggregate["base_params"]:
        fixed = ", ".join(
            f"{key}={value}"
            for key, value in aggregate["base_params"].items()
        )
        lines.extend(["", f"Fixed parameters: {fixed}."])
    if caveat:
        lines.extend(["", f"> {caveat}"])
    return "\n".join(lines)


def family_summaries(
    grids: Optional[Sequence[Any]] = None,
    results_dir: str = "results",
) -> List[Tuple[Dict[str, Any], str]]:
    """``(aggregate, rendered subsection)`` per family — what both the
    report CLI and the EXPERIMENTS.md renderer iterate."""
    if grids is None:
        from repro.exp.registry import default_grids

        grids = default_grids()
    out: List[Tuple[Dict[str, Any], str]] = []
    for grid in grids:
        aggregate = aggregate_family(grid, results_dir)
        out.append((aggregate, render_grid_summary(
            aggregate, grid.caveat, getattr(grid, "preamble", ""))))
    return out
