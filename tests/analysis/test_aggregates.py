"""The evaluation pipeline: metric flattening, grid-family
aggregation, the golden plot-ready fixture, and the drift gate."""

import json
from pathlib import Path

import pytest

from repro.analysis.metrics import flatten_metrics, is_numeric, series_for
from repro.analysis.results import (
    AggregateError,
    aggregate_family,
    aggregate_path,
    check_aggregate,
    render_grid_summary,
    summary_table,
    write_aggregate,
)
from repro.exp import default_grids
from repro.exp.spec import canonical_json_bytes

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = str(REPO_ROOT / "results")
GOLDEN = REPO_ROOT / "tests" / "fixtures" / "golden_w1_aggregate.json"


def w1_grid():
    (grid,) = [g for g in default_grids() if g.family == "W1"]
    return grid


# -- metric flattening -----------------------------------------------------


def test_flatten_metrics_takes_numeric_leaves_dotted():
    result = {
        "read_us": 7.2,
        "count": 3,
        "flag": True,          # bools are not metrics
        "label": "x",          # nor strings
        "sweep": [1, 2],       # lists are unnamed sweeps, skipped
        "host": {"round_ns": 100, "inner": {"depth": 2}},
    }
    assert flatten_metrics(result) == {
        "read_us": 7.2,
        "count": 3,
        "host.round_ns": 100,
        "host.inner.depth": 2,
    }
    assert is_numeric(1.5) and is_numeric(3)
    assert not is_numeric(True) and not is_numeric("x")


def test_series_for_is_column_major_with_gaps():
    points = [{"a": 1, "b": 2.0}, {"a": 3}]
    assert series_for(points) == {"a": [1, 3], "b": [2.0, None]}


# -- aggregation against the committed results -----------------------------


def test_w1_aggregate_matches_golden_fixture():
    """The plot-ready contract: the aggregate recomputed from the
    committed point results is byte-identical to the golden fixture
    (and to the committed ``results/aggregates/W1.json``)."""
    aggregate = aggregate_family(w1_grid(), RESULTS_DIR)
    recomputed = canonical_json_bytes(aggregate)
    assert recomputed == GOLDEN.read_bytes()
    committed = Path(aggregate_path(RESULTS_DIR, "W1"))
    assert recomputed == committed.read_bytes()


def test_golden_fixture_round_trips_through_the_serializer():
    document = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert canonical_json_bytes(document) == GOLDEN.read_bytes()
    # Plot-ready shape: axes, per-point assignments, aligned series.
    assert document["family"] == "W1"
    assert set(document["axes"]) == {"sharing", "rounds_per_node"}
    n = len(document["points"])
    assert n == w1_grid().n_points
    for values in document["series"].values():
        assert len(values) == n
    for point in document["points"]:
        assert set(point["assignment"]) == set(document["axes"])


def test_every_committed_aggregate_is_fresh():
    """The drift gate ``repro report --check`` applies, as a test."""
    for grid in default_grids():
        aggregate = aggregate_family(grid, RESULTS_DIR)
        assert check_aggregate(aggregate, RESULTS_DIR) is None, grid.family


def test_aggregate_family_requires_every_point(tmp_path):
    with pytest.raises(AggregateError, match="W1"):
        aggregate_family(w1_grid(), str(tmp_path))


def test_check_aggregate_flags_missing_and_stale(tmp_path):
    aggregate = aggregate_family(w1_grid(), RESULTS_DIR)
    assert "missing" in check_aggregate(aggregate, str(tmp_path))
    write_aggregate(aggregate, str(tmp_path))
    assert check_aggregate(aggregate, str(tmp_path)) is None
    doctored = dict(aggregate, title="edited by hand")
    path = aggregate_path(str(tmp_path), "W1")
    Path(path).write_bytes(canonical_json_bytes(doctored))
    assert "stale" in check_aggregate(aggregate, str(tmp_path))


# -- rendering -------------------------------------------------------------


def test_summary_table_is_axes_plus_declared_metrics():
    aggregate = aggregate_family(w1_grid(), RESULTS_DIR)
    rendered = summary_table(aggregate).render()
    header = rendered.splitlines()[0]
    assert header == ("| sharing | rounds_per_node | makespan_us | "
                      "updates | coherence.updates_ignored |")
    assert len(rendered.splitlines()) == 2 + w1_grid().n_points


def test_grid_summary_section_links_the_artifacts():
    aggregate = aggregate_family(w1_grid(), RESULTS_DIR)
    section = render_grid_summary(aggregate, "a caveat")
    assert section.startswith("### W1/ — ")
    assert "results/aggregates/W1.json" in section
    assert "results/W1/" in section
    assert "Fixed parameters: words=8." in section
    assert "> a caveat" in section


def test_experiments_md_carries_every_family_summary():
    document = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "## Grid families" in document
    for grid in default_grids():
        assert f"### {grid.family}/ — {grid.title}" in document

