"""The experiment registry: completeness against the benchmark
suite, and freshness of the committed results cache."""

from pathlib import Path

import pytest

from repro.exp import (
    ResultCache,
    default_grids,
    default_registry,
    flat_specs,
    select,
    spec_map,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_IDS = [
    "T1", "T2", "C1", "F2", "S1", "S2", "S3", "S4",
    "S5", "S6", "S7", "S8", "A3", "A1", "A2", "X1", "X2",
]

EXPECTED_FAMILIES = ["T2", "S3", "X1", "W1", "W2", "A2"]


def test_registry_is_complete_and_unique():
    specs = default_registry()
    assert [spec.exp_id for spec in specs if not spec.is_grid_point] \
        == EXPECTED_IDS
    assert [spec.exp_id for spec in flat_specs()] == EXPECTED_IDS
    assert len(spec_map(specs)) == len(specs)


def test_grid_families_are_declared_and_expanded():
    grids = default_grids()
    assert [grid.family for grid in grids] == EXPECTED_FAMILIES
    points = [spec for spec in default_registry() if spec.is_grid_point]
    # Every family expands to >= 4 points, registered after the flat
    # claims in declaration order.
    by_family = {}
    for point in points:
        by_family.setdefault(point.family, []).append(point)
    assert sorted(by_family) == sorted(EXPECTED_FAMILIES)
    for grid in grids:
        assert len(by_family[grid.family]) == grid.n_points
        assert grid.n_points >= 4
        assert [p.exp_id for p in by_family[grid.family]] \
            == [p.exp_id for p in grid.expand()]


def test_every_spec_has_its_bench_harness():
    registered = {spec.bench for spec in default_registry()}
    registered |= {grid.bench for grid in default_grids()}
    for bench in registered:
        assert (REPO_ROOT / bench).is_file(), bench
    # ...and every experiment-shaped bench file is registered.
    on_disk = {
        f"benchmarks/{p.name}"
        for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    }
    assert on_disk == registered


def test_specs_declare_valid_metadata():
    for spec in default_registry():
        assert spec.title
        assert spec.cost > 0
        assert spec.version >= 1
        # Params must round-trip through the cache key (JSON-safe).
        spec.cache_key()


def test_committed_results_match_current_spec_versions():
    """The staleness gate: every committed results/<id>.json must carry
    the cache key of the *current* spec — grid points included.  A spec
    change without a version bump + re-sweep fails here."""
    cache = ResultCache(str(REPO_ROOT / "results"))
    for spec in default_registry():
        document = cache.lookup(spec)
        assert document is not None, (
            f"results/{spec.exp_id}.json is missing or stale — run "
            f"`python -m repro sweep` and commit the result"
        )
        assert document["experiment"] == spec.exp_id
        assert document["provenance"] == spec.provenance


def test_select_filters_and_validates():
    specs = default_registry()
    assert [s.exp_id for s in select(specs, ["t2", "T1"])] == ["T1", "T2"]
    with pytest.raises(KeyError, match="Z9"):
        select(specs, ["Z9"])


def test_select_supports_family_globs():
    specs = default_registry()
    t2_points = [s.exp_id for s in select(specs, ["T2/*"])]
    assert t2_points == [
        "T2/link_prop_ns=50", "T2/link_prop_ns=200",
        "T2/link_prop_ns=800", "T2/link_prop_ns=3200",
    ]
    # Bare family id selects only the flat claim, not the points.
    assert [s.exp_id for s in select(specs, ["T2"])] == ["T2"]
    # Globs are case-insensitive like plain ids, and a pattern that
    # matches nothing fails loudly.
    assert [s.exp_id for s in select(specs, ["w1/*"])] \
        == [s.exp_id for s in select(specs, ["W1/*"])]
    with pytest.raises(KeyError, match="Z9"):
        select(specs, ["Z9/*"])
