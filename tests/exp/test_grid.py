"""The grid expander: deterministic expansion, per-point cache
isolation, float-safe cache keys, and byte-identity across worker
counts on a two-parameter grid."""

import pytest

from repro.exp import GridSpec, ResultCache, run_sweep
from repro.exp.grid import expand_grids, family_points, format_axis_value
from repro.exp.spec import canonical_key_material


def run_nothing(**params):
    return dict(params)


def make_grid(**overrides):
    kwargs = dict(
        family="G",
        title="test grid",
        bench="benchmarks/bench_table2_latency.py",
        run=run_nothing,
        axes={"alpha": [1, 2], "beta": [0.5, 0.25]},
        base={"fixed": 7},
    )
    kwargs.update(overrides)
    return GridSpec(**kwargs)


# -- expansion -------------------------------------------------------------


def test_expansion_order_is_deterministic_cartesian():
    """Declared axis order, last axis fastest — and stable across
    calls (shard assignment and results paths depend on it)."""
    grid = make_grid()
    ids = [spec.exp_id for spec in grid.expand()]
    assert ids == [
        "G/alpha=1,beta=0.5",
        "G/alpha=1,beta=0.25",
        "G/alpha=2,beta=0.5",
        "G/alpha=2,beta=0.25",
    ]
    assert ids == [spec.exp_id for spec in grid.expand()]
    assert grid.n_points == 4


def test_points_inherit_family_metadata_and_merge_params():
    grid = make_grid(caveat="per-point note", version=3, cost=0.4)
    point = grid.expand()[1]
    assert point.is_grid_point
    assert point.family == "G"
    assert point.params == {"fixed": 7, "alpha": 1, "beta": 0.25}
    assert point.caveat == "per-point note"
    assert point.version == 3
    assert point.cost == 0.4
    assert point.bench == grid.bench
    assert point.check is None and point.render is None


def test_grid_validation_rejects_bad_declarations():
    with pytest.raises(ValueError, match="no axes"):
        make_grid(axes={})
    with pytest.raises(ValueError, match="no values"):
        make_grid(axes={"alpha": []})
    with pytest.raises(ValueError, match="shadows"):
        make_grid(axes={"fixed": [1, 2]})
    with pytest.raises(ValueError, match="'/'"):
        make_grid(family="G/sub")
    with pytest.raises(ValueError, match="duplicate grid families"):
        expand_grids([make_grid(), make_grid()])


def test_family_points_subsets_in_expansion_order():
    specs = expand_grids([make_grid()])
    assert [s.exp_id for s in family_points(specs, "G")] \
        == [s.exp_id for s in make_grid().expand()]
    assert family_points(specs, "NOPE") == []


def test_axis_value_formatting():
    assert format_axis_value(200) == "200"
    assert format_axis_value(0.98) == "0.98"
    assert format_axis_value("replica") == "replica"
    assert format_axis_value(True) == "true"
    assert format_axis_value(None) == "none"


# -- cache keys ------------------------------------------------------------


def test_per_point_cache_keys_are_isolated():
    """Every point gets its own key; bumping the family version
    invalidates all of them and none of a sibling family's."""
    keys = {s.exp_id: s.cache_key() for s in make_grid().expand()}
    assert len(set(keys.values())) == len(keys)
    bumped = {s.exp_id: s.cache_key()
              for s in make_grid(version=2).expand()}
    assert set(bumped) == set(keys)
    assert all(bumped[exp_id] != keys[exp_id] for exp_id in keys)


def test_per_point_cache_hit_miss_isolation(tmp_path):
    """Recomputing one point leaves sibling entries warm; changing an
    axis value misses without touching the others."""
    grid = make_grid()
    cache = ResultCache(str(tmp_path))
    points = grid.expand()
    for point in points:
        cache.store(point, point.run(**point.params))
    assert all(cache.lookup(point) is not None for point in points)
    # A new value on one axis is a fresh point: cache miss for it,
    # hits for every committed sibling.
    grown = make_grid(axes={"alpha": [1, 2, 3], "beta": [0.5, 0.25]})
    fresh = [p for p in grown.expand() if p.params["alpha"] == 3]
    warm = [p for p in grown.expand() if p.params["alpha"] != 3]
    assert all(cache.lookup(point) is None for point in fresh)
    assert all(cache.lookup(point) is not None for point in warm)


def test_float_axis_values_key_stably_and_distinctly():
    """The canonicalization satellite: equal doubles hash equally
    however they were written; int 1 and float 1.0 do not alias; junk
    is rejected."""
    assert canonical_key_material(0.1) \
        == canonical_key_material(0.1000000000000000055511151231257827)
    assert canonical_key_material(1) != canonical_key_material(1.0)
    assert canonical_key_material((1, 2)) == canonical_key_material([1, 2])
    with pytest.raises(ValueError, match="non-finite"):
        canonical_key_material(float("nan"))
    with pytest.raises(ValueError, match="keys must be str"):
        canonical_key_material({1: "x"})
    with pytest.raises(ValueError, match="not JSON-safe"):
        canonical_key_material(object())
    # Identity on the pre-grid param trees: historical keys unchanged.
    tree = {"ops": 10_000, "mode": "replica", "flags": [True, None]}
    assert canonical_key_material(tree) == tree


def test_grid_point_results_land_in_family_subdirectory(tmp_path):
    grid = make_grid()
    cache = ResultCache(str(tmp_path))
    point = grid.expand()[0]
    cache.store(point, point.run(**point.params))
    assert (tmp_path / "G" / "alpha=1,beta=0.5.json").is_file()
    assert cache.lookup(point) is not None


# -- byte-identity across worker counts -----------------------------------


def test_w1_grid_byte_identical_across_executors(tmp_path):
    """The acceptance contract on a real two-parameter grid: the W1
    family (sharing × rounds_per_node) produces byte-identical point
    files under ``--workers 1`` and ``--workers 3``."""
    from repro.exp import default_grids

    (grid,) = [g for g in default_grids() if g.family == "W1"]
    specs = grid.expand()
    serial = run_sweep(specs, workers=1,
                       cache=ResultCache(str(tmp_path / "serial")))
    parallel = run_sweep(specs, workers=3,
                         cache=ResultCache(str(tmp_path / "parallel")))
    assert serial.ok and parallel.ok
    assert sorted(serial.ran) == sorted(parallel.ran) \
        == sorted(s.exp_id for s in specs)
    for spec in specs:
        name = f"{spec.exp_id}.json"
        reference = (tmp_path / "serial" / name).read_bytes()
        assert (tmp_path / "parallel" / name).read_bytes() == reference
