"""The experiment registry: completeness, the paper's claims on the
committed results, and freshness of the committed results cache."""

import copy
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


def committed_result(exp_id):
    document = ResultCache(str(REPO_ROOT / "results")).load_document(exp_id)
    assert document is not None, f"results/{exp_id}.json is missing"
    return document["result"]


@pytest.mark.parametrize("exp_id", EXPECTED_IDS)
def test_every_claim_holds_on_its_committed_result(exp_id):
    spec = spec_map(flat_specs())[exp_id]
    assert spec.check is not None, f"{exp_id} states no claim"
    assert spec.check(committed_result(exp_id)) == []


#: One broken copy per claim: each edit breaks something its check
#: asserts, so no check can pass vacuously.
PERTURBATIONS = {
    "T1": lambda r: r.update(shared_memory_gates=2800),
    "T2": lambda r: r.update(read_us=r["write_us"]),
    "C1": lambda r: r["batches"][2].update(us_per_write=0.6),  # 100 writes
    "F2": lambda r: r["eager"].update(divergent_words=0),
    "S1": lambda r: r["stale_read"].update(telegraphos=0),
    "S2": lambda r: r["telegraphos"].update(
        counter_rmws=r["telegraphos"]["writes"] + 1),
    "S3": lambda r: r["sweep"][5].update(stalls=3),  # 32 entries
    "S4": lambda r: r["unsafe"].update(read=4242),
    "S5": lambda r: r["telegraphos"].update(observer_sequence=[1, 2, 1]),
    "S6": lambda r: r["uniform_alarm"].update(replications=1),
    "S7": lambda r: r["sockets"].update(
        delivered=r["telegraphos"]["issue"]),
    "S8": lambda r: r["producer_consumer"]["replica"].update(
        read_us=r["producer_consumer"]["remote"]["read_us"]),
    "A3": lambda r: r["false_sharing"]["vsm"].update(
        faults=r["private_pages"]["vsm"]["faults"]),
    "A1": lambda r: r["tg2"].update(launch_us=r["tg1"]["launch_us"]),
    "A2": lambda r: r["cases"][-1].update(
        write_us=2 * r["cases"][-1]["write_us"]),
    "X1": lambda r: r["points"][-1]["nic"].update(
        round_ns=r["points"][-1]["host"]["round_ns"]),
    "X2": lambda r: r["nic"].update(combine_hits=0),
}


@pytest.mark.parametrize("exp_id", EXPECTED_IDS)
def test_every_check_rejects_its_perturbed_result(exp_id):
    spec = spec_map(flat_specs())[exp_id]
    broken = copy.deepcopy(committed_result(exp_id))
    PERTURBATIONS[exp_id](broken)
    assert spec.check(broken), f"{exp_id}'s check accepts {broken}"


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
