"""Unit tests for the deterministic fault schedule and injector."""

import pytest

from repro.faults import (
    CATEGORIES,
    FaultConfig,
    FaultInjector,
    FaultPlan,
    decision_fraction,
)
from repro.faults.plan import _threshold
from repro.network.packet import Packet, PacketKind
from repro.sim import Simulator, Tracer


def make_packet(src=0, dst=1):
    return Packet(PacketKind.WRITE_REQ, src=src, dst=dst, size_bytes=16)


# -- the decision function ----------------------------------------------------


def test_decision_fraction_is_pure_and_in_range():
    a = decision_fraction(7, "drop", "host0->sw.req", 3)
    b = decision_fraction(7, "drop", "host0->sw.req", 3)
    assert a == b
    assert 0.0 <= a < 1.0


def test_decision_fraction_varies_with_every_coordinate():
    base = decision_fraction(7, "drop", "host0->sw.req", 3)
    assert base != decision_fraction(8, "drop", "host0->sw.req", 3)
    assert base != decision_fraction(7, "corrupt", "host0->sw.req", 3)
    assert base != decision_fraction(7, "drop", "host1->sw.req", 3)
    assert base != decision_fraction(7, "drop", "host0->sw.req", 4)


def test_decision_fraction_is_roughly_uniform():
    n = 4000
    fractions = [decision_fraction(1, "drop", "site", i) for i in range(n)]
    mean = sum(fractions) / n
    assert abs(mean - 0.5) < 0.03
    assert sum(1 for f in fractions if f < 0.1) / n == pytest.approx(0.1, abs=0.03)


# -- the plan -----------------------------------------------------------------


def test_same_seed_same_decision_sequence():
    config = FaultConfig(seed=11, drop_rate=0.2, corrupt_rate=0.1)
    first = [FaultPlan(config).decide("linkA").kind for _ in range(1)]
    plan_a, plan_b = FaultPlan(config), FaultPlan(config)
    seq_a = [plan_a.decide("linkA").kind for _ in range(200)]
    seq_b = [plan_b.decide("linkA").kind for _ in range(200)]
    assert seq_a == seq_b
    assert "drop" in seq_a  # at 20% over 200 draws the seed must hit


def test_different_seeds_differ():
    seq = lambda seed: [
        FaultPlan(FaultConfig(seed=seed, drop_rate=0.2)).decide("l").kind
        for _ in range(200)
    ]
    assert seq(1) != seq(2)


def test_decisions_are_per_site_independent():
    config = FaultConfig(seed=3, drop_rate=0.3)
    plan = FaultPlan(config)
    interleaved = [(plan.decide("a").kind, plan.decide("b").kind)
                   for _ in range(100)]
    plan_a, plan_b = FaultPlan(config), FaultPlan(config)
    assert [x[0] for x in interleaved] == [plan_a.decide("a").kind
                                           for _ in range(100)]
    assert [x[1] for x in interleaved] == [plan_b.decide("b").kind
                                           for _ in range(100)]


def test_site_filter_restricts_faults():
    plan = FaultPlan(FaultConfig(seed=1, drop_rate=1.0, sites=("hostA",)))
    assert plan.decide("hostA->sw.req").kind == "drop"
    assert plan.decide("hostB->sw.req").kind == "deliver"


def test_drop_exact_forces_the_nth_packet():
    plan = FaultPlan(FaultConfig(seed=1, drop_exact=(("linkX", 3),)))
    kinds = [plan.decide("linkX.req").kind for _ in range(5)]
    assert kinds == ["deliver", "deliver", "drop", "deliver", "deliver"]
    assert FaultPlan(
        FaultConfig(seed=1, drop_exact=(("linkX", 1),))
    ).decide("other").kind == "deliver"


def test_stall_decision_carries_duration():
    plan = FaultPlan(FaultConfig(seed=5, stall_rate=1.0, stall_ns=777))
    decision = plan.decide("any")
    assert decision.kind == "stall"
    assert decision.stall_ns == 777


def test_hang_remaining_window():
    plan = FaultPlan(FaultConfig(hib_hangs=((2, 1000, 500),)))
    assert plan.hang_remaining(2, 999) == 0
    assert plan.hang_remaining(2, 1000) == 500
    assert plan.hang_remaining(2, 1400) == 100
    assert plan.hang_remaining(2, 1500) == 0
    assert plan.hang_remaining(1, 1200) == 0


# -- config parsing -----------------------------------------------------------


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="drop_rat"):
        FaultConfig.from_dict({"seed": 1, "drop_rat": 0.1})
    # The known keys are the dataclass's fields, in order; a faulty
    # fabric always runs the reliable transport, so no key turns it off.
    with pytest.raises(ValueError, match=r"\['reliability'\]; known: "
                       r"\['seed', 'drop_rate', .*, 'hib_hangs'\]$"):
        FaultConfig.from_dict({"reliability": False})


def test_rates_validated():
    with pytest.raises(ValueError, match="drop_rate"):
        FaultConfig(drop_rate=1.5)
    with pytest.raises(ValueError, match="stall_ns"):
        FaultConfig(stall_ns=-1)


def test_config_round_trips_through_dicts():
    config = FaultConfig.from_dict({
        "seed": 9, "drop_rate": 0.01,
        "drop_exact": [["hostA", 2]],
        "hib_hangs": [[1, 100, 200]],
        "sites": ["hostA", "sw0"],
    })
    assert config.drop_exact == (("hostA", 2),)
    assert config.hib_hangs == ((1, 100, 200),)
    assert FaultConfig.from_dict(config.to_dict()) == config


BOUNDARY_RATES = (1.0, 0.9999999999999999, 0.5, 2**-53, 2**-64, 5e-324)


@pytest.mark.parametrize("rates", [
    (0.5, 0.9999999999999999, 1.0, 2**-53),
    (2**-64, 5e-324, 0.5, 1.0),
    (1.0, 0.0, 0.0, 0.0),
], ids=["bulk", "tiny-then-certain", "certain"])
def test_plan_decides_as_decision_fraction(rates):
    """Every decision is the first category whose fraction is below its
    rate, exactly as :func:`decision_fraction` computes it."""
    for seed in (3, 11):
        config = FaultConfig(seed=seed, **{
            f"{category}_rate": rate
            for category, rate in zip(CATEGORIES, rates)})
        plan = FaultPlan(config)
        for site in ("host0->sw.req", "sw0.req.in.('host', 1)"):
            for ordinal in range(1, 3001):
                expected = next(
                    (category for category, rate in zip(CATEGORIES, rates)
                     if decision_fraction(seed, category, site, ordinal)
                     < rate), "deliver")
                assert plan.decide(site).kind == expected, (seed, site, ordinal)


@pytest.mark.parametrize("rate", BOUNDARY_RATES)
def test_threshold_splits_draws_at_the_rate(rate):
    """The draw threshold sits exactly where the float fraction crosses
    the rate."""
    threshold = _threshold(rate)
    assert (threshold - 1) / float(1 << 64) < rate
    assert threshold == 1 << 64 or threshold / float(1 << 64) >= rate


def test_categories_cover_all_rates():
    for category in CATEGORIES:
        assert hasattr(FaultConfig(), f"{category}_rate")


# -- the injector -------------------------------------------------------------


def test_injector_counts_and_traces():
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now)
    injector = FaultInjector(
        sim, FaultConfig(seed=1, drop_exact=(("lnk", 1),)), tracer=tracer
    )
    action = injector.action_for("lnk.req", make_packet())
    assert action.kind == "drop" and action.forced
    assert injector.counts["drop"] == 1
    assert injector.counts["forced_drop"] == 1
    drops = tracer.select("fault_drop")
    assert len(drops) == 1
    assert drops[0].site == "lnk.req"
    snapshot = injector.snapshot()
    assert snapshot["injected"]["drop"] == 1
    assert snapshot["config"]["seed"] == 1
