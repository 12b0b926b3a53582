"""Unit tests for tracing and statistics."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim import Accumulator, Simulator, Tally, Tracer


def make_tracer(enabled=True):
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, enabled=enabled)
    return sim, tracer


def test_record_and_select():
    sim, tracer = make_tracer()
    tracer.record("write", node=0, addr=4)
    sim.schedule(10, tracer.record, "write")
    sim.run()
    assert len(tracer.events) == 2
    assert tracer.events[0].time == 0
    assert tracer.events[1].time == 10
    assert tracer.select("write", node=0)[0].addr == 4


def test_disabled_tracer_records_nothing():
    _, tracer = make_tracer(enabled=False)
    tracer.record("write", node=0)
    assert tracer.events == []


def test_event_attribute_access():
    _, tracer = make_tracer()
    tracer.record("apply", value=7)
    event = tracer.events[0]
    assert event.value == 7
    with pytest.raises(AttributeError):
        _ = event.missing


def test_clear():
    _, tracer = make_tracer()
    tracer.record("a")
    tracer.clear()
    assert tracer.events == []


def test_accumulator_basic_stats():
    acc = Accumulator("lat")
    for v in [1.0, 2.0, 3.0, 4.0]:
        acc.add(v)
    assert acc.count == 4
    assert acc.mean == pytest.approx(2.5)
    assert acc.minimum == 1.0
    assert acc.maximum == 4.0
    assert acc.total == pytest.approx(10.0)
    assert acc.stddev == pytest.approx(1.29099, rel=1e-4)


def test_accumulator_percentiles():
    acc = Accumulator()
    for v in range(1, 101):
        acc.add(float(v))
    assert acc.percentile(0) == 1.0
    assert acc.percentile(100) == 100.0
    assert acc.percentile(50) == pytest.approx(50.5)


def test_accumulator_single_sample_percentile():
    acc = Accumulator()
    acc.add(42.0)
    assert acc.percentile(99) == 42.0
    assert acc.stddev == 0.0


def test_accumulator_empty_raises():
    acc = Accumulator("empty")
    with pytest.raises(ValueError):
        _ = acc.mean
    with pytest.raises(ValueError):
        acc.percentile(50)


def test_accumulator_percentile_bounds():
    acc = Accumulator()
    acc.add(1.0)
    with pytest.raises(ValueError):
        acc.percentile(101)


def test_accumulator_summary_keys():
    acc = Accumulator()
    acc.add(5.0)
    summary = acc.summary()
    assert set(summary) == {"count", "mean", "min", "max", "p50", "p99"}


@given(st.lists(st.integers(min_value=0, max_value=8)))
@example([])
def test_tally_reads_like_an_accumulator(samples):
    """Same values and types (equal JSON) from one count per value."""
    tally = Tally(9, "depth")
    acc = Accumulator("depth")
    for value in samples:
        tally.add(value)
        acc.add(value)
    assert json.dumps([tally.count, tally.total]) == \
        json.dumps([acc.count, acc.total])
    if samples:
        assert json.dumps([tally.maximum, tally.mean, tally.summary()]) == \
            json.dumps([acc.maximum, acc.mean, acc.summary()])
    else:
        for read in (lambda t: t.maximum, lambda t: t.mean,
                     lambda t: t.summary()):
            with pytest.raises(ValueError):
                read(tally)


@pytest.mark.parametrize("value", [-1, 9, 40])
def test_tally_rejects_values_outside_its_range(value):
    tally = Tally(9, "depth")
    with pytest.raises(ValueError, match=f"got {value}$"):
        tally.add(value)
    assert tally.count == 0
