"""Unit tests for configuration objects and miscellaneous paths."""

import pytest

from repro.network.packet import PacketKind
from repro.params import (
    DEFAULT_PARAMS,
    Params,
    TimingParams,
)


def test_serialization_scales_with_bandwidth():
    timing = TimingParams(link_bytes_per_us=20)
    assert timing.serialization_ns(20) == 1000
    assert timing.serialization_ns(14) == 700


#: Every kind's wire size: a 6-byte header plus 4-byte addresses and
#: words (an update adds a 2-byte origin).
WIRE_BYTES = {
    "WRITE_REQ": 14, "READ_REQ": 10, "READ_REPLY": 10, "ATOMIC_REQ": 18,
    "ATOMIC_REPLY": 10, "COPY_REQ": 14, "UPDATE": 16, "WRITE_ACK": 6,
    "RING_UPDATE": 16, "LL_ACK": 10, "LL_NACK": 10, "COLL_JOIN": 14,
    "COLL_RELEASE": 14, "COLL_FADD": 18, "COLL_FADD_REPLY": 14,
}


def test_packet_sizes_consistent_with_calibration():
    assert {kind.name: kind.size_bytes for kind in PacketKind} == WIRE_BYTES
    # The 14-byte write packet is what pins sustained writes to 0.70 us.
    write = PacketKind.WRITE_REQ.size_bytes
    assert DEFAULT_PARAMS.timing.serialization_ns(write) == 700


def test_params_with_timing_override():
    params = DEFAULT_PARAMS.with_timing(cpu_issue_ns=99)
    assert params.timing.cpu_issue_ns == 99
    assert DEFAULT_PARAMS.timing.cpu_issue_ns == 40  # original untouched


@pytest.mark.parametrize("field, value, error", [
    ("link_prop_ns", 2.5, TypeError), ("link_prop_ns", True, TypeError),
    ("link_prop_ns", -1, ValueError), ("link_bytes_per_us", 0, ValueError),
], ids=["float", "bool", "negative", "zero-bandwidth"])
def test_timing_override_rejects_non_int_or_negative(field, value, error):
    with pytest.raises(error, match=field):
        DEFAULT_PARAMS.with_timing(**{field: value})


SIZES = ("hib_out_fifo", "hib_in_fifo", "switch_port_fifo",
         "switch_buffer_slots", "switch_output_quota", "link_credits",
         "ll_control_queue", "page_bytes")


@pytest.mark.parametrize("value, error", [
    (0, ValueError), (-1, ValueError), (2.5, TypeError), (True, TypeError),
], ids=["zero", "negative", "float", "bool"])
@pytest.mark.parametrize("field", SIZES)
def test_sizing_override_rejects_non_int_or_below_one(field, value, error):
    with pytest.raises(error, match=field):
        DEFAULT_PARAMS.with_sizing(**{field: value})


@pytest.mark.parametrize("override, field", [
    ("with_timing", "cpu_op_ns"), ("with_timing", "hib_counter_rmw_ns"),
    ("with_sizing", "word_bytes"), ("with_sizing", "counter_cache_entries"),
    ("with_sizing", "page_words"), ("with_sizing", "max_outstanding_reads"),
])
def test_override_of_a_deleted_field_is_rejected(override, field):
    # These fields are gone; an override must fail, not do nothing.
    with pytest.raises(TypeError, match=field):
        getattr(DEFAULT_PARAMS, override)(**{field: 8})


def test_params_with_sizing_override():
    params = DEFAULT_PARAMS.with_sizing(contexts=4)
    assert params.sizing.contexts == 4
    assert params.timing is DEFAULT_PARAMS.timing


def test_params_frozen():
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_PARAMS.prototype = 2  # type: ignore[misc]


def test_prototype_selection():
    assert Params(prototype=2).prototype == 2
    assert DEFAULT_PARAMS.prototype == 1


def test_repro_package_exports():
    import repro

    assert repro.__version__ == "1.0.0"
    assert repro.Cluster is not None
    assert repro.DEFAULT_PARAMS is DEFAULT_PARAMS
