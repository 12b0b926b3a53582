"""Table 1 gate-count model: reproduce the paper's numbers exactly
with the default configuration."""

from repro.hib import GateCountModel
from repro.params import SizingParams


def block_by_name(model, name):
    return next(b for b in model.blocks() if b.name == name)


def test_default_blocks_match_table1():
    model = GateCountModel()
    expectations = {
        "Central control": (1000, 0.5),
        "Turbochannel interface": (550, 0.0),
        "Incoming link intf.": (1000, 2.0),
        "Outgoing link intf.": (750, 2.0),
        "Atomic operations": (1500, 0.0),
        "Multicast (eager sharing)": (400, 512.0),
        "Page Access Counters": (800, 2048.0),
        "Multiproc. Mem. (MPM)": (0, 0.0),
    }
    for name, (gates, kbits) in expectations.items():
        block = block_by_name(model, name)
        assert block.gates == gates, name
        assert block.sram_kbits == kbits, name


def test_subtotals_match_table1():
    model = GateCountModel()
    # "Subtotal message related: 3300 gates, 4.5 Kbits"
    assert model.subtotal("message") == (3300, 4.5)
    # "Subtotal shared mem. rel.: 2700 gates" — the paper's SRAM
    # subtotal of 2500 Kbits is 512 + 2048 rounded down.
    gates, kbits = model.subtotal("shared")
    assert gates == 2700
    assert kbits == 2560.0


def test_headline_claim():
    """§3.1: 'the portion of the network interface that is necessary
    for supporting shared memory is very small: 2700 gates'."""
    model = GateCountModel()
    assert model.shared_memory_gates == 2700
    assert model.message_related_gates == 3300


def test_multicast_sram_scales_with_entries():
    half = GateCountModel(SizingParams(multicast_entries=8192))
    assert block_by_name(half, "Multicast (eager sharing)").sram_kbits == 256.0


def test_counter_sram_scales_with_pages_and_width():
    model = GateCountModel(SizingParams(counted_pages=32768, page_counter_bits=8))
    assert block_by_name(model, "Page Access Counters").sram_kbits == 512.0


def test_mpm_note_scales():
    model = GateCountModel(SizingParams(mpm_bytes=32 * 1024 * 1024))
    note = block_by_name(model, "Multiproc. Mem. (MPM)").note
    assert "32 MBytes" in note
    assert "256 Mbits" in note
