"""Unit tests for the HIB's standalone blocks: outstanding-op
counters, page access counters, multicast table, atomic ALU,
launch state machines, register map."""

import pytest

from repro.hib import (
    AtomicOp,
    DestinationLog,
    LaunchError,
    MulticastTable,
    OutstandingOps,
    OutstandingUnderflowError,
    PageAccessCounters,
    Reg,
    SpecialOpcode,
    TelegraphosContext,
)
from repro.hib.atomic import apply_atomic, operand_count
from repro.hib.special import SpecialModeTg1


# -- OutstandingOps -------------------------------------------------------


def test_outstanding_basic_counting():
    ops = OutstandingOps(0)
    ids = [ops.open() for _ in range(3)]
    assert ids == [1, 2, 3]
    assert ops.count == 3
    ops.close(ids[1])
    assert ops.count == 2
    assert ops.total_issued == 3
    assert ops.max_outstanding == 3


def test_outstanding_underflow_raises_dedicated_error():
    # The dedicated type (a RuntimeError subclass, so legacy handlers
    # still fire) lets the fault harness distinguish a double-counted
    # completion — what a duplicated ack would cause without sequence
    # dedup — from any other runtime failure.  A completion for an id
    # never issued raises the same way.
    ops = OutstandingOps(3)
    op_id = ops.open()
    ops.close(op_id)
    with pytest.raises(OutstandingUnderflowError, match="node 3.*underflow"):
        ops.close(op_id)
    assert issubclass(OutstandingUnderflowError, RuntimeError)
    assert ops.count == 0  # the failed close must not corrupt state
    with pytest.raises(OutstandingUnderflowError):
        ops.close(op_id + 1)
    with pytest.raises(OutstandingUnderflowError):
        ops.abandon(op_id + 1, RuntimeError("lost"))
    assert ops.count == 0


def test_outstanding_underflow_on_bulk_decrement():
    # More completions than open ops: the surplus one raises and leaves
    # the ops still open as they were.
    ops = OutstandingOps(0)
    ids = [ops.open() for _ in range(2)]
    with pytest.raises(OutstandingUnderflowError):
        ops.close(ids[-1] + 1)
    assert ops.count == 2
    for op_id in ids:
        ops.close(op_id)
    with pytest.raises(OutstandingUnderflowError):
        ops.close(ids[0])
    assert ops.count == 0


def test_outstanding_first_report_wins():
    ops = OutstandingOps(0)
    # Abandoned first: the late completion is dropped, once.
    late = ops.open()
    ops.abandon(late, RuntimeError("lost"))
    assert ops.count == 0
    ops.close(late)
    with pytest.raises(OutstandingUnderflowError):
        ops.close(late)
    # Completed first: the abandonment is dropped.
    acked = ops.open()
    ops.close(acked)
    ops.abandon(acked, RuntimeError("lost"))
    assert ops.count == 0
    assert ops.total_issued == 2


def test_outstanding_request_resolves_or_fails_its_future():
    ops = OutstandingOps(0)
    first, answered = ops.request()
    second, lost = ops.request()
    assert (first, second) == (1, 2)
    assert ops.count == 0 and ops.total_issued == 0  # FENCE ignores them
    ops.close(first, 42)
    assert answered.value == 42
    error = RuntimeError("unreachable")
    ops.abandon(second, error)
    assert lost.exception is error
    ops.close(second, 7)  # the late reply finishes nothing


def test_outstanding_close_checks_the_kind():
    # A reply closes only a request, an ack only a counted op; the
    # wrong kind raises and leaves the op open, also after abandonment.
    ops = OutstandingOps(0)
    write = ops.open()
    read, future = ops.request()
    with pytest.raises(OutstandingUnderflowError, match="not an open request"):
        ops.close(write, 5)
    with pytest.raises(OutstandingUnderflowError, match="not an open counted"):
        ops.close(read)
    assert ops.count == 1 and not future.done
    ops.abandon(write, RuntimeError("lost"))
    ops.abandon(read, RuntimeError("lost"))
    with pytest.raises(OutstandingUnderflowError):
        ops.close(write, 5)
    with pytest.raises(OutstandingUnderflowError):
        ops.close(read)
    ops.close(write)  # each late notice of the right kind is dropped
    ops.close(read, 5)
    assert ops.count == 0


def test_destination_log_accounting():
    log = DestinationLog()
    log.sent += 3
    log.acked += 2
    log.timeouts += 1
    assert log.to_dict() == {"sent": 3, "acked": 2, "nacks_received": 0,
                             "retransmits": 0, "timeouts": 1}


def test_fence_immediate_when_quiescent():
    ops = OutstandingOps(0)
    assert ops.fence().done


def test_fence_resolves_at_zero():
    ops = OutstandingOps(0)
    first, second = ops.open(), ops.open()
    fence = ops.fence()
    ops.close(first)
    assert not fence.done
    ops.abandon(second, RuntimeError("lost"))
    assert fence.done


# -- PageAccessCounters ----------------------------------------------------


def test_counter_decrements_and_alarms():
    alarms = []
    pac = PageAccessCounters(alarm=lambda page, kind: alarms.append((page, kind)))
    pac.set_counter((1, 0), "write", 2)
    pac.on_access((1, 0), "write")
    assert pac.read_counter((1, 0), "write") == 1
    assert alarms == []
    pac.on_access((1, 0), "write")
    assert alarms == [((1, 0), "write")]
    # Saturated at zero: further accesses don't alarm again.
    pac.on_access((1, 0), "write")
    assert alarms == [((1, 0), "write")]
    assert pac.read_counter((1, 0), "write") == 0


def test_counters_are_per_kind():
    pac = PageAccessCounters()
    pac.set_counter((0, 3), "read", 5)
    pac.on_access((0, 3), "write")
    assert pac.read_counter((0, 3), "read") == 5


def test_counter_width_enforced():
    pac = PageAccessCounters(counter_bits=16)
    with pytest.raises(ValueError):
        pac.set_counter((0, 0), "read", 1 << 16)


def test_counter_table_capacity():
    pac = PageAccessCounters(max_pages=1)
    pac.set_counter((0, 0), "read", 1)
    with pytest.raises(RuntimeError, match="full"):
        pac.set_counter((0, 1), "read", 1)


def test_access_totals_and_hottest():
    pac = PageAccessCounters()
    for _ in range(5):
        pac.on_access((0, 1), "read")
    pac.on_access((0, 2), "write")
    assert pac.total_accesses((0, 1)) == 5
    assert pac.hottest_pages(1) == [((0, 1), 5)]


def test_counter_clear():
    pac = PageAccessCounters()
    pac.set_counter((0, 0), "read", 3)
    pac.clear((0, 0))
    assert pac.read_counter((0, 0), "read") == 0


def test_bad_kind_rejected():
    pac = PageAccessCounters()
    with pytest.raises(ValueError):
        pac.set_counter((0, 0), "exec", 1)


# -- MulticastTable --------------------------------------------------------


def test_multicast_map_and_destinations():
    table = MulticastTable()
    table.map_out(3, node=1, remote_page=7)
    table.map_out(3, node=2, remote_page=9)
    assert table.destinations(3) == [(1, 7), (2, 9)]
    assert table.is_mapped(3)
    assert table.entries_used == 2


def test_multicast_duplicate_is_noop():
    table = MulticastTable()
    table.map_out(0, 1, 1)
    table.map_out(0, 1, 1)
    assert table.entries_used == 1


def test_multicast_capacity_enforced():
    table = MulticastTable(capacity_entries=1)
    table.map_out(0, 1, 1)
    with pytest.raises(RuntimeError, match="full"):
        table.map_out(0, 2, 2)


def test_multicast_unmap():
    table = MulticastTable()
    table.map_out(0, 1, 1)
    table.map_out(0, 2, 2)
    table.unmap(0, 1, 1)
    assert table.destinations(0) == [(2, 2)]
    table.unmap(0, 9, 9)  # absent: quiet
    table.unmap_page(0)
    assert not table.is_mapped(0)
    assert table.entries_used == 0


def test_multicast_failed_map_leaves_no_phantom_mapping():
    """Regression: a capacity-rejected ``map_out`` used to create the
    page's (empty) destination list before the check, leaving a
    phantom mapping that polluted ``is_mapped``/``mapped_pages``."""
    table = MulticastTable(capacity_entries=2)
    table.map_out(0, 1, 1)
    table.map_out(0, 2, 2)
    with pytest.raises(RuntimeError, match="full"):
        table.map_out(5, 1, 1)
    assert not table.is_mapped(5)
    assert table.mapped_pages() == [0]
    assert table.entries_used == 2


def test_multicast_fill_unmap_refill_cycle():
    """Capacity accounting survives fill-to-capacity / unmap_page /
    refill — entries freed by ``unmap_page`` are reusable."""
    table = MulticastTable(capacity_entries=4)
    for dest in range(4):
        table.map_out(dest % 2, node=dest + 1, remote_page=dest)
    assert table.entries_used == 4
    with pytest.raises(RuntimeError, match="full"):
        table.map_out(3, 9, 9)
    table.unmap_page(0)
    assert table.entries_used == 2
    table.map_out(3, 9, 9)
    table.map_out(3, 10, 10)
    assert table.entries_used == 4
    assert table.mapped_pages() == [1, 3]
    # A duplicate at capacity stays a quiet no-op (no phantom growth).
    table.map_out(3, 9, 9)
    assert table.entries_used == 4


# -- Atomic ALU --------------------------------------------------------------


def test_fetch_and_store():
    assert apply_atomic(AtomicOp.FETCH_AND_STORE, 5, 9) == (5, 9)


def test_fetch_and_add():
    assert apply_atomic(AtomicOp.FETCH_AND_ADD, 5, 3) == (5, 8)


def test_compare_and_swap_success_and_failure():
    assert apply_atomic(AtomicOp.COMPARE_AND_SWAP, 5, 5, 7) == (5, 7)
    assert apply_atomic(AtomicOp.COMPARE_AND_SWAP, 5, 4, 7) == (5, 5)


def test_operand_counts():
    assert operand_count(AtomicOp.COMPARE_AND_SWAP) == 2
    assert operand_count(AtomicOp.FETCH_AND_ADD) == 1


# -- SpecialOpcode -----------------------------------------------------------


def test_opcode_address_needs():
    assert SpecialOpcode.REMOTE_COPY.needed_addresses == 2
    assert SpecialOpcode.FETCH_AND_ADD.needed_addresses == 1
    assert SpecialOpcode.COMPARE_AND_SWAP.needed_operands == 2
    assert SpecialOpcode.REMOTE_COPY.needed_operands == 0
    assert SpecialOpcode.REMOTE_COPY.to_atomic() is None


# -- Telegraphos I special mode -----------------------------------------------


def test_tg1_collect_and_launch():
    sm = SpecialModeTg1()
    sm.arm(SpecialOpcode.FETCH_AND_ADD.value)
    sm.collect(0x1000, 3)
    opcode, addresses, operands = sm.take_launch()
    assert opcode is SpecialOpcode.FETCH_AND_ADD
    assert addresses == [0x1000]
    assert operands == [3]
    assert not sm.armed  # launch leaves special mode


def test_tg1_cas_two_stores_same_address():
    sm = SpecialModeTg1()
    sm.arm(SpecialOpcode.COMPARE_AND_SWAP.value)
    sm.collect(0x1000, 5)   # comparand
    sm.collect(0x1000, 9)   # new value
    opcode, addresses, operands = sm.take_launch()
    assert addresses == [0x1000]
    assert operands == [5, 9]


def test_tg1_copy_two_addresses():
    sm = SpecialModeTg1()
    sm.arm(SpecialOpcode.REMOTE_COPY.value)
    sm.collect(0x1000, 0)
    sm.collect(0x2000, 0)
    opcode, addresses, _ = sm.take_launch()
    assert addresses == [0x1000, 0x2000]


def test_tg1_unarmed_collect_rejected():
    sm = SpecialModeTg1()
    with pytest.raises(LaunchError):
        sm.collect(0x1000, 0)


def test_tg1_unarmed_trigger_rejected():
    sm = SpecialModeTg1()
    with pytest.raises(LaunchError):
        sm.take_launch()


def test_tg1_wrong_address_count_rejected():
    sm = SpecialModeTg1()
    sm.arm(SpecialOpcode.REMOTE_COPY.value)
    sm.collect(0x1000, 0)
    with pytest.raises(LaunchError, match="expected 2"):
        sm.take_launch()


def test_tg1_bad_opcode_rejected():
    sm = SpecialModeTg1()
    with pytest.raises(LaunchError):
        sm.arm(99)


def test_tg1_disarm_with_zero():
    sm = SpecialModeTg1()
    sm.arm(SpecialOpcode.FETCH_AND_ADD.value)
    sm.arm(0)
    assert not sm.armed


# -- Telegraphos II contexts -----------------------------------------------------


def test_context_register_file():
    ctx = TelegraphosContext(0)
    ctx.write_reg(Reg.CTX_OPCODE, SpecialOpcode.FETCH_AND_ADD.value)
    ctx.write_reg(Reg.CTX_OPERAND0, 4)
    assert ctx.read_reg(Reg.CTX_OPCODE) == SpecialOpcode.FETCH_AND_ADD.value
    assert ctx.read_reg(Reg.CTX_OPERAND0) == 4
    assert ctx.read_reg(Reg.CTX_STATUS) == 0
    ctx.latch_address(0x1000)
    assert ctx.read_reg(Reg.CTX_STATUS) == 1


def test_context_launch_clears_addresses_keeps_key():
    ctx = TelegraphosContext(0)
    ctx.assign(key=0x123)
    ctx.write_reg(Reg.CTX_OPCODE, SpecialOpcode.FETCH_AND_ADD.value)
    ctx.write_reg(Reg.CTX_OPERAND0, 1)
    ctx.latch_address(0x1000)
    opcode, addresses, operands = ctx.take_launch()
    assert opcode is SpecialOpcode.FETCH_AND_ADD
    assert addresses == [0x1000]
    assert operands == [1]
    assert ctx.key == 0x123
    assert ctx.read_reg(Reg.CTX_STATUS) == 0


def test_context_bad_opcode():
    ctx = TelegraphosContext(0)
    with pytest.raises(LaunchError):
        ctx.take_launch()


def test_context_unknown_registers():
    ctx = TelegraphosContext(0)
    with pytest.raises(LaunchError):
        ctx.write_reg(0x48, 1)
    with pytest.raises(LaunchError):
        ctx.read_reg(0x48)


def test_context_revoke():
    ctx = TelegraphosContext(0)
    ctx.assign(key=1)
    ctx.latch_address(0x1000)
    ctx.revoke()
    assert ctx.key is None
    assert ctx.addresses == []


def test_context_key_width_enforced():
    ctx = TelegraphosContext(0)
    with pytest.raises(ValueError):
        ctx.assign(key=1 << Reg.KEY_BITS)


# -- Register map helpers -------------------------------------------------------


def test_shadow_argument_roundtrip():
    arg = Reg.shadow_argument(ctx_id=3, key=0x5A5A5)
    assert Reg.split_shadow_argument(arg) == (3, 0x5A5A5)


def test_shadow_argument_key_too_wide():
    with pytest.raises(ValueError):
        Reg.shadow_argument(0, 1 << Reg.KEY_BITS)


def test_context_page_offsets():
    page = 8192
    off = Reg.context_page_offset(2, page)
    assert Reg.split_context_offset(off + Reg.CTX_GO, page) == (2, Reg.CTX_GO)
    assert Reg.split_context_offset(0x100, page) is None
