"""Unit tests for the CPU model (with a stub TurboChannel device)."""

import pytest

from repro.machine import (
    AddressMap,
    AddressSpace,
    Bus,
    CPU,
    Fence,
    Load,
    PageTableEntry,
    PalSequence,
    ProtectionViolation,
    Store,
    Think,
    WordMemory,
)
from repro.params import DEFAULT_PARAMS
from repro.sim import Simulator


class StubIO:
    """Records TurboChannel traffic; fixed 100 ns per access."""

    def __init__(self):
        self.stores = []
        self.loads = []
        self.fences = 0
        self.load_values = {}

    def tc_store(self, phys, value):
        yield 100
        self.stores.append((phys, value))

    def tc_load(self, phys):
        yield 100
        self.loads.append(phys)
        return self.load_values.get(phys, 0)

    def tc_fence(self):
        yield 100
        self.fences += 1


def make_cpu():
    sim = Simulator()
    amap = AddressMap()
    dram = WordMemory(1 << 20, name="dram")
    membus = Bus(sim, "membus", DEFAULT_PARAMS.timing.membus_arb_ns)
    io = StubIO()
    cpu = CPU(sim, DEFAULT_PARAMS, 0, amap, dram, membus, io)
    return sim, cpu, amap, dram, io


def local_space(amap, pages=2, cacheable=False):
    space = AddressSpace(amap)
    for vpage in range(pages):
        space.map_page(
            vpage,
            PageTableEntry(amap.dram(vpage * amap.page_bytes), cacheable=cacheable),
        )
    return space


def run_program(sim, cpu, space, body, name="prog"):
    ctx = cpu.start_program(body, space, name)
    sim.run()
    return ctx


def test_store_then_load_local_dram():
    sim, cpu, amap, dram, _ = make_cpu()
    got = []

    def prog():
        yield Store(0x100, 42)
        got.append((yield Load(0x100)))

    run_program(sim, cpu, local_space(amap), prog())
    assert got == [42]
    assert dram.load_word(0x100) == 42


def test_think_costs_time():
    sim, cpu, amap, _, _ = make_cpu()

    def prog():
        yield Think(12345)

    run_program(sim, cpu, local_space(amap), prog())
    assert sim.now >= 12345


def test_remote_window_store_goes_to_io():
    sim, cpu, amap, _, io = make_cpu()
    space = AddressSpace(amap)
    space.map_page(0, PageTableEntry(amap.remote(3, 0)))

    def prog():
        yield Store(0x40, 7)

    run_program(sim, cpu, space, prog())
    assert io.stores == [(amap.remote(3, 0x40), 7)]


def test_remote_window_load_returns_io_value():
    sim, cpu, amap, _, io = make_cpu()
    space = AddressSpace(amap)
    space.map_page(0, PageTableEntry(amap.remote(3, 0)))
    io.load_values[amap.remote(3, 0x40)] = 99
    got = []

    def prog():
        got.append((yield Load(0x40)))

    run_program(sim, cpu, space, prog())
    assert got == [99]


def test_fence_reaches_io():
    sim, cpu, amap, _, io = make_cpu()

    def prog():
        yield Fence()

    run_program(sim, cpu, local_space(amap), prog())
    assert io.fences == 1


def test_unmapped_access_kills_program_without_handler():
    sim, cpu, amap, _, _ = make_cpu()
    caught = []

    def prog():
        try:
            yield Load(0x10_0000)  # vpage far outside the mapping
        except ProtectionViolation as err:
            caught.append(err)

    run_program(sim, cpu, local_space(amap, pages=1), prog())
    assert len(caught) == 1


def test_fault_handler_can_fix_and_retry():
    sim, cpu, amap, dram, _ = make_cpu()
    space = local_space(amap, pages=1)
    vaddr = amap.page_bytes + 4  # vpage 1, unmapped
    unmapped_load = 2 * amap.page_bytes  # vpage 2, unmapped
    fixed = []

    def handler(ctx, fault):
        yield 1000  # OS fault-handling time
        vpage = fault.vaddr // amap.page_bytes
        space.map_page(
            vpage, PageTableEntry(amap.dram(vpage * amap.page_bytes)))
        fixed.append(fault.vaddr)
        return "retry"

    cpu.fault_handler = handler
    got = []

    def prog():
        yield Store(vaddr, 5)
        got.append((yield Load(vaddr)))
        got.append((yield Load(unmapped_load)))

    ctx = run_program(sim, cpu, space, prog())
    assert fixed == [vaddr, unmapped_load]
    assert got == [5, 0]
    # A retried op counts again: the store and the last load twice.
    assert (cpu.ops_executed, cpu.stores, cpu.loads) == (5, 2, 3)


def test_fault_handler_kill_throws_into_program():
    sim, cpu, amap, _, _ = make_cpu()

    def handler(ctx, fault):
        yield 10
        return "kill"

    cpu.fault_handler = handler
    outcome = []

    def prog():
        try:
            yield Load(0x100_000)
        except ProtectionViolation:
            outcome.append("killed")

    run_program(sim, cpu, local_space(amap, pages=1), prog())
    assert outcome == ["killed"]


def test_pal_sequence_returns_last_result():
    sim, cpu, amap, _, io = make_cpu()
    space = AddressSpace(amap)
    space.map_page(0, PageTableEntry(amap.hib_register(0)))
    io.load_values[amap.hib_register(0x8)] = 1234
    got = []

    def prog():
        result = yield PalSequence(
            [Store(0x0, 1), Store(0x4, 2), Load(0x8)]
        )
        got.append(result)

    run_program(sim, cpu, space, prog())
    assert got == [1234]
    assert io.stores == [(amap.hib_register(0), 1), (amap.hib_register(4), 2)]


def test_nested_pal_rejected():
    sim, cpu, amap, _, _ = make_cpu()

    def prog():
        yield PalSequence([PalSequence([Think(1)])])

    with pytest.raises(RuntimeError, match="failed") as info:
        run_program(sim, cpu, local_space(amap), prog())
    assert type(info.value.__cause__) is RuntimeError
    assert "PAL" in str(info.value.__cause__)


def test_preemption_switches_between_programs():
    sim, cpu, amap, _, _ = make_cpu()
    space = local_space(amap)
    order = []

    def prog(tag, n):
        for _ in range(n):
            yield Think(100)
            order.append((tag, sim.now))

    ctx_a = cpu.start_program(prog("a", 3), space, "a")
    ctx_b = cpu.start_program(prog("b", 3), space, "b")
    # b starts parked; switch at t=150 and back at t=450.
    sim.schedule(150, cpu.switch_to, ctx_b)
    sim.schedule(450, cpu.switch_to, ctx_a)
    sim.run()
    tags = [t for t, _ in order]
    # a runs first, then b runs while a is parked, then a finishes.
    assert tags[0] == "a"
    assert "b" in tags
    assert order[-1][0] in ("a", "b")
    assert len(order) == 6


def test_pal_sequence_defers_preemption():
    sim, cpu, amap, _, _ = make_cpu()
    space = local_space(amap)
    order = []

    def prog_a():
        yield PalSequence([Think(100), Think(100), Think(100)])
        order.append(("a-pal-done", sim.now))

    def prog_b():
        yield Think(10)
        order.append(("b", sim.now))

    ctx_a = cpu.start_program(prog_a(), space, "a")
    ctx_b = cpu.start_program(prog_b(), space, "b")
    sim.schedule(50, cpu.switch_to, ctx_b)  # mid-PAL
    sim.run()
    # The switch was requested at t=50, mid-PAL; b must not execute
    # until the whole 300 ns PAL sequence has completed.
    b_times = [t for tag, t in order if tag == "b"]
    assert b_times and b_times[0] >= 300
    assert ("a-pal-done" in [tag for tag, _ in order])


def test_program_completion_hands_cpu_to_parked_program():
    sim, cpu, amap, _, _ = make_cpu()
    space = local_space(amap)
    done = []

    def prog(tag):
        yield Think(100)
        done.append(tag)

    cpu.start_program(prog("first"), space, "first")
    cpu.start_program(prog("second"), space, "second")
    sim.run()
    assert done == ["first", "second"]


def test_duplicate_program_name_rejected():
    sim, cpu, amap, _, _ = make_cpu()
    space = local_space(amap)

    def prog():
        yield Think(1)

    cpu.start_program(prog(), space, "p")
    with pytest.raises(ValueError):
        cpu.start_program(prog(), space, "p")


def test_cacheable_loads_hit_cache_second_time():
    sim, cpu, amap, _, _ = make_cpu()
    space = local_space(amap, cacheable=True)

    def prog():
        yield Store(0x100, 1)
        yield Load(0x100)
        yield Load(0x100)

    run_program(sim, cpu, space, prog())
    assert cpu.cache.hits >= 2  # write-allocate then two load hits


def test_unknown_op_rejected():
    sim, cpu, amap, _, _ = make_cpu()

    def prog():
        yield "bogus"

    with pytest.raises(RuntimeError, match="failed") as info:
        run_program(sim, cpu, local_space(amap), prog())
    assert isinstance(info.value.__cause__, TypeError)


def test_program_stats_counted():
    sim, cpu, amap, _, _ = make_cpu()

    def prog():
        yield Store(0, 1)
        yield Load(0)
        yield Think(5)

    run_program(sim, cpu, local_space(amap), prog())
    assert (cpu.ops_executed, cpu.stores, cpu.loads) == (3, 1, 1)

    # A PAL sequence counts as one op, plus each op inside it.
    sim, cpu, amap, _, _ = make_cpu()

    def pal_prog():
        yield Think(5)
        yield PalSequence([Store(0, 1), Load(0), Think(5)])

    run_program(sim, cpu, local_space(amap), pal_prog())
    assert (cpu.ops_executed, cpu.stores, cpu.loads) == (5, 1, 1)
