"""Tests for the scheduler, kernel fault path, and the §2.2.4
launch-interruption interplay."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.machine import Think
from repro.machine.cpu import ProtectionViolation
from repro.os.scheduler import RoundRobinScheduler
from repro.params import Params


def test_round_robin_interleaves_three_programs():
    cluster = Cluster(ClusterConfig(n_nodes=1))
    station = cluster.node(0)
    sched = RoundRobinScheduler(
        cluster.sim, cluster.params.timing, station.cpu, quantum_ns=100_000
    )
    order = []
    ctxs = []
    for tag in range(3):
        proc = cluster.create_process(node=0, name=f"p{tag}")

        def program(p, tag=tag):
            for _ in range(6):
                yield Think(40_000)
                order.append(tag)

        ctxs.append(cluster.start(proc, program))
    cluster.run(join=ctxs)
    sched.stop()
    # All finished, and execution actually interleaved (not p0 fully
    # before p1).
    assert sorted(order) == [0] * 6 + [1] * 6 + [2] * 6
    first_of = {tag: order.index(tag) for tag in range(3)}
    last_of = {tag: len(order) - 1 - order[::-1].index(tag) for tag in range(3)}
    assert first_of[1] < last_of[0] or first_of[2] < last_of[1]
    assert sched.switches > 0


def test_scheduler_quantum_validation():
    cluster = Cluster(ClusterConfig(n_nodes=1))
    with pytest.raises(ValueError):
        RoundRobinScheduler(
            cluster.sim, cluster.params.timing, cluster.node(0).cpu, quantum_ns=0
        )


@pytest.mark.parametrize("prototype", [1, 2])
def test_atomics_correct_under_heavy_preemption(prototype):
    """The §2.2.4 guarantee, end to end: with a preemptive scheduler
    constantly switching between two processes that launch special
    operations, every launch still executes correctly — via PAL
    (Tg I) or via per-process contexts (Tg II)."""
    cluster = Cluster(ClusterConfig(n_nodes=2,
                                    params=Params(prototype=prototype)))
    seg = cluster.alloc_segment(home=1, pages=1, name="ctr")
    station = cluster.node(0)
    RoundRobinScheduler(
        cluster.sim, cluster.params.timing, station.cpu, quantum_ns=7_000
    )
    per_proc = 8
    ctxs = []
    for tag in range(2):
        proc = cluster.create_process(node=0, name=f"p{tag}")
        base = proc.map(seg)

        def program(p, base=base):
            for _ in range(per_proc):
                yield from p.fetch_and_add(base, 1)

        ctxs.append(cluster.start(proc, program))
    cluster.run(join=ctxs)
    assert seg.peek(0) == 2 * per_proc


def test_kernel_kills_on_unserviceable_fault():
    cluster = Cluster(ClusterConfig(n_nodes=1))
    proc = cluster.create_process(node=0, name="bad")
    killed = []

    def program(p):
        try:
            yield p.load(0xDEAD_0000)
        except ProtectionViolation:
            killed.append(True)

    ctx = cluster.start(proc, program)
    cluster.run(join=[ctx])
    assert killed == [True]
    assert cluster.node(0).os.programs_killed == 1
    assert cluster.node(0).os.faults_handled == 1


def test_kernel_fixer_chain_can_retry():
    cluster = Cluster(ClusterConfig(n_nodes=1))
    station = cluster.node(0)
    proc = cluster.create_process(node=0, name="p")
    base = proc.map_private(pages=1)
    missing_vaddr = base + cluster.amap.page_bytes  # next, unmapped page
    fixed = []

    def fixer(ctx, fault):
        yield 1000
        if fault.vaddr != missing_vaddr:
            return None
        station.vm.map_private(
            proc.space,
            dram_page=8,
            vpage=fault.vaddr // cluster.amap.page_bytes,
        )
        fixed.append(fault.vaddr)
        return "retry"

    station.os.register_fixer(fixer)
    got = []

    def program(p):
        yield p.store(missing_vaddr, 7)
        got.append((yield p.load(missing_vaddr)))

    cluster.run(join=[cluster.start(proc, program)])
    assert fixed == [missing_vaddr]
    assert got == [7]
    assert cluster.node(0).os.programs_killed == 0


def test_kernel_kill_resets_hib_special_state():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    station = cluster.node(0)
    station.hib.special1.arm(1)
    proc = cluster.create_process(node=0, name="bad")

    def program(p):
        try:
            yield p.load(0xDEAD_0000)
        except ProtectionViolation:
            pass

    cluster.run(join=[cluster.start(proc, program)])
    assert not station.hib.special1.armed


def test_shared_mapping_registry():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=2, name="s")
    proc = cluster.create_process(node=0, name="p")
    vaddr = proc.map(seg)
    mappings = cluster.node(0).os.mappings_of(1, seg.gpage)
    assert len(mappings) == 1
    assert mappings[0].vpage == vaddr // cluster.amap.page_bytes
    assert cluster.node(0).os.mappings_of(1, seg.gpage + 1)
