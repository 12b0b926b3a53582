"""Failure injection: malformed launches, protection violations, and
the recovery paths §2.2.4 prescribes ("the process will (probably) be
terminated and the HIB will be restored into a clean state")."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.hib.registers import Reg
from repro.hib.special import SpecialOpcode
from repro.machine import Load, PalSequence, Store
from repro.machine.cpu import ProtectionViolation
from repro.params import Params


def test_fault_inside_pal_launch_kills_and_resets_hib():
    """Telegraphos I: a store to an invalid address inside the PAL
    launch sequence faults; the OS kills the process and restores the
    HIB special-mode state; the next program's launch works."""
    cluster = Cluster(ClusterConfig(n_nodes=2, params=Params(prototype=1)))
    seg = cluster.alloc_segment(home=1, pages=1, name="sync")
    station = cluster.node(0)

    bad = cluster.create_process(node=0, name="bad")
    bad.map(seg)
    hib_vaddr = bad.binding.hib_vaddr
    outcome = []

    def bad_program(p):
        try:
            yield PalSequence([
                Store(hib_vaddr + Reg.SPECIAL_MODE,
                      SpecialOpcode.FETCH_AND_ADD.value),
                Store(0xBAD_0000, 1),  # unmapped: faults inside PAL
                Load(hib_vaddr + Reg.SPECIAL_RESULT),
            ])
        except ProtectionViolation:
            outcome.append("killed")

    cluster.run(join=[cluster.start(bad, bad_program)])
    assert outcome == ["killed"]
    assert station.os.programs_killed == 1
    # §2.2.4 footnote: the HIB was restored to a clean state.
    assert not station.hib.special1.armed

    # A well-behaved program on the same node now succeeds.
    good = cluster.create_process(node=0, name="good")
    base = good.map(seg)
    got = []

    def good_program(p):
        got.append((yield from p.fetch_and_add(base, 3)))

    cluster.run(join=[cluster.start(good, good_program)])
    assert got == [0]
    assert seg.peek(0) == 3


def test_forged_key_cannot_use_foreign_context():
    """Telegraphos II: process B guesses/forges keys for process A's
    context; every attempt is dropped with a protection event and A's
    context state is untouched."""
    cluster = Cluster(ClusterConfig(n_nodes=2, params=Params(prototype=2)))
    seg = cluster.alloc_segment(home=1, pages=1, name="sync")

    victim = cluster.create_process(node=0, name="victim")
    victim_base = victim.map(seg)
    attacker = cluster.create_process(node=0, name="attacker")
    attacker_base = attacker.map(seg)
    # The attacker legitimately maps the page and its shadow in its
    # OWN space — what it lacks is the victim's key.
    attacker_shadow = cluster.node(0).driver.shadow_for(
        attacker.binding, attacker_base
    )
    protections = []

    def on_protection(payload):
        protections.append(payload)
        yield 0

    cluster.node(0).interrupts.register("hib_protection", on_protection)
    victim_ctx = victim.binding.ctx_id
    wrong_key = (victim.binding.key + 1) & Reg.KEY_MASK

    def attack(p):
        # Forged key into the victim's context.
        yield Store(attacker_shadow, Reg.shadow_argument(victim_ctx, wrong_key))

    cluster.run(join=[cluster.start(attacker, attack)])
    assert len(protections) == 1
    assert cluster.node(0).hib.contexts[victim_ctx].addresses == []

    # The victim's own launches still work.
    got = []

    def victim_prog(p):
        got.append((yield from p.fetch_and_add(victim_base, 1)))

    cluster.run(join=[cluster.start(victim, victim_prog)])
    assert got == [0]


def test_driver_close_revokes_context():
    cluster = Cluster(ClusterConfig(n_nodes=2, params=Params(prototype=2)))
    proc = cluster.create_process(node=0, name="p")
    ctx_id = proc.binding.ctx_id
    cluster.node(0).driver.close(proc.binding)
    assert cluster.node(0).hib.contexts[ctx_id].key is None


def test_context_exhaustion():
    params = Params(prototype=2).with_sizing(contexts=2)
    cluster = Cluster(ClusterConfig(n_nodes=1, params=params))
    cluster.create_process(node=0, name="a")
    cluster.create_process(node=0, name="b")
    with pytest.raises(RuntimeError, match="contexts"):
        cluster.create_process(node=0, name="c")


def test_atomic_via_nonblocking_go_is_a_launch_error():
    """Atomics must return a result; triggering one with a GO *store*
    is a malformed launch and fails the program (as a driver bug
    would)."""
    cluster = Cluster(ClusterConfig(n_nodes=2, params=Params(prototype=1)))
    seg = cluster.alloc_segment(home=1, pages=1, name="sync")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    hib_vaddr = proc.binding.hib_vaddr

    def program(p):
        yield PalSequence([
            Store(hib_vaddr + Reg.SPECIAL_MODE,
                  SpecialOpcode.FETCH_AND_ADD.value),
            Store(base, 1),
            Store(hib_vaddr + Reg.SPECIAL_GO, 0),  # wrong trigger
        ])

    ctx = cluster.start(proc, program)
    with pytest.raises(RuntimeError, match="failed") as info:
        cluster.sim.run()
    from repro.hib import LaunchError

    assert info.value.__cause__ is ctx.process.exception
    assert isinstance(ctx.process.exception, LaunchError)


def test_malformed_copy_missing_address_fails_cleanly():
    cluster = Cluster(ClusterConfig(n_nodes=2, params=Params(prototype=1)))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    hib_vaddr = proc.binding.hib_vaddr

    def program(p):
        yield PalSequence([
            Store(hib_vaddr + Reg.SPECIAL_MODE,
                  SpecialOpcode.REMOTE_COPY.value),
            Store(base, 0),  # only one address supplied
            Store(hib_vaddr + Reg.SPECIAL_GO, 0),
        ])

    ctx = cluster.start(proc, program)
    with pytest.raises(RuntimeError, match="failed") as info:
        cluster.sim.run()
    from repro.hib import LaunchError

    assert info.value.__cause__ is ctx.process.exception
    assert isinstance(ctx.process.exception, LaunchError)
    # The failed launch left special mode (take_launch resets first).
    assert not cluster.node(0).hib.special1.armed


def test_special_op_argument_must_be_shared_memory():
    """A special-op argument naming private DRAM is rejected — only
    shared regions are legal targets."""
    cluster = Cluster(ClusterConfig(n_nodes=2, params=Params(prototype=1)))
    proc = cluster.create_process(node=0, name="p")
    private = proc.map_private(pages=1)
    hib_vaddr = proc.binding.hib_vaddr

    def program(p):
        yield PalSequence([
            Store(hib_vaddr + Reg.SPECIAL_MODE,
                  SpecialOpcode.FETCH_AND_ADD.value),
            Store(private, 1),  # goes to DRAM, not the HIB: the
                                # launch never sees an address
            Load(hib_vaddr + Reg.SPECIAL_RESULT),
        ])

    ctx = cluster.start(proc, program)
    with pytest.raises(RuntimeError, match="failed") as info:
        cluster.sim.run()
    # The launch errors (no address collected) — never a silent
    # wrong-memory atomic.
    from repro.hib import LaunchError

    assert info.value.__cause__ is ctx.process.exception
    assert isinstance(ctx.process.exception, LaunchError)
