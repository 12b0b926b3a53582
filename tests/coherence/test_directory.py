"""Unit tests for the sharing directory and the counter cache."""

import pytest

from repro.coherence import CounterCache, SharingDirectory
from repro.sim import Simulator


# -- PageGroup / SharingDirectory -------------------------------------------


def test_group_home_holds_its_own_page():
    directory = SharingDirectory(8192)
    group = directory.create_group(home=1, gpage=3)
    assert group.holds_copy(1)
    assert group.placement[1] == 3
    assert group.sharers == []
    assert group.copy_holders == [1]


def test_replica_placement_and_offsets():
    directory = SharingDirectory(8192)
    group = directory.create_group(home=0, gpage=2)
    directory.add_replica(group, node=1, local_page=7)
    assert group.sharers == [1]
    assert group.local_offset(1, 0x10) == 7 * 8192 + 0x10
    assert group.home_offset(0x10) == 2 * 8192 + 0x10


def test_in_page_bounds_checked():
    directory = SharingDirectory(8192)
    group = directory.create_group(0, 0)
    with pytest.raises(ValueError):
        group.local_offset(0, 8192)


def test_duplicate_group_rejected():
    directory = SharingDirectory(8192)
    directory.create_group(0, 0)
    with pytest.raises(ValueError):
        directory.create_group(0, 0)


def test_duplicate_replica_rejected():
    directory = SharingDirectory(8192)
    group = directory.create_group(0, 0)
    directory.add_replica(group, 1, 5)
    with pytest.raises(ValueError):
        directory.add_replica(group, 1, 6)


def test_local_page_collision_rejected():
    directory = SharingDirectory(8192)
    a = directory.create_group(0, 0)
    b = directory.create_group(0, 1)
    directory.add_replica(a, 1, 5)
    with pytest.raises(ValueError):
        directory.add_replica(b, 1, 5)


def test_lookup_by_local_placement():
    directory = SharingDirectory(8192)
    group = directory.create_group(0, 0)
    directory.add_replica(group, 2, 9)
    assert directory.group_at(2, 9) is group
    assert directory.group_at(0, 0) is group  # the home placement
    assert directory.group_at(2, 8) is None


def test_drop_replica():
    directory = SharingDirectory(8192)
    group = directory.create_group(0, 0)
    directory.add_replica(group, 1, 5)
    directory.drop_replica(group, 1)
    assert not group.holds_copy(1)
    assert directory.group_at(1, 5) is None
    with pytest.raises(ValueError):
        directory.drop_replica(group, 0)  # cannot drop the home copy


def test_groups_listing():
    directory = SharingDirectory(8192)
    directory.create_group(1, 0)
    directory.create_group(0, 0)
    assert [g.key for g in directory.groups()] == [(0, 0), (1, 0)]


# -- CounterCache -------------------------------------------------------------


def run_gen(sim, gen, name="g"):
    return sim.spawn(gen, name=name)


def test_cache_increment_decrement_cycle():
    sim = Simulator()
    cache = CounterCache(entries=4, rmw_ns=10)
    key = (0, 0, 0)

    def body():
        yield from cache.increment(key, sim=sim)
        yield from cache.increment(key, sim=sim)
        assert cache.value(key) == 2
        yield from cache.decrement(key)
        assert cache.value(key) == 1
        yield from cache.decrement(key)
        assert cache.value(key) == 0
        assert cache.used == 0  # entry freed at zero

    proc = run_gen(sim, body())
    sim.run()
    assert proc.done and proc.exception is None
    assert cache.increments == 2


def test_cache_underflow_detected():
    sim = Simulator()
    cache = CounterCache(entries=4, rmw_ns=10)

    def body():
        yield from cache.decrement((0, 0, 0))

    proc = run_gen(sim, body())
    with pytest.raises(RuntimeError, match="failed") as info:
        sim.run()
    assert info.value.__cause__ is proc.exception
    assert type(proc.exception) is RuntimeError


def test_cache_full_stalls_until_entry_frees():
    sim = Simulator()
    cache = CounterCache(entries=1, rmw_ns=10)
    a, b = (0, 0, 0), (0, 0, 4)
    timeline = {}

    def writer():
        yield from cache.increment(a, sim=sim)
        timeline["a"] = sim.now
        yield from cache.increment(b, sim=sim)  # stalls: cache full
        timeline["b"] = sim.now

    def reflector():
        yield 5_000
        yield from cache.decrement(a)

    run_gen(sim, writer())
    run_gen(sim, reflector())
    sim.run()
    assert timeline["b"] >= 5_000
    assert cache.stalls == 1
    assert cache.stall_ns > 0


def test_cache_resident_key_never_stalls():
    sim = Simulator()
    cache = CounterCache(entries=1, rmw_ns=10)
    key = (0, 0, 0)

    def body():
        yield from cache.increment(key, sim=sim)
        yield from cache.increment(key, sim=sim)  # same key: no stall

    run_gen(sim, body())
    sim.run()
    assert cache.stalls == 0
    assert cache.value(key) == 2


def test_unlimited_cache_never_stalls():
    sim = Simulator()
    cache = CounterCache(entries=None, rmw_ns=10)

    def body():
        for i in range(100):
            yield from cache.increment((0, 0, 4 * i), sim=sim)

    run_gen(sim, body())
    sim.run()
    assert cache.stalls == 0
    assert cache.used == 100
    assert cache.max_used == 100


def test_cache_capacity_validated():
    with pytest.raises(ValueError):
        CounterCache(entries=0, rmw_ns=10)


def test_nonzero_keys_sorted():
    sim = Simulator()
    cache = CounterCache(entries=8, rmw_ns=1)

    def body():
        yield from cache.increment((0, 0, 8), sim=sim)
        yield from cache.increment((0, 0, 0), sim=sim)

    run_gen(sim, body())
    sim.run()
    assert cache.nonzero_keys() == [(0, 0, 0), (0, 0, 8)]
