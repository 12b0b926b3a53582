"""Unit tests for memory, cache, and bus models."""

import pytest

from repro.machine import Bus, DirectMappedCache, WordMemory
from repro.sim import Simulator


# -- WordMemory ----------------------------------------------------------


def test_memory_default_zero():
    mem = WordMemory(1024)
    assert mem.load_word(0) == 0
    assert mem.load_word(1020) == 0


def test_memory_store_load():
    mem = WordMemory(1024)
    mem.store_word(8, 0xDEAD)
    assert mem.load_word(8) == 0xDEAD


def test_memory_masks_to_32_bits():
    mem = WordMemory(64)
    mem.store_word(0, 0x1_0000_0001)
    assert mem.load_word(0) == 1


def test_memory_unaligned_rejected():
    mem = WordMemory(64)
    with pytest.raises(ValueError, match="unaligned"):
        mem.load_word(2)
    with pytest.raises(ValueError):
        mem.store_word(5, 1)


def test_memory_bounds_checked():
    mem = WordMemory(64)
    with pytest.raises(ValueError):
        mem.load_word(64)
    with pytest.raises(ValueError):
        mem.store_word(-4, 0)


def test_memory_bad_size():
    with pytest.raises(ValueError):
        WordMemory(0)
    with pytest.raises(ValueError):
        WordMemory(10)  # not a word multiple


def test_memory_written_words_sorted():
    mem = WordMemory(256)
    mem.store_word(8, 2)
    mem.store_word(0, 1)
    assert list(mem.written_words()) == [(0, 1), (8, 2)]


# -- DirectMappedCache ---------------------------------------------------


def test_cache_miss_then_hit():
    cache = DirectMappedCache(n_lines=4)
    assert not cache.lookup(0)
    assert cache.lookup(0)
    assert cache.hits == 1
    assert cache.misses == 1


def test_cache_conflict_eviction():
    cache = DirectMappedCache(n_lines=4)
    cache.lookup(0)          # word 0 -> line 0
    cache.lookup(4 * 4)      # word 4 -> line 0, evicts
    assert not cache.lookup(0)


def test_cache_write_allocate():
    cache = DirectMappedCache(n_lines=4)
    assert not cache.touch_write(0)
    assert cache.lookup(0)


def test_cache_invalidate_all():
    cache = DirectMappedCache(n_lines=4)
    cache.lookup(0)
    cache.invalidate_all()
    assert not cache.lookup(0)


def test_cache_power_of_two_required():
    with pytest.raises(ValueError):
        DirectMappedCache(n_lines=3)


def test_cache_hit_rate():
    cache = DirectMappedCache(n_lines=4)
    cache.lookup(0)
    cache.lookup(0)
    cache.lookup(0)
    assert cache.hit_rate == pytest.approx(2 / 3)
    assert DirectMappedCache(4).hit_rate == 0.0


# -- Bus -----------------------------------------------------------------


def test_bus_transact_charges_arb_and_occupancy():
    sim = Simulator()
    bus = Bus(sim, "mb", arb_ns=40)
    done = []

    def master():
        yield from bus.transact(100)
        done.append(sim.now)

    sim.spawn(master())
    sim.run()
    assert done == [140]
    assert bus.transactions == 1
    assert bus.busy_ns == 100


def test_bus_serialises_masters_fifo():
    sim = Simulator()
    bus = Bus(sim, "mb", arb_ns=10)
    done = []

    def master(tag):
        yield from bus.transact(100)
        done.append((tag, sim.now))

    sim.spawn(master("a"))
    sim.spawn(master("b"))
    sim.run()
    assert done == [("a", 110), ("b", 220)]


def test_bus_release_without_owner():
    sim = Simulator()
    bus = Bus(sim, "mb", arb_ns=10)
    with pytest.raises(RuntimeError):
        bus.release()


def test_bus_queue_depth_and_idle():
    sim = Simulator()
    bus = Bus(sim, "mb", arb_ns=10)
    assert bus.idle
    bus.acquire("x")
    assert not bus.idle
    bus.acquire("y")
    assert bus.queue_depth == 1
    bus.release()
    assert bus.queue_depth == 0


def test_bus_explicit_acquire_release_cycle():
    sim = Simulator()
    bus = Bus(sim, "mb", arb_ns=5)
    order = []

    def holder():
        yield bus.acquire("h")
        order.append(("h", sim.now))
        yield 50
        bus.release()

    def waiter():
        yield 1
        yield bus.acquire("w")
        order.append(("w", sim.now))
        bus.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert order == [("h", 5), ("w", 60)]
