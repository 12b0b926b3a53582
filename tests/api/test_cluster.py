"""Integration tests of the public API: cluster assembly, segments,
processes, op builders, both prototypes."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.params import Params


def test_cluster_builds_nodes():
    cluster = Cluster(ClusterConfig(n_nodes=3))
    assert len(cluster) == 3
    assert cluster.node(2).node_id == 2


def test_cluster_needs_a_node():
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(n_nodes=0))


def test_quickstart_write_fence_read():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="data")
    proc = cluster.create_process(node=0, name="writer")
    base = proc.map(seg)
    got = []

    def program(p):
        yield p.store(base, 42)
        yield p.fence()
        got.append((yield p.load(base)))

    ctx = cluster.start(proc, program)
    cluster.run(join=[ctx])
    assert got == [42]
    assert seg.peek(0) == 42
    cluster.assert_quiescent()


def test_run_join_honours_a_zero_limit():
    """``limit_ns=0`` is a limit, not "no limit": a program that needs
    simulated time raises at t=0 instead of running to completion."""
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="data")
    proc = cluster.create_process(node=0, name="reader")
    base = proc.map(seg)

    def program(p):
        for _ in range(100):
            yield p.load(base)

    with pytest.raises(TimeoutError):
        cluster.run(join=[cluster.start(proc, program)], limit_ns=0)
    assert cluster.now == 0


@pytest.mark.parametrize("kwargs", [
    {"limit_ns": 5}, {"limit_ns": 0}, {"drain_ns": 5}, {"drain_ns": 0},
    {"until": 5, "join": []},
], ids=["limit-without-join", "zero-limit-without-join",
        "drain-without-join", "zero-drain-without-join", "until-with-join"])
def test_run_rejects_a_bound_of_the_other_mode(kwargs):
    """``limit_ns`` and ``drain_ns`` bound a join and ``until`` a plain
    run: any of them with the other mode is a ``TypeError`` naming the
    mode, not a silent full drain."""
    cluster = Cluster(ClusterConfig(n_nodes=2))
    with pytest.raises(TypeError, match="join="):
        cluster.run(**kwargs)
    assert cluster.sim.events_executed == 0


def test_segment_names_unique():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    cluster.alloc_segment(home=0, pages=1, name="s")
    with pytest.raises(ValueError):
        cluster.alloc_segment(home=1, pages=1, name="s")
    assert cluster.segment("s").home == 0


def test_home_process_accesses_segment_locally():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=0, pages=1, name="data")
    proc = cluster.create_process(node=0, name="local")
    base = proc.map(seg)
    got = []

    def program(p):
        yield p.store(base + 8, 5)
        got.append((yield p.load(base + 8)))

    cluster.run(join=[cluster.start(proc, program)])
    assert got == [5]
    # No network traffic for home accesses.
    assert cluster.node(0).hib.stats["remote_writes"] == 0


@pytest.mark.parametrize("prototype", [1, 2])
def test_atomics_via_api_both_prototypes(prototype):
    params = Params(prototype=prototype)
    cluster = Cluster(ClusterConfig(n_nodes=2, params=params))
    seg = cluster.alloc_segment(home=1, pages=1, name="sync")
    seg.poke(0, 10)
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    got = []

    def program(p):
        got.append((yield from p.fetch_and_add(base, 5)))
        got.append((yield from p.fetch_and_store(base + 4, 7)))
        got.append((yield from p.compare_and_swap(base, 15, 99)))

    cluster.run(join=[cluster.start(proc, program)])
    assert got == [10, 0, 15]
    assert seg.peek(0) == 99
    assert seg.peek(4) == 7


@pytest.mark.parametrize("prototype", [1, 2])
def test_remote_copy_via_api_both_prototypes(prototype):
    params = Params(prototype=prototype)
    cluster = Cluster(ClusterConfig(n_nodes=2, params=params))
    src = cluster.alloc_segment(home=1, pages=1, name="src")
    dst = cluster.alloc_segment(home=0, pages=1, name="dst")
    src.poke(0x20, 1234)
    proc = cluster.create_process(node=0, name="p")
    src_base = proc.map(src)
    dst_base = proc.map(dst)

    def program(p):
        yield from p.remote_copy(src_base + 0x20, dst_base + 0x40)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    assert dst.peek(0x40) == 1234


def test_replica_mapping_with_protocol():
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol="telegraphos"))
    seg = cluster.alloc_segment(home=0, pages=1, name="shared")
    writer = cluster.create_process(node=1, name="writer")
    reader = cluster.create_process(node=2, name="reader")
    wbase = writer.map(seg, mode="replica")
    rbase = reader.map(seg, mode="replica")

    def wprog(p):
        yield p.store(wbase, 77)

    ctx = cluster.start(writer, wprog)
    cluster.run(join=[ctx])
    # The write reached the home and the other replica.
    assert seg.peek(0) == 77
    got = []

    def rprog(p):
        got.append((yield p.load(rbase)))

    cluster.run(join=[cluster.start(reader, rprog)])
    assert got == [77]
    assert not cluster.checker().subsequence_violations()


def test_replica_preloads_existing_contents():
    cluster = Cluster(ClusterConfig(n_nodes=2, protocol="telegraphos"))
    seg = cluster.alloc_segment(home=0, pages=1, name="shared")
    seg.poke(0x10, 5555)
    reader = cluster.create_process(node=1, name="reader")
    base = reader.map(seg, mode="replica")
    got = []

    def prog(p):
        got.append((yield p.load(base + 0x10)))

    cluster.run(join=[cluster.start(reader, prog)])
    assert got == [5555]


def test_multi_page_replica_is_contiguous_and_correct():
    cluster = Cluster(ClusterConfig(n_nodes=2, protocol="telegraphos"))
    page = cluster.amap.page_bytes
    seg = cluster.alloc_segment(home=0, pages=3, name="big")
    for i in range(3):
        seg.poke(i * page, 900 + i)
    reader = cluster.create_process(node=1, name="reader")
    base = reader.map(seg, mode="replica")
    got = []

    def prog(p):
        for i in range(3):
            got.append((yield p.load(base + i * page)))

    cluster.run(join=[cluster.start(reader, prog)])
    assert got == [900, 901, 902]
    # The replica occupies one consecutive backend-page run.
    placements = [
        cluster.directory.group(0, seg.gpage + i).placement[1]
        for i in range(3)
    ]
    assert placements == list(range(placements[0], placements[0] + 3))


def test_non_contiguous_resident_replica_raises_not_corrupts():
    """Regression: a pre-existing replica placement that cannot back a
    consecutive multi-page mapping must fail loudly (the old code
    silently mapped the wrong backend pages)."""
    cluster = Cluster(ClusterConfig(n_nodes=2, protocol="telegraphos"))
    seg = cluster.alloc_segment(home=0, pages=2, name="split")
    reader = cluster.create_process(node=1, name="reader")
    vm = cluster.node(1).vm
    directory = cluster.directory
    # Replicate the segment's first page, then occupy the page right
    # after it, so the second replica page cannot be adjacent.
    first = vm.alloc_backend_pages(1)
    blocker = vm.alloc_backend_pages(1)
    assert blocker == first + 1
    group = directory.create_group(0, seg.gpage)
    directory.add_replica(group, 1, first)
    with pytest.raises(RuntimeError, match="not contiguous"):
        reader.map(seg, mode="replica")
    # The failed mapping released the page it had allocated on the fly.
    assert vm.alloc_backend_pages(1) == blocker + 1


def test_bad_mapping_mode_rejected():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=0, pages=1, name="s")
    proc = cluster.create_process(node=1, name="p")
    with pytest.raises(ValueError):
        proc.map(seg, mode="bogus")


def test_multi_page_segment():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=3, name="big")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    page = cluster.amap.page_bytes

    def program(p):
        for i in range(3):
            yield p.store(base + i * page, 100 + i)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    for i in range(3):
        assert seg.peek(i * page) == 100 + i


def test_chain_topology_cluster_works():
    cluster = Cluster(ClusterConfig(n_nodes=4, topology="chain"))
    seg = cluster.alloc_segment(home=3, pages=1, name="far")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)

    def program(p):
        yield p.store(base, 1)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    assert seg.peek(0) == 1


def test_prototype2_uses_dram_backend():
    cluster = Cluster(ClusterConfig(n_nodes=2, params=Params(prototype=2)))
    from repro.hib.backend import DramBackend

    assert isinstance(cluster.node(0).backend, DramBackend)
    seg = cluster.alloc_segment(home=1, pages=1, name="d")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)

    def program(p):
        yield p.store(base, 9)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    assert seg.peek(0) == 9
