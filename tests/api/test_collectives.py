"""The unified collectives surface: both backends agree on semantics
(barrier ordering, reductions, broadcast, fetch&add permutations), the
NIC backend's two release modes work, and the group lifecycle is
policed."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.hib import LaunchError

N = 4


def make_cluster(backend, **kw):
    return Cluster(ClusterConfig(n_nodes=N, collectives=backend,
                                 trace=False, **kw))


def run_all(cluster, group, body):
    """Start ``body(proc, collective, rank)`` on every member, run to
    completion."""
    contexts = []
    for rank, node in enumerate(group.members):
        proc = cluster.create_process(node=node, name=f"m{rank}")
        collective = group.join(proc)
        contexts.append(proc.start(
            lambda p, c=collective, r=rank: body(p, c, r)))
    cluster.run(join=contexts)


# -- backend-independent semantics ----------------------------------------


@pytest.mark.parametrize("backend", ["host", "nic"])
def test_barrier_releases_nobody_early(backend):
    cluster = make_cluster(backend)
    group = cluster.collective_group("g")
    arrivals, released = [], []

    def body(p, c, rank):
        yield p.think(rank * 40_000)  # stagger arrivals
        arrivals.append(cluster.now)
        yield from c.barrier()
        released.append(cluster.now)

    run_all(cluster, group, body)
    assert len(released) == N
    assert min(released) >= max(arrivals)


@pytest.mark.parametrize("backend", ["host", "nic"])
def test_barrier_is_reusable_across_rounds(backend):
    cluster = make_cluster(backend)
    group = cluster.collective_group("g")
    phases = {rank: [] for rank in range(N)}

    def body(p, c, rank):
        for phase in range(3):
            yield p.think((rank + 1) * 7_000)
            yield from c.barrier()
            phases[rank].append(phase)

    run_all(cluster, group, body)
    assert all(seen == [0, 1, 2] for seen in phases.values())


@pytest.mark.parametrize("backend", ["host", "nic"])
@pytest.mark.parametrize("op,expected", [
    ("sum", sum(7 * r - 3 for r in range(N))),
    ("min", min(7 * r - 3 for r in range(N))),
    ("max", max(7 * r - 3 for r in range(N))),
])
def test_all_reduce_agrees_everywhere(backend, op, expected):
    cluster = make_cluster(backend)
    group = cluster.collective_group("g")
    results = {}

    def body(p, c, rank):
        results[rank] = yield from c.all_reduce(op, 7 * rank - 3)

    run_all(cluster, group, body)
    assert results == {rank: expected for rank in range(N)}


@pytest.mark.parametrize("backend", ["host", "nic"])
def test_all_reduce_rejects_unknown_op(backend):
    cluster = make_cluster(backend)
    group = cluster.collective_group("g")
    proc = cluster.create_process(node=group.members[0], name="p")
    collective = group.join(proc)
    with pytest.raises(ValueError, match="xor"):
        next(collective.all_reduce("xor", 1))


@pytest.mark.parametrize("backend", ["host", "nic"])
def test_broadcast_delivers_the_root_value(backend):
    cluster = make_cluster(backend)
    group = cluster.collective_group("g")
    results = {}

    def body(p, c, rank):
        value = 909 if rank == 2 else None
        results[rank] = yield from c.broadcast(value, root=2)

    run_all(cluster, group, body)
    assert results == {rank: 909 for rank in range(N)}


@pytest.mark.parametrize("backend", ["host", "nic"])
def test_fetch_add_yields_a_permutation(backend):
    cluster = make_cluster(backend)
    group = cluster.collective_group("g")
    seg = cluster.alloc_segment(home=0, pages=1, name="hot")
    per_member = 3
    fetched = []

    def body(p, c, rank):
        vaddr = p.map(seg)
        for _ in range(per_member):
            fetched.append((yield from c.fetch_add(vaddr)))

    run_all(cluster, group, body)
    total = N * per_member
    assert sorted(fetched) == list(range(total))
    assert seg.peek(0) == total


@pytest.mark.parametrize("backend", ["host", "nic"])
def test_single_member_group_is_trivial(backend):
    cluster = make_cluster(backend)
    group = cluster.collective_group("solo", nodes=[1])
    results = []

    def body(p, c, rank):
        yield from c.barrier()
        results.append((yield from c.all_reduce("sum", 5)))
        results.append((yield from c.broadcast(6, root=0)))

    run_all(cluster, group, body)
    assert results == [5, 6]


def test_subset_group_ranks_follow_member_order():
    cluster = make_cluster("nic")
    group = cluster.collective_group("pair", nodes=[3, 1])
    proc = cluster.create_process(node=1, name="p")
    collective = group.join(proc)
    assert collective.rank == 1
    assert collective.n_parties == 2


@pytest.mark.parametrize("backend", ["host", "nic"])
def test_fetch_add_at_a_local_home_updates_the_replicas(backend):
    """Members 0-2 fetch-and-add a word homed at node 0, which is also
    the NIC tree's root, while node 3 holds a replica: every home
    atomic, a combined one included, reaches the replica."""
    cluster = make_cluster(backend, protocol="telegraphos")
    group = cluster.collective_group("g", nodes=[0, 1, 2])
    seg = cluster.alloc_segment(home=0, pages=1, name="hot")
    cluster.create_process(node=3, name="r").map(seg, mode="replica")

    def body(p, c, rank):
        vaddr = p.map(seg)
        for _ in range(3):
            yield from c.fetch_add(vaddr)

    run_all(cluster, group, body)
    replica = cluster.directory.group(0, seg.gpage).placement[3]
    page = cluster.amap.page_bytes
    assert seg.peek(0) == 9
    assert cluster.node(3).backend.peek(replica * page) == 9


# -- NIC backend specifics ------------------------------------------------


@pytest.mark.parametrize("release", ["tree", "multicast"])
def test_nic_release_modes_both_complete(release):
    cluster = make_cluster("nic")
    group = cluster.collective_group("g", release=release, radix=3)
    results = {}

    def body(p, c, rank):
        results[rank] = yield from c.all_reduce("sum", rank)

    run_all(cluster, group, body)
    assert results == {rank: sum(range(N)) for rank in range(N)}
    root_stats = cluster.node(group.members[0]).hib.coll.stats
    assert root_stats["rounds"] == 1
    if release == "multicast":
        # The root fanned the release out of its multicast directory
        # in one shot: all N-1 others at once.
        assert root_stats["release_fanout_max"] == N - 1


def test_nic_combining_merges_concurrent_fetch_adds():
    cluster = make_cluster("nic")
    group = cluster.collective_group("g", radix=4, combine_window_ns=1600)
    seg = cluster.alloc_segment(home=0, pages=1, name="hot")
    fetched = []

    def body(p, c, rank):
        vaddr = p.map(seg)
        for _ in range(4):
            fetched.append((yield from c.fetch_add(vaddr)))

    run_all(cluster, group, body)
    assert sorted(fetched) == list(range(4 * N))
    combined = sum(
        cluster.node(n).hib.coll.stats["combine_hits"] for n in range(N))
    assert combined > 0


def test_nic_fetch_add_on_private_memory_fails_in_the_hib():
    """Only the HIB decodes which physical regions are shared memory;
    a combining fetch-and-add on a private page fails its program."""
    cluster = make_cluster("nic")
    group = cluster.collective_group("g", nodes=[0])
    proc = cluster.create_process(node=0, name="p")
    collective = group.join(proc)
    vaddr = proc.map_private()

    def body(p):
        yield from collective.fetch_add(vaddr)

    ctx = proc.start(body)
    with pytest.raises(RuntimeError, match="failed") as info:
        cluster.sim.run()
    assert info.value.__cause__ is ctx.process.exception
    assert isinstance(ctx.process.exception, LaunchError)
    assert "not shared memory" in str(ctx.process.exception)


def test_nic_group_close_unregisters_and_unmaps():
    cluster = make_cluster("nic")
    group = cluster.collective_group("g", release="multicast")
    root = cluster.node(group.members[0])
    assert root.hib.multicast.entries_used == N - 1
    group.close()
    assert root.hib.multicast.entries_used == 0
    proc = cluster.create_process(node=0, name="late")
    with pytest.raises(RuntimeError, match="closed"):
        group.join(proc)
    group.close()  # idempotent


# -- group lifecycle policing ---------------------------------------------


def test_duplicate_group_name_rejected():
    cluster = make_cluster("host")
    cluster.collective_group("g")
    with pytest.raises(ValueError, match="already exists"):
        cluster.collective_group("g")


def test_non_member_join_rejected():
    cluster = make_cluster("host")
    group = cluster.collective_group("g", nodes=[0, 1])
    outsider = cluster.create_process(node=2, name="o")
    with pytest.raises(ValueError, match="not a member"):
        group.join(outsider)


def test_bogus_backend_and_member_lists_rejected():
    with pytest.raises(ValueError, match="backend"):
        make_cluster("fpga")
    cluster = make_cluster("host")
    with pytest.raises(ValueError, match="distinct"):
        cluster.collective_group("h", nodes=[0, 0, 1])
    with pytest.raises(ValueError, match="at least one"):
        cluster.collective_group("i", nodes=[])


@pytest.mark.parametrize("backend", ["host", "nic"])
@pytest.mark.parametrize("options,match", [
    ({"release": "bogus"}, "release mode"),
    ({"radix": 0}, "radix"),
    ({"combine_window_ns": -5}, "window"),
    ({"release": "multicast", "radix": 0}, "radix"),
])
def test_group_options_rejected_before_any_allocation(backend, options,
                                                      match):
    cluster = make_cluster(backend)
    root = cluster.node(0)
    with pytest.raises(ValueError, match=match):
        cluster.collective_group("g", **options)
    # Nothing was allocated: no multicast entry, no shared page, no gid.
    assert root.hib.multicast.entries_used == 0
    assert cluster.alloc_segment(home=0, pages=1, name="probe").gpage == 0
    group = cluster.collective_group("g")
    assert group.gid == (1 if backend == "nic" else None)


def test_backend_defaults_to_config_and_overrides():
    default = Cluster(ClusterConfig(n_nodes=N, trace=False))
    assert default.collective_group("a").backend == "host"
    assert make_cluster("nic").collective_group("b").backend == "nic"


# -- hib.coll.* metrics ----------------------------------------------------


def test_collective_metrics_registered():
    cluster = make_cluster("nic", metrics=True)
    group = cluster.collective_group("g")

    def body(p, c, rank):
        yield from c.barrier()

    run_all(cluster, group, body)
    metrics = cluster.stats()["metrics"]
    assert metrics["hib.coll.rounds"]["node=0"] == 1
    assert sum(metrics["hib.coll.joins_sent"].values()) == N - 1
