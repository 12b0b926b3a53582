"""VSM integration: ping-pong sharing, and mixing VSM data with
Telegraphos synchronization (the 'integrated hardware and software
solution' of §4)."""

from repro.api import Cluster, ClusterConfig, Mutex
from repro.baselines import VsmManager
from repro.machine import Think


def test_vsm_ping_pong_ownership_migrates():
    """Two nodes alternately write the same page; ownership bounces,
    every write is preserved, and the fault counts match the
    transitions."""
    cluster = Cluster(ClusterConfig(n_nodes=3))
    seg = cluster.alloc_segment(home=0, pages=1, name="pp")
    vsm = VsmManager(cluster, seg)
    a = cluster.create_process(node=1, name="a")
    abase = vsm.map_into(a)
    b = cluster.create_process(node=2, name="b")
    bbase = vsm.map_into(b)
    rounds = 3

    def ping(p):
        for i in range(rounds):
            yield Think(2_000_000 * (2 * i))
            value = yield p.load(abase)
            yield p.store(abase, value + 1)

    def pong(p):
        for i in range(rounds):
            yield Think(2_000_000 * (2 * i + 1))
            value = yield p.load(bbase)
            yield p.store(bbase, value + 10)

    ctxs = [cluster.start(a, ping), cluster.start(b, pong)]
    cluster.run(join=ctxs)
    # 3 increments of 1 and 3 of 10 — nothing lost.
    final = vsm.views[vsm.pages[0].owner].local_page[0]
    owner = vsm.pages[0].owner
    value = cluster.node(owner).backend.peek(
        final * cluster.amap.page_bytes
    )
    assert value == 3 * 1 + 3 * 10
    # Ownership migrated back and forth.
    assert vsm.write_faults >= 4
    assert vsm.invalidations >= 3


def test_vsm_data_with_telegraphos_locks():
    """§4: 'Telegraphos builds on top of these approaches' — VSM-managed
    data protected by hardware fetch&add locks, no lost updates even
    with concurrent contenders."""
    cluster = Cluster(ClusterConfig(n_nodes=3))
    data = cluster.alloc_segment(home=0, pages=1, name="vsmdata")
    sync = cluster.alloc_segment(home=0, pages=1, name="hwlock")
    vsm = VsmManager(cluster, data)
    per_node = 3
    ctxs = []
    for node in (1, 2):
        proc = cluster.create_process(node=node, name=f"p{node}")
        dbase = vsm.map_into(proc)
        lock = Mutex(proc, proc.map(sync))

        def program(p, dbase=dbase, lock=lock):
            for _ in range(per_node):
                yield from lock.acquire()
                value = yield p.load(dbase)    # may fault: VSM fetch
                yield p.store(dbase, value + 1)  # may fault: invalidate
                yield from lock.release()

        ctxs.append(cluster.start(proc, program))
    cluster.run(join=ctxs)
    owner = vsm.pages[0].owner
    local = vsm.views[owner].local_page[0]
    value = cluster.node(owner).backend.peek(
        local * cluster.amap.page_bytes
    )
    assert value == 2 * per_node
