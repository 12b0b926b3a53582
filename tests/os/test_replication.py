"""Tests for the §2.2.6 alarm-based replication policy."""


from repro.api import Cluster, ClusterConfig


def make_cluster(threshold=4):
    return Cluster(ClusterConfig(
        n_nodes=2,
        protocol="telegraphos",
        replication_threshold=threshold,
    ))


def test_hot_page_gets_replicated_and_remapped():
    cluster = make_cluster(threshold=4)
    seg = cluster.alloc_segment(home=1, pages=1, name="hot")
    seg.poke(0, 123)
    proc = cluster.create_process(node=0, name="reader")
    base = proc.map(seg)
    cluster.node(0).replication.watch(1, seg.gpage)
    values = []

    def program(p):
        for _ in range(12):
            values.append((yield p.load(base)))
            yield p.think(100_000)  # leave time for the replication IRQ

    cluster.run(join=[cluster.start(proc, program)])
    policy = cluster.node(0).replication
    assert policy.replications == 1
    assert (1, seg.gpage) in policy.replicated
    # The mapping was retargeted to the local copy.
    entry = proc.space.entry_for(base // cluster.amap.page_bytes)
    from repro.machine import Region

    assert cluster.amap.decode(entry.phys_base).region is Region.MPM
    # All reads returned the correct value throughout.
    assert values == [123] * 12


def test_reads_get_faster_after_replication():
    cluster = make_cluster(threshold=4)
    seg = cluster.alloc_segment(home=1, pages=1, name="hot")
    proc = cluster.create_process(node=0, name="reader")
    base = proc.map(seg)
    cluster.node(0).replication.watch(1, seg.gpage)
    latencies = []

    def program(p):
        for _ in range(12):
            start = cluster.now
            yield p.load(base)
            latencies.append(cluster.now - start)
            yield p.think(100_000)

    cluster.run(join=[cluster.start(proc, program)])
    # Early reads cross the network; late reads are local.
    assert latencies[-1] < latencies[0] / 2


def test_replica_stays_coherent_with_home_writes():
    """After replication, a write at the home must be reflected into
    the new replica by the coherence engine."""
    cluster = make_cluster(threshold=2)
    seg = cluster.alloc_segment(home=1, pages=1, name="hot")
    reader = cluster.create_process(node=0, name="reader")
    base = reader.map(seg)
    cluster.node(0).replication.watch(1, seg.gpage)

    def read_phase(p):
        for _ in range(6):
            yield p.load(base)
            yield p.think(100_000)

    cluster.run(join=[cluster.start(reader, read_phase)])
    assert cluster.node(0).replication.replications == 1

    writer = cluster.create_process(node=1, name="writer")
    wbase = writer.map(seg)  # home process, local accesses

    def write_phase(p):
        yield p.store(wbase + 8, 777)

    cluster.run(join=[cluster.start(writer, write_phase)])
    got = []

    def read_again(p):
        got.append((yield p.load(base + 8)))

    cluster.run(join=[cluster.start(reader, read_again, )])
    assert got == [777]


def test_alarm_below_threshold_does_not_replicate():
    cluster = make_cluster(threshold=50)
    seg = cluster.alloc_segment(home=1, pages=1, name="cold")
    proc = cluster.create_process(node=0, name="reader")
    base = proc.map(seg)
    cluster.node(0).replication.watch(1, seg.gpage)

    def program(p):
        for _ in range(5):
            yield p.load(base)

    cluster.run(join=[cluster.start(proc, program)])
    assert cluster.node(0).replication.replications == 0


def test_duplicate_alarm_is_idempotent():
    cluster = make_cluster(threshold=2)
    seg = cluster.alloc_segment(home=1, pages=1, name="hot")
    proc = cluster.create_process(node=0, name="reader")
    base = proc.map(seg)
    policy = cluster.node(0).replication
    policy.watch(1, seg.gpage)

    def program(p):
        for _ in range(8):
            yield p.load(base)
            yield p.think(100_000)

    cluster.run(join=[cluster.start(proc, program)])
    assert policy.replications == 1
