"""Tests for the VSM (software DSM) baseline."""


from repro.api import Cluster, ClusterConfig
from repro.baselines import VsmManager


def make_vsm(n_nodes=3, pages=2):
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes))
    seg = cluster.alloc_segment(home=0, pages=pages, name="vsm")
    vsm = VsmManager(cluster, seg)
    return cluster, seg, vsm


def test_first_read_faults_then_is_local():
    cluster, seg, vsm = make_vsm()
    seg.poke(0x10, 42)
    proc = cluster.create_process(node=1, name="reader")
    base = vsm.map_into(proc)
    got = []
    latencies = []

    def program(p):
        start = cluster.now
        got.append((yield p.load(base + 0x10)))
        latencies.append(cluster.now - start)
        start = cluster.now
        got.append((yield p.load(base + 0x10)))
        latencies.append(cluster.now - start)

    cluster.run(join=[cluster.start(proc, program)])
    assert got == [42, 42]
    assert vsm.read_faults == 1
    assert vsm.pages_transferred == 1
    # Second read is a local hit: orders of magnitude cheaper.
    assert latencies[1] < latencies[0] / 20


def test_write_fault_invalidates_other_readers():
    cluster, seg, vsm = make_vsm()
    seg.poke(0, 5)
    reader = cluster.create_process(node=1, name="reader")
    rbase = vsm.map_into(reader)
    writer = cluster.create_process(node=2, name="writer")
    wbase = vsm.map_into(writer)
    got = []

    def read_phase(p):
        got.append((yield p.load(rbase)))

    cluster.run(join=[cluster.start(reader, read_phase)])
    state = vsm.pages[0]
    assert 1 in state.copyset

    def write_phase(p):
        yield p.store(wbase, 9)

    cluster.run(join=[cluster.start(writer, write_phase)])
    assert vsm.write_faults == 1
    assert vsm.invalidations >= 1
    assert state.copyset == {2}
    assert state.owner == 2

    # The old reader faults again and sees the new value.
    def read_again(p):
        got.append((yield p.load(rbase)))

    cluster.run(join=[cluster.start(reader, read_again)])
    assert got == [5, 9]
    assert vsm.read_faults == 2


def test_home_node_starts_mapped_rw():
    cluster, seg, vsm = make_vsm()
    proc = cluster.create_process(node=0, name="home")
    base = vsm.map_into(proc)
    got = []

    def program(p):
        yield p.store(base, 7)
        got.append((yield p.load(base)))

    cluster.run(join=[cluster.start(proc, program)])
    assert got == [7]
    assert vsm.read_faults == 0
    assert vsm.write_faults == 0


def test_write_after_read_upgrades():
    cluster, seg, vsm = make_vsm()
    proc = cluster.create_process(node=1, name="rw")
    base = vsm.map_into(proc)

    def program(p):
        yield p.load(base)       # read fault: page arrives RO
        yield p.store(base, 3)   # write fault: upgrade to RW

    cluster.run(join=[cluster.start(proc, program)])
    assert vsm.read_faults == 1
    assert vsm.write_faults == 1
    assert vsm.pages_transferred == 1  # upgrade reuses the local copy


def test_pages_independent():
    cluster, seg, vsm = make_vsm(pages=2)
    proc = cluster.create_process(node=1, name="p")
    base = vsm.map_into(proc)
    page = cluster.amap.page_bytes

    def program(p):
        yield p.load(base)
        yield p.load(base + page)

    cluster.run(join=[cluster.start(proc, program)])
    assert vsm.read_faults == 2
    assert vsm.pages_transferred == 2


def test_vsm_fault_cost_is_hundreds_of_microseconds():
    """The §2.1 motivation: a VSM page transition costs ~1000x a
    Telegraphos remote write."""
    cluster, seg, vsm = make_vsm()
    proc = cluster.create_process(node=1, name="reader")
    base = vsm.map_into(proc)
    cost = {}

    def program(p):
        start = cluster.now
        yield p.load(base)
        cost["fault"] = cluster.now - start

    cluster.run(join=[cluster.start(proc, program)])
    assert cost["fault"] > 300_000  # > 300 µs
