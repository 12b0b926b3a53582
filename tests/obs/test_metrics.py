"""The metrics registry: callback gauges read at snapshot time, fed
distributions, pay-for-use, exact end-to-end counts after a known op
stream, and every fault and transport count registered."""

from repro.api import Cluster, ClusterConfig
from repro.obs import MetricsRegistry


# -- series ---------------------------------------------------------------


def test_gauge_fn_evaluated_at_snapshot_time():
    reg = MetricsRegistry()
    box = {"v": 1}
    reg.gauge_fn("lazy", lambda: box["v"], node=0)
    box["v"] = 42
    assert reg.snapshot()["lazy"]["node=0"] == 42


def test_distribution_snapshots_summary_and_buckets():
    reg = MetricsRegistry()
    latency = reg.distribution("latency", node=0)
    backoff = reg.distribution("backoff", buckets=(20, 10), node=0)
    for v in (10, 20, 30):
        latency.add(v)
        backoff.add(v)
    snap = reg.snapshot()
    assert snap["latency"]["node=0"]["count"] == 3
    assert snap["latency"]["node=0"]["mean"] == 20
    assert "buckets" not in snap["latency"]["node=0"]
    # Cumulative counts per upper bound, bounds sorted, then the total.
    assert snap["backoff"]["node=0"]["buckets"] == {
        "<=10": 1, "<=20": 2, "inf": 3}


def test_empty_distribution_snapshots_to_count_zero():
    reg = MetricsRegistry()
    reg.distribution("h")
    reg.distribution("b", buckets=(5,))
    assert reg.snapshot() == {"b": {"": {"count": 0}}, "h": {"": {"count": 0}}}


def test_snapshot_sorts_names_and_keeps_registration_order():
    reg = MetricsRegistry()
    for node in (0, 1, 10, 2):
        reg.gauge_fn("z", lambda n=node: n, node=node)
    reg.distribution("a", node=0)
    snap = reg.snapshot()
    assert list(snap) == ["a", "z"]
    assert list(snap["z"]) == ["node=0", "node=1", "node=10", "node=2"]
    assert len(reg) == 5


def test_disabled_registry_is_null():
    reg = MetricsRegistry(enabled=False)
    assert reg.distribution("h", node=0) is None
    reg.gauge_fn("lazy", lambda: 1 / 0)  # never evaluated
    assert reg.snapshot() == {}
    assert len(reg) == 0


# -- end-to-end: exact counts from a known op stream ----------------------


N_STORES = 12


def _run_store_stream():
    cluster = Cluster(ClusterConfig(n_nodes=2, protocol="none"))
    seg = cluster.alloc_segment(home=1, pages=1, name="data")
    proc = cluster.create_process(node=0, name="writer")
    base = proc.map(seg)

    def program(p):
        for i in range(N_STORES):
            yield p.store(base + 4 * i, i)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    return cluster


def test_known_op_stream_produces_exact_counts():
    cluster = _run_store_stream()
    snap = cluster.stats()["metrics"]
    # N stores from node 0 to home node 1 = N write packets on the
    # issuing host's request link, N issued writes, N acks back.
    assert snap["hib.remote_writes"]["node=0"] == N_STORES
    assert snap["net.link.packets"]["link=host0->sw.req"] == N_STORES
    assert snap["hib.acks_sent"]["node=1"] == N_STORES
    assert snap["hib.acks_received"]["node=0"] == N_STORES
    assert snap["cpu.stores"]["node=0"] == N_STORES
    assert snap["cpu.fences"]["node=0"] == 1
    assert snap["hib.ops_issued"]["node=0"] == N_STORES
    assert snap["hib.outstanding"]["node=0"] == 0
    # The request-wait distribution saw exactly the N serviced packets.
    assert snap["hib.request_wait_ns"]["node=1"]["count"] == N_STORES
    # A lossless cluster has no fault or transport series.
    assert not any(name.startswith("faults.") for name in snap)
    assert "hib.retransmits" not in snap


def test_eager_update_acks_count_at_both_ends():
    # The copy that applies a counted eager update acks it through the
    # same path as a served write: acks sent and received agree.
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol="eager"))
    seg = cluster.alloc_segment(home=0, pages=1, name="data")
    proc = cluster.create_process(node=1, name="writer")
    base = proc.map(seg, mode="replica")

    def program(p):
        for i in range(4):
            yield p.store(base + 4 * i, i)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    snap = cluster.stats()["metrics"]
    assert snap["hib.acks_sent"]["node=0"] == 4
    assert snap["hib.acks_received"]["node=1"] == 4
    assert sum(snap["hib.acks_sent"].values()) == 4


def test_metrics_disabled_cluster_still_runs_and_snapshots_empty():
    cluster = Cluster(ClusterConfig(n_nodes=2, metrics=False))
    seg = cluster.alloc_segment(home=1, pages=1, name="data")
    proc = cluster.create_process(node=0, name="w")
    base = proc.map(seg)

    def program(p):
        yield p.store(base, 1)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    assert seg.peek(0) == 1
    assert cluster.stats()["metrics"] == {}
    assert len(cluster.metrics) == 0
    cluster.assert_quiescent()


# -- fault and transport counts: kept by their layers, read here ----------


FAULT_NAMES = ["faults.drops", "faults.corrupts", "faults.duplicates",
               "faults.stalls", "faults.node_failures"]
TRANSPORT_NAMES = ["hib.retransmits", "hib.timeouts", "hib.nacks_sent",
                   "hib.nacks_received", "hib.duplicates_discarded",
                   "hib.corrupt_discarded", "hib.ll_acks_dropped",
                   "hib.backoff_ns"]


def test_faulty_cluster_registers_every_fault_and_transport_count():
    n_nodes = 3
    cluster = Cluster(ClusterConfig(
        n_nodes=n_nodes, protocol="none",
        faults={"seed": 5, "drop_rate": 0.05}))
    seg = cluster.alloc_segment(home=0, pages=1, name="data")
    contexts = []
    for node in range(n_nodes):
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(seg)

        def program(p, base=base, node=node):
            for i in range(8):
                yield p.store(base + 4 * (8 * node + i), i)
            yield p.load(base + 4 * (8 * ((node + 1) % n_nodes)))
            yield p.fence()

        contexts.append(cluster.start(proc, program))
    cluster.run(join=contexts)
    snap = cluster.stats()["metrics"]
    injector = cluster.injector
    for name in FAULT_NAMES:
        assert list(snap[name]) == [""], name
    assert snap["faults.drops"][""] == injector.counts["drop"] > 0
    assert snap["faults.node_failures"][""] == len(injector.node_failures)
    nodes = [f"node={n}" for n in range(n_nodes)]
    for name in TRANSPORT_NAMES:
        assert list(snap[name]) == nodes, name
    for station in cluster.nodes:
        transport = station.hib.transport
        tag = f"node={station.node_id}"
        for key in ("retransmits", "timeouts", "nacks_received"):
            assert snap[f"hib.{key}"][tag] == sum(
                getattr(log, key) for log in transport.destinations.values())
        for key, count in transport.stats.items():
            assert snap[f"hib.{key}"][tag] == count
    assert sum(snap["hib.retransmits"].values()) > 0
    assert sum(snap["hib.backoff_ns"][tag]["count"] for tag in nodes) > 0
