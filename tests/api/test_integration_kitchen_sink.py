"""Whole-system integration: everything at once on an 8-node mesh.

Simultaneously runs, on one cluster:

- a producer/consumer stream over update replicas,
- lock-protected counter increments from three nodes,
- a message channel,
- a remote-paging style bulk copy,
- and a scheduler timeslicing two programs on one node,

then checks every global invariant: no lost updates, coherent replicas
(subsequence + convergence), quiescent outstanding counters, drained
pending-write counters, and channel FIFO integrity.
"""

from repro.api import Channel, Cluster, ClusterConfig, Mutex
from repro.os.scheduler import RoundRobinScheduler


def test_kitchen_sink_mesh_cluster():
    cluster = Cluster(ClusterConfig(n_nodes=8, topology="mesh",
                                    protocol="telegraphos"))
    contexts = []

    # --- 1. producer/consumer over replicas (nodes 0 -> 1, 2) --------
    stream = cluster.alloc_segment(home=0, pages=1, name="stream")
    flag = cluster.alloc_segment(home=0, pages=1, name="flag")
    producer = cluster.create_process(node=0, name="producer")
    pbase = producer.map(stream)
    pflag = producer.map(flag)
    batches, words = 3, 8

    def produce(p):
        for b in range(batches):
            for w in range(words):
                yield p.store(pbase + 4 * w, (b + 1) * 100 + w)
            yield p.fence()
            yield p.store(pflag, b + 1)

    contexts.append(cluster.start(producer, produce))
    consumer_got = {1: [], 2: []}
    for node in (1, 2):
        consumer = cluster.create_process(node=node, name=f"consumer{node}")
        cbase = consumer.map(stream, mode="replica")
        cflag = consumer.map(flag)

        def consume(p, cbase=cbase, cflag=cflag, node=node):
            for b in range(batches):
                while True:
                    seen = yield p.load(cflag)
                    if seen >= b + 1:
                        break
                    yield p.think(3000)
                consumer_got[node].append((yield p.load(cbase)))

        contexts.append(cluster.start(consumer, consume))

    # --- 2. lock-protected shared counter (nodes 3, 4, 5) -------------
    sync = cluster.alloc_segment(home=3, pages=1, name="sync")
    shared = cluster.alloc_segment(home=3, pages=1, name="shared")
    per_node = 4
    for node in (3, 4, 5):
        worker = cluster.create_process(node=node, name=f"locker{node}")
        lock = Mutex(worker, worker.map(sync))
        dbase = worker.map(shared)

        def work(p, lock=lock, dbase=dbase):
            for _ in range(per_node):
                yield from lock.acquire()
                value = yield p.load(dbase)
                yield p.store(dbase, value + 1)
                yield from lock.release()

        contexts.append(cluster.start(worker, work))

    # --- 3. message channel (node 6 -> node 7) -------------------------
    channel = Channel(cluster, sender_node=6, receiver_node=7, name="ch",
                      capacity=4, slot_words=8)
    sender = cluster.create_process(node=6, name="sender")
    receiver = cluster.create_process(node=7, name="receiver")
    channel.sender.bind(sender)
    channel.receiver.bind(receiver)
    n_msgs = 8
    inbox = []

    def send(p):
        for i in range(n_msgs):
            yield from channel.sender.send([i, i * i])

    def recv(p):
        for _ in range(n_msgs):
            inbox.append((yield from channel.receiver.recv()))

    contexts.append(cluster.start(sender, send))
    contexts.append(cluster.start(receiver, recv))

    # --- 4. bulk remote copy (node 7 pulls from node 0) ---------------
    bulk_src = cluster.alloc_segment(home=0, pages=1, name="bulk")
    for i in range(16):
        bulk_src.poke(4 * i, 7000 + i)
    bulk_dst = cluster.alloc_segment(home=7, pages=1, name="bulkdst")
    pager = cluster.create_process(node=7, name="pager")
    src_base = pager.map(bulk_src)
    dst_base = pager.map(bulk_dst)

    def page_in(p):
        for i in range(16):
            yield from p.remote_copy(src_base + 4 * i, dst_base + 4 * i)
        yield p.fence()

    contexts.append(cluster.start(pager, page_in))

    # --- 5. two timesliced compute programs on node 5 -------------------
    RoundRobinScheduler(
        cluster.sim, cluster.params.timing, cluster.node(5).cpu,
        quantum_ns=50_000,
    )
    ticks = {"a": 0, "b": 0}
    for tag in ("a", "b"):
        extra = cluster.create_process(node=5, name=f"bg-{tag}")

        def spin(p, tag=tag):
            for _ in range(5):
                yield p.think(20_000)
                ticks[tag] += 1

        contexts.append(cluster.start(extra, spin))

    # --- run and verify everything --------------------------------------
    cluster.run_programs(contexts, limit_ns=10**12)

    # Producer/consumer: every consumer saw only real batch values.
    for node in (1, 2):
        assert len(consumer_got[node]) == batches
        for value in consumer_got[node]:
            assert value % 100 == 0 and value > 0
    # Locking: no lost updates.
    assert shared.peek(0) == 3 * per_node
    # Channel: FIFO and complete.
    assert inbox == [[i, i * i] for i in range(n_msgs)]
    # Bulk copy: all 16 words arrived.
    for i in range(16):
        assert bulk_dst.peek(4 * i) == 7000 + i
    # Timeslicing: both background programs finished.
    assert ticks == {"a": 5, "b": 5}
    # Global coherence invariants.
    checker = cluster.checker()
    assert not checker.subsequence_violations()
    assert not checker.divergent_words(cluster.backends(), words_per_page=8)
    cluster.assert_quiescent()
    for engine in cluster.engines.values():
        if hasattr(engine, "counters"):
            assert engine.counters.used == 0
