"""System-level property tests: conservation and ordering invariants
that must hold for every randomly generated workload."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Channel, Cluster, ClusterConfig
from repro.params import Params


@given(
    plan=st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2]),          # issuing node
            st.sampled_from(["write", "read", "atomic"]),
            st.integers(min_value=0, max_value=15),   # word
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=15, deadline=None)
def test_property_operation_conservation(plan):
    """Every issued remote operation completes exactly once: no
    pending reply futures, no outstanding counters, no lost atomics —
    for any operation mix from any nodes."""
    cluster = Cluster(ClusterConfig(n_nodes=4, trace=False))
    seg = cluster.alloc_segment(home=3, pages=1, name="t")
    per_node = {}
    for node, kind, word in plan:
        per_node.setdefault(node, []).append((kind, word))
    expected_adds = sum(1 for _, kind, _ in plan if kind == "atomic")
    ctxs = []
    for node, ops in per_node.items():
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(seg)

        def program(p, ops=ops):
            for kind, word in ops:
                if kind == "write":
                    yield p.store(base + 4 * word, word)
                elif kind == "read":
                    yield p.load(base + 4 * word)
                else:
                    yield from p.fetch_and_add(base + 0x100, 1)
            yield p.fence()

        ctxs.append(cluster.start(proc, program))
    cluster.run(join=ctxs)
    assert seg.peek(0x100) == expected_adds
    for station in cluster.nodes:
        assert station.hib.outstanding.count == 0
        assert not station.hib._pending, "reply future leaked"
        assert len(station.hib._read_tokens) == 1


@given(
    payloads=st.lists(
        st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=10, deadline=None)
def test_property_channel_fifo_exact(payloads):
    """The message channel delivers exactly the sent payloads, in
    order, for any payload contents."""
    cluster = Cluster(ClusterConfig(n_nodes=2, trace=False))
    channel = Channel(cluster, sender_node=0, receiver_node=1, name="ch",
                      capacity=3, slot_words=8)
    sp = cluster.create_process(node=0, name="s")
    rp = cluster.create_process(node=1, name="r")
    channel.sender.bind(sp)
    channel.receiver.bind(rp)
    got = []

    def send(p):
        for payload in payloads:
            yield from channel.sender.send(payload)

    def recv(p):
        for _ in payloads:
            got.append((yield from channel.receiver.recv()))

    cluster.run(join=[cluster.start(sp, send), cluster.start(rp, recv)])
    assert got == payloads


@given(quantum_us=st.integers(min_value=3, max_value=40))
@settings(max_examples=8, deadline=None)
def test_property_atomics_survive_any_preemption_quantum(quantum_us):
    """§2.2.4's guarantee must hold for *every* preemption cadence,
    on both prototypes."""
    from repro.os.scheduler import RoundRobinScheduler

    for prototype in (1, 2):
        cluster = Cluster(ClusterConfig(
            n_nodes=2, params=Params(prototype=prototype), trace=False))
        seg = cluster.alloc_segment(home=1, pages=1, name="ctr")
        RoundRobinScheduler(
            cluster.sim, cluster.params.timing, cluster.node(0).cpu,
            quantum_ns=quantum_us * 1000,
        )
        per_proc = 4
        ctxs = []
        for tag in range(2):
            proc = cluster.create_process(node=0, name=f"p{tag}")
            base = proc.map(seg)

            def program(p, base=base):
                for _ in range(per_proc):
                    yield from p.fetch_and_add(base, 1)

            ctxs.append(cluster.start(proc, program))
        cluster.run(join=ctxs)
        assert seg.peek(0) == 2 * per_proc, f"prototype {prototype}"
