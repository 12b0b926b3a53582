"""End-to-end scenarios for the reliable HIB transport.

Each test injects a specific fault class and asserts the cluster
recovers to the exact fault-free result — or, past the retry limit,
degrades into a structured :class:`~repro.faults.NodeFailure` instead
of hanging.
"""

import dataclasses

import pytest

from repro.api import Cluster, ClusterConfig
from repro.faults import NodeUnreachableError
from repro.faults.plan import FaultDecision
from repro.network.packet import PacketKind
from repro.params import DEFAULT_PARAMS


def small_retry_params(retry_limit=2):
    """Params with a tight retry budget so dead-peer tests stay fast."""
    return dataclasses.replace(
        DEFAULT_PARAMS,
        sizing=dataclasses.replace(DEFAULT_PARAMS.sizing,
                                   retry_limit=retry_limit),
    )


def writes_and_fence(cluster, n_writes=6, node=0, home=1):
    seg = cluster.alloc_segment(home=home, pages=1, name="s")
    proc = cluster.create_process(node=node, name="w")
    base = proc.map(seg, mode="remote")

    def program(p):
        for i in range(n_writes):
            yield p.store(base + 4 * i, 100 + i)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    return tuple(cluster.nodes[home].backend.memory.written_words())


def test_dropped_rsp_packet_recovers_by_timeout():
    expected = writes_and_fence(
        Cluster(ClusterConfig(n_nodes=2, protocol="none")), n_writes=1
    )
    # Drop the first reply-plane packet back to host 0.  With a single
    # write there is no later rsp traffic to carry a cumulative ack or
    # expose a sequence gap, so recovery can only come from a
    # retransmission timer expiring.
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none",
        faults={"seed": 1, "drop_exact": [["sw->host0.rsp", 1]]},
    ))
    assert writes_and_fence(cluster, n_writes=1) == expected
    cluster.assert_quiescent()
    metrics = cluster.stats()["metrics"]
    assert sum(metrics["hib.timeouts"].values()) >= 1
    assert sum(metrics["hib.retransmits"].values()) >= 1


def test_duplicates_are_discarded_not_reapplied():
    # Atomics are the non-idempotent probe: a duplicated ATOMIC_REQ
    # applied twice would double-increment, and a duplicated
    # ATOMIC_REPLY would resolve the same future twice.
    def total_after_fadds(faults):
        cluster = Cluster(ClusterConfig(n_nodes=2, protocol="none",
                                        faults=faults))
        seg = cluster.alloc_segment(home=1, pages=1, name="s")
        proc = cluster.create_process(node=0, name="a")
        base = proc.map(seg, mode="remote")

        def program(p):
            for _ in range(5):
                yield from p.fetch_and_add(base, 1)
            yield p.fence()

        cluster.run(join=[cluster.start(proc, program)])
        cluster.assert_quiescent()
        return cluster, cluster.node(1).backend.memory.load_word(0)

    cluster, total = total_after_fadds(
        {"seed": 2, "duplicate_rate": 0.5, "sites": ["host0->sw", "sw->host0"]}
    )
    assert total == 5
    injected = cluster.stats()["faults"]["injected"]
    assert injected["duplicate"] >= 1
    # Duplicated LL control packets are outside the sequence space
    # (processing a cumulative ack twice is harmless), so only the
    # sequenced duplicates show up as discards.
    metrics = cluster.stats()["metrics"]
    dup_discards = sum(v for v in metrics["hib.duplicates_discarded"].values())
    assert dup_discards >= 1


def test_corrupted_packets_are_retransmitted():
    expected = writes_and_fence(Cluster(ClusterConfig(n_nodes=2,
                                                      protocol="none")))
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none",
        faults={"seed": 3, "corrupt_rate": 0.2, "sites": ["host0->sw.req"]},
    ))
    assert writes_and_fence(cluster) == expected
    cluster.assert_quiescent()
    stats = cluster.stats()
    assert stats["faults"]["injected"]["corrupt"] >= 1
    assert stats["metrics"]["hib.corrupt_discarded"]["node=1"] >= 1


def test_hib_hang_stalls_service_but_preserves_results():
    expected = writes_and_fence(Cluster(ClusterConfig(n_nodes=2,
                                                      protocol="none")))
    hang_ns = 400_000
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none",
        faults={"seed": 1, "hib_hangs": [[1, 0, hang_ns]]},
    ))
    assert writes_and_fence(cluster) == expected
    cluster.assert_quiescent()
    hangs = cluster.tracer.select("hib_hang", node=1)
    assert hangs, "the hang window was never observed"
    # Nothing reached node 1's memory before the hang window closed.
    first_write = cluster.tracer.select("home_write", node=1)
    assert all(e.time >= hang_ns for e in first_write)


def test_total_loss_degrades_into_node_failure():
    # Everything host 0 sends is dropped; after retry_limit windows the
    # transport declares the peer dead, unwinds the outstanding count,
    # and FENCE completes instead of hanging forever.
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1, "drop_rate": 1.0, "sites": ["host0->sw"]},
    ))
    writes_and_fence(cluster, n_writes=3)
    cluster.assert_quiescent()
    stats = cluster.stats()
    failures = stats["faults"]["node_failures"]
    assert len(failures) == 1
    failure = failures[0]
    assert failure["reporter"] == 0
    assert failure["peer"] == 1
    assert failure["retries"] == 2
    assert failure["lost_packets"] == {"WRITE_REQ": 3}
    assert failure["unrecovered"] == 0
    assert stats["faults"]["transport"][0]["dead_peers"] == [1]
    # The home memory never saw the writes — degradation, not silence.
    assert tuple(cluster.nodes[1].backend.memory.written_words()) == ()


def test_blocked_read_gets_node_unreachable_error():
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1, "drop_rate": 1.0, "sites": ["host0->sw"]},
    ))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="r")
    base = proc.map(seg, mode="remote")
    caught = {}

    def program(p):
        try:
            yield p.load(base)
        except NodeUnreachableError as err:
            caught["err"] = err

    cluster.run(join=[cluster.start(proc, program)])
    assert caught["err"].node == 0
    assert caught["err"].peer == 1
    cluster.assert_quiescent()


def test_sends_to_a_dead_peer_are_abandoned_immediately():
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none", params=small_retry_params(retry_limit=1),
        faults={"seed": 1, "drop_rate": 1.0, "sites": ["host0->sw"]},
    ))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="w")
    base = proc.map(seg, mode="remote")

    def program(p):
        yield p.store(base, 1)
        yield p.fence()          # resolves via the NodeFailure unwind
        yield p.store(base, 2)   # peer already dead: abandoned inline
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    cluster.assert_quiescent()
    assert len(cluster.stats()["faults"]["node_failures"]) == 1


def test_failed_read_does_not_block_reads_of_other_nodes():
    # Every packet to host 1 is lost, so node 0's load from node 1 fails
    # once node 1 is declared dead.  The program catches that and loads
    # a word homed at node 2, which must still complete: a failed read
    # holds nothing that a later read needs.
    cluster = Cluster(ClusterConfig(
        n_nodes=3, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1, "drop_rate": 1.0, "sites": ["sw->host1"]},
    ))
    dead = cluster.alloc_segment(home=1, pages=1, name="dead")
    live = cluster.alloc_segment(home=2, pages=1, name="live")
    live.poke(0, 42)
    proc = cluster.create_process(node=0, name="r")
    dead_base = proc.map(dead, mode="remote")
    live_base = proc.map(live, mode="remote")
    got = {}

    def program(p):
        try:
            yield p.load(dead_base)
        except NodeUnreachableError as err:
            got["peer"] = err.peer
        got["value"] = yield p.load(live_base)

    cluster.run(join=[cluster.start(proc, program)])
    assert got == {"peer": 1, "value": 42}
    cluster.assert_quiescent()


def _scripted_faults(cluster, decide):
    """Replace the cluster's seeded fault plan with ``decide(packet)``,
    which returns a :class:`~repro.faults.plan.FaultDecision`."""
    cluster.injector.action_for = lambda site, packet: decide(packet)


def test_acked_write_is_not_counted_again_when_its_peer_dies():
    # Node 1 serves the write and its WRITE_ACK completes it at node 0,
    # but every link-level LL_ACK from node 1 is lost: the WRITE_REQ
    # stays in node 0's retransmit window until node 1 is declared
    # dead.  Abandoning it must not count its completion a second time.
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1}))

    def decide(packet):
        if packet.kind is PacketKind.LL_ACK and packet.src == 1:
            return FaultDecision("drop")
        return FaultDecision()

    _scripted_faults(cluster, decide)
    assert writes_and_fence(cluster, n_writes=1) == ((0, 100),)
    cluster.assert_quiescent()
    failures = cluster.stats()["faults"]["node_failures"]
    assert [(f["reporter"], f["peer"]) for f in failures] == [(0, 1)]
    assert failures[0]["lost_packets"] == {"WRITE_REQ": 1}
    assert failures[0]["unrecovered"] == 0


def test_abandoned_write_ignores_its_late_write_ack():
    # The mirror order: node 1 is declared dead first, which completes
    # the write at node 0; its WRITE_ACK, stalled past the retry
    # budget, arrives afterwards and must not be counted again.
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1}))
    stalled = []

    def decide(packet):
        if packet.kind is PacketKind.LL_ACK and packet.src == 1:
            return FaultDecision("drop")
        if packet.kind is PacketKind.WRITE_ACK and not stalled:
            stalled.append(packet)
            return FaultDecision("stall", 2_000_000)
        return FaultDecision()

    _scripted_faults(cluster, decide)
    assert writes_and_fence(cluster, n_writes=1) == ((0, 100),)
    cluster.assert_quiescent()
    assert cluster.nodes[0].hib.stats["acks_received"] == 1
    # Node 1 gives up on node 0 as well: nothing acknowledges its
    # WRITE_ACK while that is stalled.
    failures = {(f["reporter"], f["peer"]): f["at_ns"]
                for f in cluster.stats()["faults"]["node_failures"]}
    assert failures.keys() == {(0, 1), (1, 0)}
    assert failures[0, 1] < 2_000_000 < cluster.now


def test_abandoned_write_ack_leaves_the_homes_own_read_pending():
    # Node 1 is home to node 0's write and itself reads from node 2.
    # Each is its node's first op, so the WRITE_ACK node 1 sends back
    # carries the same op id as node 1's own read.  Every LL_ACK from
    # node 0 is lost, so node 1 declares node 0 dead while its read is
    # in flight (the READ_REPLY is stalled).  Abandoning the WRITE_ACK
    # must leave the read alone: it completes with node 2's value.
    cluster = Cluster(ClusterConfig(
        n_nodes=3, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1}))
    op_ids = {}

    def decide(packet):
        if packet.kind in (PacketKind.WRITE_REQ, PacketKind.READ_REQ):
            op_ids[packet.kind] = packet.op_id
        if packet.kind is PacketKind.LL_ACK and packet.src == 0:
            return FaultDecision("drop")
        if packet.kind is PacketKind.READ_REPLY:
            return FaultDecision("stall", 50_000)
        return FaultDecision()

    _scripted_faults(cluster, decide)
    home_seg = cluster.alloc_segment(home=1, pages=1, name="h")
    far_seg = cluster.alloc_segment(home=2, pages=1, name="f")
    far_seg.poke(0, 42)
    writer = cluster.create_process(node=0, name="w")
    reader = cluster.create_process(node=1, name="r")
    home = writer.map(home_seg, mode="remote")
    far = reader.map(far_seg, mode="remote")
    read = {}

    def write(p):
        yield p.store(home, 7)
        yield p.fence()

    def read_late(p):
        yield p.think(400_000)
        read["issued"] = cluster.now
        read["value"] = yield p.load(far)
        read["done"] = cluster.now

    cluster.run(join=[cluster.start(writer, write),
                      cluster.start(reader, read_late)])
    assert op_ids[PacketKind.WRITE_REQ] == op_ids[PacketKind.READ_REQ]
    failures = cluster.stats()["faults"]["node_failures"]
    assert [(f["reporter"], f["peer"]) for f in failures] == [(1, 0)]
    assert read["issued"] < failures[0]["at_ns"] < read["done"]
    assert read["value"] == 42
    # The WRITE_ACK's completion lives at node 0: it is reported lost.
    assert failures[0]["lost_packets"] == {"WRITE_ACK": 1}
    assert failures[0]["unrecovered"] == 1
    cluster.assert_quiescent()


def _one_request(cluster, op):
    """Node 0 runs one ``op`` ("read" or "atomic") on a word homed at
    node 1, then FENCE; returns the NodeUnreachableError the program
    caught, or ``None``."""
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg, mode="remote")
    caught = {}

    def program(p):
        try:
            if op == "read":
                yield p.load(base)
            else:
                yield from p.fetch_and_add(base, 1)
        except NodeUnreachableError as err:
            caught["err"] = err
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    return caught.get("err")


def test_late_reply_to_an_abandoned_read_is_dropped():
    # Node 1 answers the read, but every LL_ACK it sends is lost and
    # the READ_REPLY is stalled past node 0's retry budget: node 0
    # declares node 1 dead and fails the load first.  The reply that
    # arrives afterwards finishes nothing, and must not crash node 0.
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1}))
    stalled = []

    def decide(packet):
        if packet.kind is PacketKind.LL_ACK and packet.src == 1:
            return FaultDecision("drop")
        if packet.kind is PacketKind.READ_REPLY and not stalled:
            stalled.append(packet)
            return FaultDecision("stall", 1_000_000)
        return FaultDecision()

    _scripted_faults(cluster, decide)
    err = _one_request(cluster, "read")
    assert (err.node, err.peer) == (0, 1)
    failures = {(f["reporter"], f["peer"]): f["at_ns"]
                for f in cluster.stats()["faults"]["node_failures"]}
    assert failures[0, 1] < 1_000_000 < cluster.now
    # The late reply was served, and finished nothing.
    assert cluster.nodes[0].hib.stats["packets_served"] == 1
    cluster.assert_quiescent()


@pytest.mark.parametrize("op", ["read", "atomic"])
def test_answered_request_is_recovered_when_its_peer_dies(op):
    # The request is answered and its reply completes it, but every
    # LL_ACK from node 1 is lost, so the request stays in node 0's
    # window until node 1 is declared dead.  The op was finished by its
    # reply: abandoning the request loses nothing.
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol="none", params=small_retry_params(retry_limit=2),
        faults={"seed": 1}))

    def decide(packet):
        if packet.kind is PacketKind.LL_ACK and packet.src == 1:
            return FaultDecision("drop")
        return FaultDecision()

    _scripted_faults(cluster, decide)
    assert _one_request(cluster, op) is None
    failures = cluster.stats()["faults"]["node_failures"]
    assert [(f["reporter"], f["peer"]) for f in failures] == [(0, 1)]
    kind = "READ_REQ" if op == "read" else "ATOMIC_REQ"
    assert failures[0]["lost_packets"] == {kind: 1}
    assert failures[0]["unrecovered"] == 0
    cluster.assert_quiescent()


@pytest.mark.parametrize("protocol", ["telegraphos", "owner-local",
                                      "owner-stale", "eager", "galactica"])
def test_own_update_abandoned_with_its_owner_releases_fence(protocol):
    # Node 1 stores through its replica of a page homed at node 0, and
    # everything node 0 sends is lost: the update's completion (its
    # reflection, ack or returning ring update) never comes back, and
    # node 1 declares node 0 dead.  Abandoning its own update must
    # finish the op, so FENCE returns.
    cluster = Cluster(ClusterConfig(
        n_nodes=2, protocol=protocol, params=small_retry_params(retry_limit=2),
        faults={"seed": 1, "drop_rate": 1.0, "sites": ["host0->sw"]}))
    seg = cluster.alloc_segment(home=0, pages=1, name="s")
    proc = cluster.create_process(node=1, name="w")
    base = proc.map(seg, mode="replica")

    def program(p):
        yield p.store(base, 5)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    failures = [f for f in cluster.stats()["faults"]["node_failures"]
                if f["reporter"] == 1]
    assert [f["peer"] for f in failures] == [0]
    assert failures[0]["unrecovered"] == 0
    assert cluster.nodes[1].hib.outstanding.count == 0
