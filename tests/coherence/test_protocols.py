"""Integration tests of the coherence engines on a live 4-node rig.

The progression mirrors the paper: eager multicast diverges (Fig. 2);
owner serialization converges but has the §2.3.2 read anomalies; the
counter protocol is correct; Galactica converges but shows "1,2,1".
"""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.machine import Fence, Load, Store, Think

from tests.coherence.conftest import CoherenceRig


HOME = 0
GPAGE = 0
REPLICAS = {1: 16, 2: 17, 3: 18}


def setup_shared(crig, protocol, cache_entries=32):
    crig.attach_protocol(protocol, cache_entries=cache_entries)
    group = crig.share_page(HOME, GPAGE, REPLICAS)
    return group


def writer_space(crig, node):
    """Map the node's copy of the shared page at vpage 0."""
    space = crig.space(node)
    local_page = GPAGE if node == HOME else REPLICAS[node]
    base = crig.map_mpm(space, vpage=0, local_page=local_page)
    return space, base


def concurrent_writers(crig, writes_by_node, think_ns=0):
    """Run one program per node issuing the given (offset, value)
    stores; returns contexts."""
    ctxs = []
    for node, writes in writes_by_node.items():
        space, base = writer_space(crig, node)

        def prog(writes=writes, base=base):
            if think_ns:
                yield Think(think_ns)
            for offset, value in writes:
                yield Store(base + offset, value)

        ctxs.append(crig.run_on(node, prog(), space))
    return ctxs


# ---------------------------------------------------------------------------
# Eager multicast (Figure 2)
# ---------------------------------------------------------------------------


def test_eager_single_producer_propagates(crig):
    setup_shared(crig, "eager")
    ctxs = concurrent_writers(crig, {1: [(0x0, 42)]})
    crig.run_all(*ctxs)
    page = crig.amap.page_bytes
    assert crig.node(0).backend.peek(0) == 42
    assert crig.node(2).backend.peek(17 * page) == 42
    assert crig.node(3).backend.peek(18 * page) == 42
    assert not crig.checker().divergent_words(crig.backends(), words_per_page=4)


def test_eager_concurrent_writers_diverge(crig):
    """Figure 2: two simultaneous writers to the same word; with no
    serialization point the copies end with different values."""
    setup_shared(crig, "eager")
    ctxs = concurrent_writers(crig, {1: [(0x0, 111)], 2: [(0x0, 222)]})
    crig.run_all(*ctxs)
    divergent = crig.checker().divergent_words(crig.backends(), words_per_page=1)
    assert divergent, "eager multicast should have diverged (Figure 2)"
    # Writer 1 last applied its own 222->111? No: each writer applies
    # its own value first, then the other's arrives: they swap.
    page = crig.amap.page_bytes
    assert crig.node(1).backend.peek(16 * page) == 222
    assert crig.node(2).backend.peek(17 * page) == 111


def test_eager_violates_subsequence_property(crig):
    setup_shared(crig, "eager")
    ctxs = concurrent_writers(crig, {1: [(0x0, 111)], 2: [(0x0, 222)]})
    crig.run_all(*ctxs)
    assert crig.checker().subsequence_violations()


# ---------------------------------------------------------------------------
# Owner serialization (§2.3.1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["owner-stale", "owner-local", "telegraphos"])
def test_owner_based_protocols_converge(crig, protocol):
    setup_shared(crig, protocol)
    ctxs = concurrent_writers(
        crig, {1: [(0x0, 111)], 2: [(0x0, 222)], 3: [(0x0, 333)]}
    )
    crig.run_all(*ctxs)
    assert not crig.checker().divergent_words(crig.backends(), words_per_page=1)


def test_owner_stale_read_own_write_returns_old_value(crig):
    """§2.3.2 problem 1: without local apply, P reads M right after
    writing M=1 and gets the old value 0."""
    setup_shared(crig, "owner-stale")
    space, base = writer_space(crig, 1)
    got = []

    def prog():
        yield Store(base, 1)
        got.append((yield Load(base)))  # immediately read back

    ctx = crig.run_on(1, prog(), space)
    crig.run_all(ctx)
    assert got == [0], "stale read: the write had not been reflected yet"
    # Eventually the reflection lands and the copy is correct.
    page = crig.amap.page_bytes
    assert crig.node(1).backend.peek(16 * page) == 1


def test_telegraphos_read_own_write_returns_new_value(crig):
    setup_shared(crig, "telegraphos")
    space, base = writer_space(crig, 1)
    got = []

    def prog():
        yield Store(base, 1)
        got.append((yield Load(base)))

    ctx = crig.run_on(1, prog(), space)
    crig.run_all(ctx)
    assert got == [1]


def test_owner_local_exhibits_stale_overwrite_window(crig):
    """§2.3.2 problem 2: P writes M=2 then M=3; the reflected 2 later
    overwrites the newer 3 (visible as an A-B-A on P's copy)."""
    setup_shared(crig, "owner-local")
    ctxs = concurrent_writers(crig, {1: [(0x0, 2), (0x0, 3)]})
    crig.run_all(*ctxs)
    checker = crig.checker()
    key = (HOME, GPAGE, 0)
    seq = checker.applied_values(1, key)
    # Local 2, local 3, reflected 2 (the bug), reflected 3.
    assert seq == [2, 3, 2, 3]
    from repro.coherence.checker import contains_aba

    assert contains_aba(seq) is not None
    assert checker.subsequence_violations()


def test_counter_protocol_fixes_stale_overwrite(crig):
    """§2.3.3: same scenario, rules 2+3 ignore exactly the reflections
    of P's own pending writes — the copy never goes backwards."""
    setup_shared(crig, "telegraphos")
    ctxs = concurrent_writers(crig, {1: [(0x0, 2), (0x0, 3)]})
    crig.run_all(*ctxs)
    checker = crig.checker()
    seq = checker.applied_values(1, (HOME, GPAGE, 0))
    assert seq == [2, 3]
    from repro.coherence.checker import contains_aba

    assert contains_aba(seq) is None
    assert not checker.subsequence_violations()
    assert not checker.divergent_words(crig.backends(), words_per_page=1)


def test_counter_protocol_subsequence_property_under_contention(crig):
    """Rules 2 and 3 guarantee every node sees a subsequence of the
    owner's order, even with many concurrent writers and words."""
    setup_shared(crig, "telegraphos")
    writes = {
        1: [(0x0, 10), (0x4, 11), (0x0, 12)],
        2: [(0x0, 20), (0x4, 21)],
        3: [(0x4, 30), (0x0, 31), (0x4, 32)],
    }
    ctxs = concurrent_writers(crig, writes)
    crig.run_all(*ctxs)
    checker = crig.checker()
    assert not checker.subsequence_violations()
    assert not checker.divergent_words(crig.backends(), words_per_page=2)


def test_counter_protocol_pending_counters_drain_to_zero(crig):
    setup_shared(crig, "telegraphos")
    ctxs = concurrent_writers(crig, {1: [(0x0, 1), (0x0, 2), (0x4, 3)]})
    crig.run_all(*ctxs)
    engine = crig.engines[1]
    assert engine.counters.used == 0
    assert crig.node(1).hib.outstanding.count == 0


def test_counter_cache_of_one_entry_stalls_but_stays_correct(crig):
    """§2.3.4: a tiny cache stalls the processor on overflow; the
    protocol stays correct."""
    setup_shared(crig, "telegraphos", cache_entries=1)
    writes = {1: [(4 * i, 100 + i) for i in range(6)]}
    ctxs = concurrent_writers(crig, writes)
    crig.run_all(*ctxs)
    engine = crig.engines[1]
    assert engine.counters.stalls > 0
    checker = crig.checker()
    assert not checker.subsequence_violations()
    assert not checker.divergent_words(crig.backends(), words_per_page=6)


def test_counter_cache_32_entries_never_stalls_here(crig):
    setup_shared(crig, "telegraphos", cache_entries=32)
    writes = {1: [(4 * i, 100 + i) for i in range(6)]}
    ctxs = concurrent_writers(crig, writes)
    crig.run_all(*ctxs)
    assert crig.engines[1].counters.stalls == 0


def test_owner_write_by_owner_reflects_to_sharers(crig):
    setup_shared(crig, "telegraphos")
    ctxs = concurrent_writers(crig, {HOME: [(0x8, 77)]})
    crig.run_all(*ctxs)
    page = crig.amap.page_bytes
    for node, local_page in REPLICAS.items():
        assert crig.node(node).backend.peek(local_page * page + 0x8) == 77


def test_direct_remote_write_to_owned_page_reflects(crig):
    """A node *without* a copy writes through its remote window; the
    owner reflects the write to all sharers."""
    crig2 = CoherenceRig(n_nodes=5)
    crig2.attach_protocol("telegraphos")
    crig2.share_page(HOME, GPAGE, REPLICAS)
    space = crig2.space(4)
    base = crig2.map_remote(space, vpage=0, home=HOME, remote_page=GPAGE)

    def prog():
        yield Store(base + 0xC, 55)
        yield Fence()

    ctx = crig2.run_on(4, prog(), space)
    crig2.run_all(ctx)
    page = crig2.amap.page_bytes
    assert crig2.node(0).backend.peek(0xC) == 55
    for node, local_page in REPLICAS.items():
        assert crig2.node(node).backend.peek(local_page * page + 0xC) == 55


@pytest.mark.parametrize("protocol", [
    "eager", "owner-stale", "owner-local", "telegraphos", "galactica"])
def test_replica_holders_direct_write_reaches_every_copy(protocol):
    """A process on a replica-holding node writes the home page through
    its remote window: the home propagates the direct write to every
    copy, the writer's own included, and nothing stays outstanding."""
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol))
    seg = cluster.alloc_segment(home=0, pages=1, name="s")
    for node in (1, 2):
        cluster.create_process(node=node, name=f"r{node}").map(
            seg, mode="replica")
    writer = cluster.create_process(node=2, name="w")
    base = writer.map(seg, mode="remote")

    def program(p):
        yield p.store(base + 8, 42)
        yield p.fence()

    cluster.run(join=[writer.start(program)])
    group = cluster.directory.group(0, seg.gpage)
    page = cluster.amap.page_bytes
    copies = {node: cluster.node(node).backend.peek(local * page + 8)
              for node, local in group.placement.items()}
    assert copies == {0: 42, 1: 42, 2: 42}
    cluster.assert_quiescent()


# ---------------------------------------------------------------------------
# Galactica ring (§2.4)
# ---------------------------------------------------------------------------


def galactica_conflict(crig):
    """Writers at ring positions 1 and 3, observer at 2 (between them
    in ring order), home 0.  Near-simultaneous conflicting writes."""
    setup_shared(crig, "galactica")
    return concurrent_writers(crig, {1: [(0x0, 111)], 3: [(0x0, 333)]})


def test_galactica_converges_after_backoff(crig):
    ctxs = galactica_conflict(crig)
    crig.run_all(*ctxs)
    assert not crig.checker().divergent_words(crig.backends(), words_per_page=1)
    # The lower-priority writer (node 3) backed off; winner value 111.
    assert crig.node(0).backend.peek(0) == 111
    assert crig.engines[3].backoffs == 1
    assert crig.engines[1].backoffs == 0


def test_galactica_observer_sees_invalid_121_sequence(crig):
    """§2.4: 'it is possible that a third processor sees the sequence
    "1,2,1" which is a sequence that is not a valid program sequence
    under any memory consistency model.'"""
    ctxs = galactica_conflict(crig)
    crig.run_all(*ctxs)
    checker = crig.checker()
    observations = checker.aba_observations(observer=2)
    assert observations, "the observer should have seen winner,loser,winner"
    key, (value, between, _) = observations[0]
    assert value == 111
    assert 333 in between


def test_telegraphos_never_shows_121_in_same_scenario(crig):
    """The paper's protocol 'makes sure that both processors read "1",
    or "2", or "1,2", or "2,1" ... but no processor ever reads
    "1,2,1".'"""
    setup_shared(crig, "telegraphos")
    ctxs = concurrent_writers(crig, {1: [(0x0, 111)], 3: [(0x0, 333)]})
    crig.run_all(*ctxs)
    checker = crig.checker()
    for observer in range(4):
        assert not checker.aba_observations(observer)
    assert not checker.subsequence_violations()


def test_galactica_single_writer_simple_propagation(crig):
    setup_shared(crig, "galactica")
    ctxs = concurrent_writers(crig, {2: [(0x0, 5)]})
    crig.run_all(*ctxs)
    assert not crig.checker().divergent_words(crig.backends(), words_per_page=1)
    assert crig.node(0).backend.peek(0) == 5
