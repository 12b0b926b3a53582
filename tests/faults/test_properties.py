"""Property-based stress harness: seeds x fault rates x protocols.

Every combination runs a small multi-writer workload over a lossy
fabric and asserts the invariants that must survive *any* fault
schedule the injector can produce:

- remote-mode runs end with exactly the fault-free memory image;
- replica-mode runs satisfy the checker's subsequence property and
  converge (no divergent words);
- outstanding-operation counters drain to zero at FENCE (quiescence).

Failure messages embed the fault seed so a red run is reproducible
from the message alone.  ``REPRO_STRESS_ITERS=N`` multiplies the seed
range (CI soak mode); the default matrix is 5 seeds x 8 scenarios.

The final test is a mutation check: it breaks the retransmission path
on purpose and demands that the same harness assertions catch it — a
harness that cannot fail verifies nothing.
"""

import os

import pytest

from repro.api import Cluster, ClusterConfig
from repro.hib.reliable import ReliableTransport
from repro.sim import SimulationDeadlock

STRESS_ITERS = max(1, int(os.environ.get("REPRO_STRESS_ITERS", "1")))
SEEDS = list(range(1, 1 + 5 * STRESS_ITERS))

#: Every fault class at once, at rates a retry budget always absorbs.
COMBINED = {"drop_rate": 0.01, "corrupt_rate": 0.01,
            "duplicate_rate": 0.01, "stall_rate": 0.02}

#: (name, protocol, fault rates, contended writers, subsequence
#: checked).  Rates are per link traversal, so a run of ~100 writes
#: sees a handful of each configured fault.  Galactica only promises
#: *convergence* (the paper's §2.4 criticism is exactly that its
#: repairs violate ordering), and its conflict detection assumes both
#: updates traverse the ring "at about the same time" — an assumption
#: retransmission delays legitimately break — so it runs
#: single-producer here while the owner-serialized protocols take the
#: contended schedule.  Owner-stale copies apply only the owner's
#: reflections, so each sees a subsequence of its order; owner-local
#: applies a write before its reflection (§2.3.2 problem 2), so it
#: only converges.
SCENARIOS = [
    ("none-drop", "none",
     {"drop_rate": 0.05}, False, False),
    ("none-drop-corrupt", "none",
     {"drop_rate": 0.02, "corrupt_rate": 0.02}, False, False),
    ("telegraphos-dup-stall", "telegraphos",
     {"duplicate_rate": 0.03, "stall_rate": 0.05}, True, True),
    ("galactica-combined", "galactica", COMBINED, False, False),
    ("owner-stale-drop", "owner-stale", {"drop_rate": 0.03}, True, True),
    ("owner-stale-combined", "owner-stale", COMBINED, True, True),
    ("owner-local-drop", "owner-local", {"drop_rate": 0.03}, True, False),
    ("owner-local-combined", "owner-local", COMBINED, True, False),
]

#: Retransmissions observed across the whole matrix, so the aggregate
#: test below can prove the harness actually exercised the retry path.
OBSERVED = {"retransmits": 0, "faults": 0}

N_WRITES = 24


def run_to_completion(cluster, contexts, seed):
    """Every workload here quiesces on a lossless fabric, so a run
    that deadlocks under faults is itself a recovery-protocol failure
    — report it as one, with the seed."""
    try:
        cluster.run(join=contexts)
    except SimulationDeadlock as stuck:
        raise AssertionError(
            f"cluster never quiesced (fault seed={seed}): {stuck}"
        ) from stuck


def run_remote(protocol, faults):
    """Two writer nodes stream into disjoint words of one home segment."""
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol,
                                    faults=faults))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    contexts = []
    expected = {}
    for slot, node in enumerate((0, 2)):
        proc = cluster.create_process(node=node, name=f"w{node}")
        base = proc.map(seg, mode="remote")

        def program(p, base=base, slot=slot):
            for i in range(N_WRITES):
                yield p.store(base + 4 * (slot * N_WRITES + i),
                              (slot + 1) * 1000 + i)
            yield p.fence()

        for i in range(N_WRITES):
            expected[4 * (slot * N_WRITES + i)] = (slot + 1) * 1000 + i
        contexts.append(cluster.start(proc, program))
    run_to_completion(cluster, contexts, faults["seed"])
    return cluster, expected


def run_replica(protocol, faults, contended=True):
    """Writer nodes store distinct values into a replicated page."""
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol,
                                    faults=faults))
    seg = cluster.alloc_segment(home=0, pages=1, name="s")
    contexts = []
    writers = (1, 2) if contended else (1,)
    for node in writers:
        proc = cluster.create_process(node=node, name=f"w{node}")
        base = proc.map(seg, mode="replica")

        def program(p, base=base, node=node):
            for i in range(N_WRITES):
                # Contended words when more than one writer — every
                # value distinct, as the ABA scan requires.
                yield p.store(base + 4 * (i % 8), node * 10000 + i)
                yield p.think(300 * node)
            yield p.fence()

        contexts.append(cluster.start(proc, program))
    run_to_completion(cluster, contexts, faults["seed"])
    return cluster


def harvest(cluster):
    metrics = cluster.stats()["metrics"]
    OBSERVED["retransmits"] += sum(
        metrics.get("hib.retransmits", {}).values())
    OBSERVED["faults"] += sum(
        cluster.stats()["faults"]["injected"].values())


def check_remote(cluster, expected, seed):
    tag = f"(fault seed={seed})"
    memory = dict(cluster.nodes[1].backend.memory.written_words())
    assert memory == expected, f"final memory differs from lossless run {tag}"
    assert not cluster.stats()["faults"]["node_failures"], (
        f"low fault rates must never exhaust the retry limit {tag}")
    cluster.assert_quiescent()
    for station in cluster.nodes:
        assert station.hib.outstanding.count == 0, (
            f"node {station.node_id} outstanding ops leaked at FENCE {tag}")


def check_replica(cluster, seed, subsequence=True):
    tag = f"(fault seed={seed})"
    checker = cluster.checker()
    if subsequence:
        violations = checker.subsequence_violations()
        assert not violations, (
            f"subsequence property violated {tag}: {violations}")
    divergent = checker.divergent_words(cluster.backends(), words_per_page=8)
    assert not divergent, f"replicas diverged at quiescence {tag}: {divergent}"
    assert not cluster.stats()["faults"]["node_failures"], (
        f"low fault rates must never exhaust the retry limit {tag}")
    cluster.assert_quiescent()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,protocol,rates,contended,subsequence",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_fault_matrix(name, protocol, rates, contended, subsequence, seed):
    faults = dict(rates, seed=seed)
    if protocol == "none":
        cluster, expected = run_remote(protocol, faults)
        check_remote(cluster, expected, seed)
    else:
        cluster = run_replica(protocol, faults, contended=contended)
        check_replica(cluster, seed, subsequence=subsequence)
    harvest(cluster)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_eager_single_producer_survives_faults(seed):
    """Eager multicast only promises anything for a single producer
    (Figure 2's divergence is its concurrent-writer failure); with one
    producer it must still converge over a lossy fabric."""
    cluster = run_replica("eager", {"seed": seed, "drop_rate": 0.03},
                          contended=False)
    divergent = cluster.checker().divergent_words(
        cluster.backends(), words_per_page=8)
    assert not divergent, f"single-producer eager diverged (fault seed={seed})"
    cluster.assert_quiescent()
    harvest(cluster)


def test_zz_matrix_exercised_the_retry_path():
    """Runs after the matrix (name-ordered within the file): the rates
    above must actually have injected faults and provoked retries —
    a matrix that never loses a packet proves nothing."""
    assert OBSERVED["faults"] > 0
    assert OBSERVED["retransmits"] > 0


def test_zz_mutation_broken_retransmit_is_caught(monkeypatch):
    """Mutation check: fake a 'successful' recovery that abandons the
    window instead of resending it.  Depending on which packets were
    in the window the run either ends with a short memory image or
    never quiesces at all; either way the harness's own remote-mode
    checks must go red, with the seed in the message."""

    def broken_retransmit(self, channel, backoff):
        yield backoff
        while channel.unacked:
            self.hib.abandon_packet(channel.unacked.popleft(), channel.dst)
        channel.retransmitting = False
        waiters, channel.waiters = channel.waiters, []
        for gate in waiters:
            gate.set_result(None)
        channel.timer.cancel()

    monkeypatch.setattr(ReliableTransport, "_retransmit", broken_retransmit)
    with pytest.raises(AssertionError, match="seed=1"):
        cluster, expected = run_remote("none", {"seed": 1, "drop_rate": 0.05})
        check_remote(cluster, expected, seed=1)
