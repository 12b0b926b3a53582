"""Collectives under fault injection: safety and termination.

NIC-resident collectives (:mod:`repro.hib.collectives`) ride the
reliable transport, so over a lossy fabric every barrier round must
still be *safe* — no member is released before every member has
arrived — and must *terminate*: either the round completes, or the
retry protocol degrades to a structured failure
(:class:`NodeUnreachableError` into the blocked program / a reported
node failure), never a silent hang.

Each seed×scenario run does several back-to-back ``all_reduce("sum")``
rounds (a barrier plus a value correctness check in one) recording
per-node arrival and release times; release times are compared against
*every* member's arrival.  ``REPRO_STRESS_ITERS=N`` multiplies the
seed range (CI soak mode).
"""

import os
from collections import defaultdict

from repro.api import Cluster, ClusterConfig
from repro.faults.injector import NodeUnreachableError
from repro.params import DEFAULT_PARAMS
from repro.sim import SimulationDeadlock

import pytest

STRESS_ITERS = max(1, int(os.environ.get("REPRO_STRESS_ITERS", "1")))
SEEDS = list(range(1, 1 + 4 * STRESS_ITERS))

N_NODES = 5
ROUNDS = 4

#: (name, fault rates, release mode).  Rates are per link traversal;
#: each round moves ~a dozen collective packets, so every seed sees a
#: handful of faults across its rounds.
SCENARIOS = [
    ("drop-tree", {"drop_rate": 0.04}, "tree"),
    ("stall-tree", {"stall_rate": 0.06}, "tree"),
    ("drop-stall-multicast",
     {"drop_rate": 0.02, "stall_rate": 0.04}, "multicast"),
]

OBSERVED = {"faults": 0}


def run_rounds(seed, rates, release):
    cluster = Cluster(ClusterConfig(
        n_nodes=N_NODES, collectives="nic", trace=False,
        faults=dict(rates, seed=seed),
    ))
    group = cluster.collective_group("g", release=release)
    arrivals = defaultdict(dict)
    releases = defaultdict(dict)
    sums = defaultdict(dict)
    degraded = []
    contexts = []
    for node in range(N_NODES):
        proc = cluster.create_process(node=node, name=f"c{node}")
        collective = group.join(proc)

        def program(p, collective=collective, node=node):
            try:
                for r in range(ROUNDS):
                    arrivals[r][node] = cluster.now
                    total = yield from collective.all_reduce("sum", node + r)
                    releases[r][node] = cluster.now
                    sums[r][node] = total
            except NodeUnreachableError:
                degraded.append(node)

        contexts.append(proc.start(program))
    deadlocked = False
    try:
        cluster.run(join=contexts)
    except SimulationDeadlock:
        deadlocked = True
    return cluster, arrivals, releases, sums, degraded, deadlocked


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,rates,release",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_collective_rounds_are_safe_and_terminate(name, rates, release, seed):
    cluster, arrivals, releases, sums, degraded, deadlocked = run_rounds(
        seed, rates, release)
    tag = f"(fault seed={seed}, scenario={name})"

    # Safety, unconditionally: any release implies every member had
    # already arrived for that round — a barrier must never open early,
    # no matter what the fault schedule did.
    for r, released in releases.items():
        if not released:
            continue
        assert len(arrivals[r]) == N_NODES, (
            f"round {r} released before every member arrived {tag}")
        assert min(released.values()) >= max(arrivals[r].values()), (
            f"round {r} released at {min(released.values())} before the "
            f"last arrival at {max(arrivals[r].values())} {tag}")
        expected = sum(range(N_NODES)) + N_NODES * r
        for node, total in sums[r].items():
            assert total == expected, (
                f"round {r} node {node} reduced {total} != {expected} {tag}")

    # Termination: either every round completed everywhere, or the
    # degradation was *structured* — a NodeUnreachableError delivered
    # into a blocked program or a reported node failure, never a
    # silent hang.
    failures = cluster.stats()["faults"]["node_failures"]
    if deadlocked:
        assert degraded or failures, (
            f"deadlock without a structured failure report {tag}")
    elif not degraded and not failures:
        for r in range(ROUNDS):
            assert len(releases[r]) == N_NODES, (
                f"round {r} never completed on a recovered fabric {tag}")
    OBSERVED["faults"] += sum(
        cluster.stats()["faults"]["injected"].values())


def test_abandoned_join_fails_the_blocked_member():
    """Node 3 alone arrives; every COLL_JOIN it sends its parent, node
    1, is dropped.  Once the retries are spent its transport declares
    node 1 dead and abandons the join, and the collective unit fails
    the blocked barrier (``HIB.abandon_packet`` ->
    ``CollectiveUnit.abandon``): a structured error, not a hang."""
    cluster = Cluster(ClusterConfig(
        n_nodes=4, collectives="nic", trace=False,
        params=DEFAULT_PARAMS.with_sizing(retry_limit=2),
        faults={"seed": 1, "drop_rate": 1.0, "sites": ["host3->sw.req"]},
    ))
    group = cluster.collective_group("g")
    proc = cluster.create_process(node=3, name="late")
    collective = group.join(proc)
    errors = []

    def body(p):
        try:
            yield from collective.barrier()
        except NodeUnreachableError as err:
            errors.append(err)

    cluster.run(join=[proc.start(body)])
    assert [(err.node, err.peer) for err in errors] == [(3, 1)]
    assert [(f.reporter, f.peer, f.lost_packets, f.unrecovered)
            for f in cluster.injector.node_failures] == [
        (3, 1, {"COLL_JOIN": 1}, 0)]


def test_zz_soak_injected_faults():
    """Runs after the matrix (name-ordered): the rates above must have
    actually injected faults into collective traffic."""
    assert OBSERVED["faults"] > 0
