"""Builds and runs make no cyclic garbage, and the collector's state
comes back.

``Cluster.__init__`` and both kernels' ``run`` and ``run_until_done``
pause CPython's cyclic garbage collector (``repro.sim.collector_paused``).
That is safe only while a build and a run leave nothing for the
collector to find: with the cluster alive after its run,
``gc.collect()`` must return 0, and a dropped cluster, one cycle graph,
must go at the next collection.  The matrix runs ``run_cluster``'s
program from the link harness on star, chain and both torus routings,
faults off, at 3% and at 8%, with tracing, lanes and metrics on; the
protocols and kernels rotate over it so that every fabric and every
fault rate meets every protocol.  Two replica holders write the
protocols' shared page.  Chain seed 3 at 8% ends in
``SimulationDeadlock`` (ROADMAP, "A dead reply channel strands the
requester").
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Cluster, ClusterConfig
from repro.sim import Future, SimulationDeadlock, Simulator
from tests.kernels import KERNELS, build_cluster

FABRICS = {
    "star": {"topology": "star"},
    "chain": {"topology": "chain"},
    "dor": {"topology": "torus", "routing": "dor"},
    "adaptive": {"topology": "torus", "routing": "adaptive"},
}
FAULT_RATES = {"lossless": 0.0, "faults3": 0.03, "faults8": 0.08}
PROTOCOLS = ("none", "telegraphos", "galactica")
N_NODES = 6

CASES = [
    pytest.param(fabric, rate, PROTOCOLS[(i + j + k) % 3], kernel, 0,
                 id=f"{fabric}-{faults}-{kernel}")
    for i, fabric in enumerate(FABRICS)
    for j, (faults, rate) in enumerate(FAULT_RATES.items())
    for k, kernel in enumerate(KERNELS)
]


def build_and_run(fabric: str, rate: float, protocol: str, kernel: str,
                  seed: int):
    """Build a cluster, run ``run_cluster``'s program on it and return
    the cluster and how the run ended (``"done"`` or ``"deadlock"``)."""
    config = dict(n_nodes=N_NODES, protocol=protocol, trace=True,
                  trace_lanes=True, metrics=True, **FABRICS[fabric])
    if rate:
        config["faults"] = {
            "seed": seed, "drop_rate": rate, "corrupt_rate": rate,
            "duplicate_rate": rate, "stall_rate": rate, "stall_ns": 700}
    cluster = build_cluster(ClusterConfig(**config), kernel)
    assert gc.isenabled(), "the build left the collector disabled"
    segments = [cluster.alloc_segment(home=home, pages=1, name=f"s{home}")
                for home in range(N_NODES)]
    shared = cluster.alloc_segment(home=0, pages=1, name="shared")
    contexts = []
    for node in range(N_NODES):
        proc = cluster.create_process(node=node, name=f"p{node}")
        bases = [proc.map(segment) for segment in segments]
        replica = proc.map(shared, mode="replica") if node in (1, 2) else None

        def program(p, node=node, bases=bases, replica=replica):
            for i in range(8):
                home = (node + 1 + i * (seed + 1) % (N_NODES - 1)) % N_NODES
                yield p.store(bases[home] + 4 * (node * 8 + i), node * 100 + i)
                if i % 3 == 2:
                    yield p.load(bases[(node + 2) % N_NODES] + 4 * i)
                if i % 4 == 3:
                    yield from p.fetch_and_add(bases[0] + 0x800, 1)
            if replica is not None:
                yield p.store(replica + 4 * node, node)
            yield p.fence()

        contexts.append(cluster.start(proc, program))
    try:
        cluster.run(join=contexts)
    except SimulationDeadlock:
        outcome = "deadlock"
    else:
        outcome = "done"
    assert gc.isenabled(), "the run left the collector disabled"
    return cluster, outcome


def check_no_cyclic_garbage(*case) -> str:
    """Run ``build_and_run(*case)`` with the collector enabled and check
    that it made no cyclic garbage and that the dropped cluster goes at
    the next collection; returns how the run ended.

    A young pass may run as soon as the collector comes back, so every
    pass from the build to the check is counted, not only the last.
    The heap from before the build is frozen meanwhile, so the passes
    walk only what the build and the run made."""
    collected = []

    def count(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.freeze()
    gc.callbacks.append(count)
    try:
        cluster, outcome = build_and_run(*case)
        assert gc.collect() == 0 and sum(collected) == 0, (
            f"{sum(collected)} objects of cyclic garbage collected from "
            "the build to the run's end, with the cluster alive")
        dropped = weakref.ref(cluster)
        del cluster
        gc.collect()
        assert dropped() is None, "the dropped cluster outlived a collection"
    finally:
        gc.callbacks.remove(count)
        gc.unfreeze()
    return outcome


@pytest.mark.parametrize("fabric, rate, protocol, kernel, seed", CASES)
def test_build_and_run_make_no_cyclic_garbage(fabric, rate, protocol,
                                              kernel, seed):
    outcome = check_no_cyclic_garbage(fabric, rate, protocol, kernel, seed)
    # At 8% some runs lose a reply and deadlock; a lossless one cannot.
    assert outcome == "done" or rate == FAULT_RATES["faults8"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_deadlocked_run_makes_no_cyclic_garbage(kernel):
    assert check_no_cyclic_garbage("chain", 0.08, "none", kernel,
                                   3) == "deadlock"


def test_a_cycle_per_event_fails_the_check(monkeypatch):
    """The mutant: every posted event closes one reference cycle."""
    post = Simulator._post

    def leaky_post(self, delay, fn, args=()):
        cell: list = []
        cell.append(cell)
        post(self, delay, fn, args)

    monkeypatch.setattr(Simulator, "_post", leaky_post)
    with pytest.raises(AssertionError, match="cyclic garbage"):
        check_no_cyclic_garbage("star", 0.0, "none", "bucket", 0)


def _ticks():
    while True:
        yield 100


def _fails():
    yield 10
    raise ValueError("the process fails")


def _waits():
    yield Future()


def _failed_run(sim):
    sim.spawn(_fails())
    sim.run()


def _failed_join(sim):
    sim.run_until_done([sim.spawn(_fails())])


def _deadlock(sim):
    sim.run_until_done([sim.spawn(_waits())])


def _limit_ns(sim):
    sim.run_until_done([sim.spawn(_ticks())], limit_ns=1_000)


def _until(sim):
    sim.spawn(_ticks())
    sim.run(until=1_000)


STOPS = [
    pytest.param(_failed_run, RuntimeError, id="strict-failure-run"),
    pytest.param(_failed_join, RuntimeError, id="strict-failure-join"),
    pytest.param(_deadlock, SimulationDeadlock, id="deadlock"),
    pytest.param(_limit_ns, TimeoutError, id="limit_ns"),
    pytest.param(_until, None, id="until"),
]


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "caller-disabled"])
@pytest.mark.parametrize("stop, raises", STOPS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_stop_restores_the_collector(kernel, stop, raises, enabled):
    sim = KERNELS[kernel]()
    if not enabled:
        gc.disable()
    try:
        if raises is None:
            stop(sim)
        else:
            with pytest.raises(raises):
                stop(sim)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "caller-disabled"])
def test_cluster_builds_restore_the_collector(enabled):
    if not enabled:
        gc.disable()
    try:
        with Cluster(ClusterConfig(n_nodes=2)) as cluster:
            cluster.sim.run()
        assert gc.isenabled() is enabled
        # A build that fails inside the pause: DOR needs a torus,
        # which the fabric checks again when a config changed after
        # its own check.
        config = ClusterConfig(n_nodes=2)
        config.routing = "dor"
        with pytest.raises(ValueError, match="requires a torus"):
            Cluster(config)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
