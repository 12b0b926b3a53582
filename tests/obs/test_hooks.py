"""Kernel hooks and the event-loop profiler: accurate counts, and —
critically — no effect on the simulated history."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.obs import EventLoopProfiler, KernelHooks
from repro.sim import Simulator
from tests.kernels import KERNELS


def test_base_hooks_are_no_ops():
    sim = Simulator()
    sim.hooks = KernelHooks()
    fired = []
    sim.schedule(5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5]


def test_profiler_counts_events_exactly():
    sim = Simulator()
    profiler = EventLoopProfiler()
    sim.hooks = profiler

    def tick():
        pass

    for t in (1, 2, 3):
        sim.schedule(t, tick)
    sim.run()
    assert profiler.events_scheduled == 3
    assert profiler.events_executed == 3
    assert profiler.runs == 1
    assert profiler.max_queue_depth == 3
    assert profiler.wall_seconds > 0.0
    snap = profiler.snapshot()
    assert snap["events_executed"] == 3
    assert any("tick" in label for label, _ in snap["hottest_callbacks"])
    assert "events/s" in profiler.render()


@pytest.mark.parametrize("kernel", KERNELS)
def test_profiler_peak_depth_is_the_same_on_both_kernels(kernel):
    # Five events at t=10, the first of which posts three more: seven
    # are queued once it is done, however the kernel batches them.
    sim = KERNELS[kernel]()
    profiler = EventLoopProfiler()
    sim.hooks = profiler

    def first():
        for _ in range(3):
            sim.schedule(5, lambda: None)

    sim.schedule(10, first)
    for _ in range(4):
        sim.schedule(10, lambda: None)
    sim.run()
    assert profiler.max_queue_depth == 7
    assert profiler.events_executed == profiler.events_scheduled == 8


def _observed_run(profile: bool):
    config = ClusterConfig(
        n_nodes=3, protocol="telegraphos",
        metrics=True, profile_kernel=profile,
    )
    with Cluster(config) as cluster:
        seg = cluster.alloc_segment(home=0, pages=1, name="d")
        ctxs = []
        for node in (1, 2):
            proc = cluster.create_process(node=node, name=f"p{node}")
            base = proc.map(seg, mode="replica")

            def program(p, base=base, node=node):
                for i in range(5):
                    yield p.store(base + 4 * node, i)
                    yield from p.fetch_and_add(base + 0x40, 1)
                yield p.fence()

            ctxs.append(cluster.start(proc, program))
        cluster.run(join=ctxs)
    fingerprint = [
        (e.time, e.category, tuple(sorted(e.fields.items())))
        for e in cluster.tracer.events
    ]
    return cluster, cluster.now, fingerprint


def test_profiler_and_metrics_do_not_perturb_simulated_history():
    plain = _observed_run(profile=False)
    profiled = _observed_run(profile=True)
    assert plain[1] == profiled[1], "simulated end times differ"
    assert plain[2] == profiled[2], "event traces differ"
    profiler = profiled[0].profiler
    assert profiler is not None
    assert profiler.events_executed > 0
    assert profiler.events_scheduled >= profiler.events_executed


def test_profiler_counts_one_run_per_kernel_call():
    # A join is one run, however many events it takes, and the drain
    # that follows it is the other.
    cluster, _, _ = _observed_run(profile=True)
    profiler = cluster.profiler
    assert profiler.events_executed == cluster.sim.events_executed
    assert profiler.runs == 2


def test_cluster_exit_detaches_hooks():
    config = ClusterConfig(n_nodes=2, profile_kernel=True)
    with Cluster(config) as cluster:
        assert cluster.sim.hooks is cluster.profiler
    assert cluster.sim.hooks is None


def test_stats_includes_kernel_section_only_when_profiling():
    with Cluster(ClusterConfig(n_nodes=2, profile_kernel=True)) as cluster:
        cluster.sim.run(until=1000)
        assert "kernel" in cluster.stats()
    plain = Cluster(ClusterConfig(n_nodes=2))
    assert "kernel" not in plain.stats()


def _torus_profile(routing: str):
    config = ClusterConfig(n_nodes=8, topology="torus", routing=routing,
                           profile_kernel=True)
    with Cluster(config) as cluster:
        seg = cluster.alloc_segment(home=0, pages=1, name="d")
        ctxs = []
        for node in range(1, 8):
            proc = cluster.create_process(node=node, name=f"p{node}")
            base = proc.map(seg)

            def program(p, base=base, node=node):
                for i in range(3):
                    yield p.store(base + 4 * node, i)
                    yield p.load(base + 4 * node)
                yield p.fence()

            ctxs.append(cluster.start(proc, program))
        cluster.run(join=ctxs)
    return cluster.profiler.callback_counts


def test_profile_lines_are_stages_not_components():
    """One line per pipeline stage: no node id, coordinate or port
    label in any label, and distinct HIB loops stay apart."""
    for routing in ("tree", "adaptive"):
        labels = set(_torus_profile(routing))
        assert not [label for label in labels
                    if any(ch.isdigit() or ch in "()" for ch in label)]
        assert {"process:hib.svc", "process:hib.rsp"} <= labels
