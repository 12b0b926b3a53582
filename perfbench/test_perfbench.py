"""Self-tests of the benchmark: its metric names, its correctness
checks and its sampler.

    python3 -m pytest perfbench -q

They run the real workload shapes once each (a few seconds apiece).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sampler import LayerSampler  # noqa: E402

#: The metrics the benchmark is specified to report, in order.
END_TO_END = ["setup_s", "run_s", "sim_ops_per_s", "peak_rss_mb"]
PER_LAYER = [
    "sim.kernel.host_share", "sim.queues.host_share", "sim.trace.host_share",
    "network.host_share", "network.link.host_share",
    "network.switch.host_share", "network.adaptive.host_share",
    "hib.host_share", "hib.reliable.host_share", "faults.host_share",
    "machine.host_share", "coherence.host_share", "obs.host_share",
    "api.host_share", "api.build_s",
    "exp.host_share", "exp.spec_s.p50", "exp.spec_s.max", "exp.overhead_s",
    "analysis.host_share", "analysis.render_s",
    "sim.events", "sim.events_per_op", "sim.events_per_s",
    "network.packets_routed", "network.link_bytes", "network.link_busy_ns",
    "network.pool_recycle_ratio",
    "network.adaptive_hops", "network.escape_fallbacks",
    "network.buffer_stalls",
    "hib.remote_writes", "hib.remote_reads", "hib.atomics",
    "machine.cpu_ops",
    "hib.retransmits", "hib.timeouts", "hib.nacks_sent",
    "hib.retransmit_share",
    "machine.io_stall_ns", "machine.bus_wait_ns",
    "faults.injected", "faults.node_failures",
    "trace_overhead",
]


def test_declared_names_are_the_specified_ones():
    spec = run.declaration()
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    workloads_declared = [w["name"] for w in spec["workloads"]]
    assert workloads_declared == ["sweep", "torus_stream", "lossy_rpc"]
    assert sorted(run.NOT_MEASURED) == sorted(workloads_declared)
    assert set(workloads.CLUSTER_WORKLOADS) == set(workloads_declared[1:])


@pytest.mark.parametrize("trace, names", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_names_are_the_specified_ones(trace, names):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "lossy_rpc", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == names
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert all(metric["unit"] == units[name]
               for name, metric in result["metrics"].items())
    printed = [line.split(":")[0] for line in lines[:len(names)]]
    assert printed == names


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lossy_rpc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_sweep_check_rejects_a_flipped_byte(tmp_path):
    from repro.exp import default_registry

    specs = default_registry()
    committed = os.path.join(ROOT, "results")
    copy = tmp_path / "results"
    shutil.copytree(committed, copy)
    assert workloads.differing_documents(specs, str(copy), committed) == []
    victim = copy / "T2.json"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    assert workloads.differing_documents(specs, str(copy), committed) == ["T2"]


def _staged_run(workload):
    staged = workload.stage()
    staged.run()
    failed, _, _ = workload.check(staged.cluster, staged.state)
    return staged, failed


def test_torus_check_rejects_a_stale_home_word_and_read():
    workload = workloads.TorusStream(seed=1)
    staged, failed = _staged_run(workload)
    words, _, _ = staged.state
    segment, offset = next(
        (seg, off) for seg, off in words
        if seg.peek(off) == workloads.TORUS_STORES)
    segment.poke(offset, workloads.TORUS_STORES - 1)
    assert workload.check(staged.cluster, staged.state)[0] == failed + 1
    # A read that missed the writer's latest store is one more.
    reads = staged.state[1]
    stream = next(stream for stream in reads
                  if stream and stream[0][0] == stream[0][1])
    issued, _ = stream[0]
    stream[0] = (issued, issued - 1)
    assert workload.check(staged.cluster, staged.state)[0] == failed + 2


def test_lossy_check_rejects_a_missing_increment():
    workload = workloads.LossyRpc(seed=1)
    staged, failed = _staged_run(workload)
    assert failed == 0
    hot = staged.state[0]
    hot.poke(0, hot.peek(0) - 1)
    assert workload.check(staged.cluster, staged.state)[0] == 1


def _busy_in_exp():
    from repro.exp.spec import canonical_key_material

    canonical_key_material([0.5] * 200_000)


def _busy_in_faults():
    from functools import partial

    from repro.faults.plan import decision_fraction

    list(map(partial(decision_fraction, 7, "drop", "link"), range(50_000)))


@pytest.mark.parametrize("busy, layer", [(_busy_in_exp, "exp"),
                                         (_busy_in_faults, "faults")])
def test_sampler_charges_a_busy_loop_to_its_module(busy, layer):
    sampler = LayerSampler(SRC)
    deadline = time.process_time() + 0.5
    with sampler:
        while time.process_time() < deadline:
            busy()
    assert sampler.total >= 20
    assert sampler.share(layer) > 0.8, dict(sampler.counts)


def test_sampler_splits_the_hot_packages_by_module():
    sampler = LayerSampler(SRC)
    repro_dir = os.path.join(SRC, "repro")
    assert sampler.layer_of(os.path.join(repro_dir, "hib", "reliable.py")) \
        == "hib.reliable"
    assert sampler.layer_of(os.path.join(repro_dir, "hib", "__init__.py")) \
        == "hib"
    assert sampler.layer_of(os.path.join(repro_dir, "exp", "dist", "spool.py")) \
        == "exp"
    assert sampler.layer_of(os.path.join(repro_dir, "params.py")) == "repro"
    assert sampler.layer_of(os.path.join(HERE, "run.py")) is None


def test_speed_probe_runs_units_inside_the_interval():
    probe = hostspeed.SpeedProbe()
    began = time.perf_counter()
    with probe:
        while time.perf_counter() - began < 0.5:
            pass
    wall = time.perf_counter() - began
    assert len(probe.units) >= 5
    assert 0 < probe.spent() < wall
    assert probe.scale() == \
        hostspeed.REFERENCE_S / statistics.median(probe.units)
