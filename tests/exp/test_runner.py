"""The sweep orchestrator: deterministic sharding, byte-identical
parallel results, and the retry-then-degrade crash protocol."""

import gc
import os
import weakref

import pytest

from repro.exp import (
    ExperimentSpec,
    ResultCache,
    run_sweep,
    shard_assignment,
)
from repro.exp.runner import _worker_main


def render_noop(result):
    return str(result)


def run_value(value=0):
    return {"value": value, "square": value * value}


def run_crash_once(flag_path=""):
    # First attempt: die without reporting (simulates OOM-kill /
    # segfault).  The retry, in a fresh process, finds the flag file
    # and completes.
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8") as handle:
            handle.write("died once")
        os._exit(13)
    return {"recovered": True}


def run_always_raises():
    raise ValueError("synthetic experiment defect")


def run_always_exits(code=13):
    os._exit(code)


def check_value_even(result):
    return [] if result["value"] % 2 == 0 else [
        f"value {result['value']} is odd"]


def check_always_raises(result):
    raise KeyError("claim reads a missing field")


class Holder:
    """Weak-referenceable, and referenced by a dict it references."""

    def __init__(self):
        self.node = {"holder": self}


def run_leaves_cycle(refs=()):
    holder = Holder()
    refs.append(weakref.ref(holder))
    # Survive the young generations, as a cluster's objects do.
    gc.collect()
    return {"left": True}


def run_reports_cycle_freed(refs=()):
    return {"freed": refs[-1]() is None}


def run_reports_freeze_count():
    return {"frozen": gc.get_freeze_count() > 0}


def make_spec(exp_id, run, params=None, cost=1.0, check=None):
    return ExperimentSpec(
        exp_id=exp_id,
        title=f"synthetic {exp_id}",
        bench="synthetic.py",
        run=run,
        render=render_noop,
        check=check,
        params=params or {},
        cost=cost,
    )


def value_specs(n):
    return [
        make_spec(f"V{i}", run_value, params={"value": i}, cost=1.0 + i % 3)
        for i in range(n)
    ]


def test_shard_assignment_is_deterministic_and_covers_everything():
    specs = value_specs(7)
    shards = shard_assignment(specs, 3)
    assert shards == shard_assignment(specs, 3)
    flat = sorted(spec.exp_id for shard in shards for spec in shard)
    assert flat == sorted(spec.exp_id for spec in specs)
    # workers=1 degenerates to one serial shard in LPT order
    # (heaviest first, ties by experiment id).
    assert [s.exp_id for s in shard_assignment(specs, 1)[0]] \
        == ["V2", "V5", "V1", "V4", "V0", "V3", "V6"]


def test_shard_assignment_spreads_heavy_specs():
    heavy = [make_spec(f"H{i}", run_value, cost=10.0) for i in range(3)]
    light = [make_spec(f"L{i}", run_value, cost=0.1) for i in range(6)]
    shards = shard_assignment(heavy + light, 3)
    for shard in shards:
        assert sum(1 for s in shard if s.cost == 10.0) == 1


class ListQueue:
    """The worker's out queue, in-process."""

    def __init__(self):
        self.reported = []

    def put(self, item):
        self.reported.append(item)


def test_worker_frees_each_experiment_before_the_next():
    """The next spec finds the last one's reference cycles collected."""
    queue = ListQueue()
    refs = []
    _worker_main([make_spec("C0", run_leaves_cycle, {"refs": refs}),
                  make_spec("C1", run_reports_cycle_freed, {"refs": refs})],
                 queue)
    assert queue.reported == [("C0", "ok", {"left": True}),
                              ("C1", "ok", {"freed": True})]


def test_worker_leaves_no_frozen_heap_behind():
    """The worker freezes the heap it starts with and unfreezes it on
    the way out, also when a spec fails."""
    frozen = gc.get_freeze_count()
    queue = ListQueue()
    _worker_main([make_spec("F0", run_reports_freeze_count),
                  make_spec("F1", run_always_raises)], queue)
    assert gc.get_freeze_count() == frozen
    assert queue.reported[0] == ("F0", "ok", {"frozen": True})
    assert queue.reported[1][:2] == ("F1", "error")


def test_shard_assignment_rejects_zero_workers():
    with pytest.raises(ValueError):
        shard_assignment(value_specs(2), 0)


def test_parallel_sweep_is_byte_identical_to_serial(tmp_path):
    specs = value_specs(6)
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    serial = run_sweep(specs, workers=1, cache=ResultCache(str(serial_dir)))
    parallel = run_sweep(specs, workers=3,
                         cache=ResultCache(str(parallel_dir)))
    assert serial.ok and parallel.ok
    assert sorted(serial.ran) == sorted(parallel.ran)
    for spec in specs:
        name = f"{spec.exp_id}.json"
        assert (serial_dir / name).read_bytes() \
            == (parallel_dir / name).read_bytes()


def test_sweep_serves_from_cache_and_force_recomputes(tmp_path):
    specs = value_specs(3)
    cache = ResultCache(str(tmp_path))
    first = run_sweep(specs, cache=cache)
    assert sorted(first.ran) == ["V0", "V1", "V2"]
    second = run_sweep(specs, cache=cache)
    assert second.ran == [] and sorted(second.cached) == ["V0", "V1", "V2"]
    assert second.documents == first.documents
    third = run_sweep(specs, cache=cache, force=True)
    assert sorted(third.ran) == ["V0", "V1", "V2"]


def test_worker_crash_is_retried_in_isolation(tmp_path):
    flag = tmp_path / "crash.flag"
    specs = [
        make_spec("OK", run_value, params={"value": 5}),
        make_spec("CRASH", run_crash_once,
                  params={"flag_path": str(flag)}),
    ]
    outcome = run_sweep(specs, workers=2, cache=ResultCache(str(tmp_path)))
    # The crash killed its worker mid-shard, yet both experiments
    # completed: OK from the first pass, CRASH from the isolated retry.
    assert outcome.ok
    assert outcome.documents["CRASH"]["result"] == {"recovered": True}
    assert outcome.documents["OK"]["result"]["value"] == 5
    assert flag.exists()


def test_retry_budget_exhaustion_degrades_to_structured_failure(tmp_path):
    specs = [
        make_spec("OK", run_value, params={"value": 1}),
        make_spec("BAD", run_always_raises),
    ]
    outcome = run_sweep(specs, workers=2, cache=ResultCache(str(tmp_path)))
    assert not outcome.ok
    assert outcome.ran == ["OK"]
    (failure,) = outcome.failures
    assert failure.experiment == "BAD"
    assert failure.attempts == 2
    assert "synthetic experiment defect" in failure.error
    assert failure.to_dict()["experiment"] == "BAD"
    # The failed experiment left no (stale) result file behind.
    assert not (tmp_path / "BAD.json").exists()


def test_failed_claim_check_is_a_failure_and_writes_nothing(tmp_path):
    """A result that breaks its spec's claim, or whose check raises, is
    an ExperimentFailure carrying the reason, and no document is
    written for it.  A check is deterministic, so it is not retried."""
    specs = [
        make_spec("EVEN", run_value, params={"value": 2},
                  check=check_value_even),
        make_spec("ODD", run_value, params={"value": 3},
                  check=check_value_even),
        make_spec("RAISES", run_value, check=check_always_raises),
    ]
    outcome = run_sweep(specs, workers=1, cache=ResultCache(str(tmp_path)))
    assert outcome.ran == ["EVEN"]
    failures = {failure.experiment: failure for failure in outcome.failures}
    assert sorted(failures) == ["ODD", "RAISES"]
    assert "value 3 is odd" in failures["ODD"].error
    assert failures["ODD"].attempts == 1
    assert "claim reads a missing field" in failures["RAISES"].error
    assert sorted(path.name for path in tmp_path.iterdir()) == ["EVEN.json"]


def test_family_counts_tally_each_experiment_once(tmp_path):
    """The per-family summary counts each experiment once, under its
    final outcome: a spec that runs and then fails its claim check
    reports both ``done`` and ``FAILED`` progress lines, but is one
    failure."""
    cache = ResultCache(str(tmp_path))
    grid = [make_spec(f"G/value={v}", run_value, params={"value": v})
            for v in (2, 4)]
    run_sweep(grid[:1], workers=1, cache=cache)
    specs = [
        make_spec("EVEN", run_value, params={"value": 2},
                  check=check_value_even),
        make_spec("ODD", run_value, params={"value": 3},
                  check=check_value_even),
        *grid,
    ]
    lines = []
    outcome = run_sweep(specs, workers=1, cache=cache, progress=lines.append)
    assert "[ODD] done" in lines
    assert "[ODD] FAILED its claim check" in lines
    assert outcome.family_counts() == {
        "EVEN": {"ran": 1, "cached": 0, "failed": 0},
        "G": {"ran": 1, "cached": 1, "failed": 0},
        "ODD": {"ran": 0, "cached": 0, "failed": 1},
    }


def test_dead_worker_failure_reports_exitcode_and_host(tmp_path):
    """A worker that hard-dies on every attempt degrades into a
    structured failure naming the exit code — not a bare 'no result'
    shrug.  (No host is named: every attempt runs on the sweeping
    machine.)"""
    specs = [make_spec("DIE", run_always_exits, params={"code": 13})]
    outcome = run_sweep(specs, workers=1, cache=ResultCache(str(tmp_path)))
    assert not outcome.ok
    (failure,) = outcome.failures
    assert failure.experiment == "DIE"
    assert "exitcode 13" in failure.error
