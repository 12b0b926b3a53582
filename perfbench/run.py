#!/usr/bin/env python3
"""The repository benchmark: host time of the Telegraphos simulator,
end to end and per layer.

    python3 perfbench/run.py --workload {sweep,torus_stream,lossy_rpc} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports ``repro`` from ``src/`` and
compares the sweep against the committed ``results/`` and
``EXPERIMENTS.md``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see ``perfbench/README.md``); the
plain run's times are in reference seconds (``hostspeed.py``).  Each
metric is printed as ``name: value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit status is 0 when the benchmark could vouch for its figures,
1 when a check it does not count as a failed operation broke (``correct``
is false), and 2 when there is nothing to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import hostspeed
from hostspeed import SpeedProbe
from sampler import SPLIT_PACKAGES, LayerSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for the sweep's temp results directories.
WORK_DIR = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))


def declaration() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in declaration()[kind]}


#: Fresh-interpreter set-up samples per sweep run.
SWEEP_SETUP_PROBES = 9

#: Why a workload leaves some per-layer metrics unmeasured (printed as 0).
NOT_MEASURED = {
    "sweep": "the experiments build their clusters internally, so no "
             "cluster counter is readable from outside",
    "torus_stream": "no ExperimentSpec runs in this workload",
    "lossy_rpc": "no ExperimentSpec runs in this workload",
}


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_shares(sampler: LayerSampler) -> Dict[str, float]:
    """Every ``*.host_share`` metric: one layer, a whole split package
    (``sim``, ``network``), or ``hib`` without its reliable transport."""
    shares = {}
    for name in metric_units("per_layer"):
        if not name.endswith(".host_share"):
            continue
        layer = name[:-len(".host_share")]
        if layer == "hib":
            layers = [lay for lay in sampler.layers("hib")
                      if lay != "hib.reliable"]
        elif layer in SPLIT_PACKAGES:
            layers = sampler.layers(layer)
        else:
            layers = [layer]
        shares[name] = sampler.share(*layers)
    return shares


def alternate(seconds: float, plain, sampled=None):
    """Call ``plain()`` (and, when given, ``sampled()`` in turn with it)
    until ``seconds`` pass, each at least once; returns both result
    lists.  Alternating puts the plain and the sampled repeats in the
    same stretch of host load, which is what ``trace_overhead``
    compares."""
    deadline = time.perf_counter() + seconds
    plains: List[Any] = []
    sampleds: List[Any] = []
    while (not plains or (sampled and not sampleds)
           or time.perf_counter() < deadline):
        if sampled is not None and len(sampleds) < len(plains):
            sampleds.append(sampled())
        else:
            plains.append(plain())
    return plains, sampleds


# -- cluster workloads -------------------------------------------------------


def run_cluster_workload(name: str, seed: int, seconds: float,
                         trace: bool) -> Dict[str, Any]:
    import workloads

    workload = workloads.CLUSTER_WORKLOADS[name](seed)
    sampler = LayerSampler(SRC)

    def once(armed: bool):
        gc.collect()
        staged = workload.stage()
        if armed:
            with sampler:
                staged.run()
        else:
            staged.run()
        return workload.finish(staged)

    def probed():
        """A repeat with its times in reference seconds (hostspeed)."""
        gc.collect()
        with SpeedProbe() as probe:
            staged = workload.stage()
            in_setup = probe.spent()
            staged.run()
            in_run = probe.spent() - in_setup
        rep = workload.finish(staged)
        scale = probe.scale()
        rep.setup_s = (staged.setup_s - in_setup) * scale
        rep.run_s = (staged.run_s - in_run) * scale
        return rep

    if not trace:
        plain, traced = alternate(seconds, probed)
    else:
        plain, traced = alternate(seconds, lambda: once(False),
                                  lambda: once(True))
    reps = plain + traced
    run_s = statistics.median(rep.run_s for rep in plain)
    first = plain[0]
    cpu_ops = first.counters["machine.cpu_ops"]
    if not trace:
        metrics = {
            "setup_s": statistics.median(rep.setup_s for rep in plain),
            "run_s": run_s,
            "sim_ops_per_s": cpu_ops / run_s,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        }
    else:
        counting = workload.stage(metrics=True)
        counting.run()
        registry = workloads.registry_counters(counting.cluster)
        reps.append(workload.finish(counting))
        events = first.counters["sim.events"]
        metrics = {
            **host_shares(sampler),
            **first.counters,
            **registry,
            "api.build_s": statistics.median(rep.build_s for rep in reps),
            "sim.events_per_op": events / cpu_ops,
            "sim.events_per_s": events / run_s,
            "trace_overhead":
                statistics.median(rep.run_s for rep in traced) / run_s,
        }
    problems = []
    if any(rep.outcome != first.outcome for rep in reps):
        problems.append(
            "simulated outcome differs between repeats of one seed: "
            + "; ".join(sorted({json.dumps(rep.outcome, sort_keys=True)
                                for rep in reps})))
    if any(rep.failed != first.failed for rep in reps):
        problems.append(f"failed ops differ between repeats: "
                        f"{sorted({rep.failed for rep in reps})}")
    if not all(rep.quiescent for rep in reps):
        problems.append("operations still outstanding after the drain")
    return {
        "attempted": workload.planned_ops,
        "failed": max(rep.failed for rep in reps),
        "problems": problems,
        "metrics": metrics,
        "repeats": len(reps),
    }


# -- sweep -----------------------------------------------------------------------


def probe_sweep_setup() -> float:
    probe = subprocess.run(
        [sys.executable, os.path.join(HERE, "sweep_setup.py"), SRC, WORK_DIR],
        check=True, capture_output=True, text=True, timeout=120)
    return float(probe.stdout.strip().splitlines()[-1])


def run_sweep_workload(seconds: float, trace: bool) -> Dict[str, Any]:
    import workloads
    from repro.api import Cluster
    from repro.exp import default_grids, default_registry

    specs = default_registry()
    grids = default_grids()
    os.makedirs(WORK_DIR, exist_ok=True)
    setups = [] if trace else [probe_sweep_setup()
                               for _ in range(SWEEP_SETUP_PROBES)]
    # Each ExperimentSpec.run in the forked worker logs its span, and in
    # the plain run the probe units around it (see SpecLog).
    log = workloads.SpecLog(WORK_DIR, probe=not trace)
    swept = log.wrap(specs)
    overheads = []
    build = Cluster.__init__.__code__
    sampler = LayerSampler(SRC, inclusive=[build])

    def plain_pass():
        sweep = workloads.sweep_pass(swept, grids, WORK_DIR, ROOT)
        spans, units = log.take()
        overheads.append(sweep.sweep_s - sum(spans))
        if not trace:
            # The render, in this process, is scaled like the worker.
            sweep.scaled_s = (sweep.run_s - sum(units)) * hostspeed.scale(units)
        return sweep

    def traced_pass():
        with sampler:
            return workloads.traced_sweep_pass(specs, grids, WORK_DIR, ROOT)

    timed, traced = alternate(seconds, plain_pass,
                              traced_pass if trace else None)
    log.close()
    if not trace:
        run_s = statistics.median(p.scaled_s for p in timed)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            # A sweep's operation is one experiment spec.
            "sim_ops_per_s": len(specs) / run_s,
            # The forked sweep worker is the largest child.
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    else:
        run_s = statistics.median(p.run_s for p in timed)
        spec_s = [span for p in traced for span in p.spec_s]
        overhead_s = statistics.median(overheads)
        metrics = {
            **host_shares(sampler),
            "api.build_s": sampler.inclusive_s(build) / len(traced),
            "exp.spec_s.p50": statistics.median(spec_s),
            "exp.spec_s.max": max(spec_s),
            "exp.overhead_s": overhead_s,
            "analysis.render_s": statistics.median(p.render_s for p in traced),
            # The sampled pass runs the specs in-process: compare it with
            # the plain pass less run_sweep's fork, queue and store.
            "trace_overhead": statistics.median(p.run_s for p in traced)
                              / (run_s - overhead_s),
        }
    passes = timed + traced
    failed = sorted({exp_id for p in passes for exp_id in p.failed})
    problems = []
    if failed:
        print(f"sweep: {len(failed)} experiment(s) raised or differ from "
              f"results/: {', '.join(failed)}", file=sys.stderr)
    else:
        # A differing document already fails its spec; the rendered
        # outputs are checked when every document matched.
        mismatched = sorted({name for p in passes for name in p.render_mismatches})
        if mismatched:
            problems.append("rendered outputs differ from the committed ones: "
                            + ", ".join(mismatched))
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass
    return {
        "attempted": len(specs),
        "failed": len(failed),
        "problems": problems,
        "metrics": metrics,
        "repeats": len(passes),
    }


# -- entry point ------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        workload["name"] for workload in declaration()["workloads"]])
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (torus_stream's far hosts, "
                             "lossy_rpc's faults and reads)")
    parser.add_argument("--seconds", type=float,
                        default=declaration()["run_seconds"],
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds); at least one repeat runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the sampled run with per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = bool(args.trace)
    if args.workload == "sweep":
        report = run_sweep_workload(args.seconds, trace)
    else:
        report = run_cluster_workload(args.workload, args.seed, args.seconds,
                                      trace)
    names = metric_units("per_layer" if trace else "end_to_end")
    measured = report["metrics"]
    metrics = {name: {"value": measured.get(name, 0), "unit": unit}
               for name, unit in names.items()}
    for name, metric in metrics.items():
        note = ("" if name in measured
                else f"  (not measured: {NOT_MEASURED[args.workload]})")
        print(f"{name}: {metric['value']:.6g} {metric['unit']}{note}")
    print(f"repeats: {report['repeats']}, ops attempted: "
          f"{report['attempted']}, ops failed: {report['failed']}")
    for problem in report["problems"]:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
