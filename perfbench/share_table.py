#!/usr/bin/env python3
"""Regenerate the per-layer host-share table of ``perfbench/README.md``.

    python3 perfbench/share_table.py

Runs every workload's traced run (``run.py --trace 1``) with seed 1 for
the declared ``run_seconds`` and prints the sampled shares as a markdown
table, one column per workload.
"""

import json
import os
import subprocess
import sys

from run import declaration

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1

#: Table rows: label and the host-share metrics summed into it.
ROWS = [
    ("`sim.kernel`", ["sim.kernel"]),
    ("`sim.queues`", ["sim.queues"]),
    ("`sim.trace`", ["sim.trace"]),
    ("`network` (all; `adaptive` alone)", ["network"], ["network.adaptive"]),
    ("`hib` (all; `reliable` alone)", ["hib", "hib.reliable"], ["hib.reliable"]),
    ("`faults`", ["faults"]),
    ("`machine`", ["machine"]),
    ("`coherence`", ["coherence"]),
    ("`obs`", ["obs"]),
    ("`api`", ["api"]),
    ("`exp` + `analysis`", ["exp", "analysis"]),
]


def traced_metrics(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def main() -> None:
    names = [workload["name"] for workload in declaration()["workloads"]]
    runs = {name: traced_metrics(name) for name in names}

    def pct(metrics: dict, layers) -> str:
        return f"{100 * sum(metrics[f'{layer}.host_share'] for layer in layers):.1f}%"

    print("| share of samples | " + " | ".join(f"`{n}`" for n in names) + " |")
    print("|---|" + "---|" * len(names))
    for label, layers, *alone in ROWS:
        cells = []
        for name in names:
            cell = pct(runs[name], layers)
            if alone:
                cell += f"; {pct(runs[name], alone[0])}"
            cells.append(cell)
        print(f"| {label} | " + " | ".join(cells) + " |")
    print(f"\nseed {SEED}, {declaration()['run_seconds']} s per workload; "
          "trace_overhead " + ", ".join(
              f"{n} {runs[n]['trace_overhead']:.2f}" for n in names))


if __name__ == "__main__":
    main()
