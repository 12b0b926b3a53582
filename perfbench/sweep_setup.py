"""Time the sweep workload's set-up in a fresh interpreter.

Set-up is what a user pays before a sweep starts: importing the
experiment and analysis packages, ``default_registry()`` and creating
the temp results directory.  The import only costs something in a
process that has not imported ``repro`` yet, so ``run.py`` times it
here, in a child process per sample.

    python3 perfbench/sweep_setup.py SRC_DIR WORK_DIR

prints the elapsed time in reference seconds (see ``hostspeed.py``).
"""

import os
import sys
import tempfile
import time

import hostspeed


def main(src_dir: str, work_dir: str) -> None:
    sys.path.insert(0, src_dir)
    with hostspeed.SpeedProbe() as probe:
        began = time.perf_counter()
        from repro.analysis import aggregate_family, render_experiments_md  # noqa: F401
        from repro.exp import default_grids, default_registry, run_sweep  # noqa: F401

        default_registry()
        default_grids()
        results_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
        elapsed = time.perf_counter() - began - probe.spent()
    os.rmdir(results_dir)
    print(repr(elapsed * probe.scale()))


if __name__ == "__main__":
    main(*sys.argv[1:3])
