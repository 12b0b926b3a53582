"""Telegraphos — a behavioural reproduction of the HPCA-2 (1996)
user-level shared-memory network interface for workstation clusters.

The public API lives in :mod:`repro.api`::

    from repro.api import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="data")
    proc = cluster.create_process(node=0, name="writer")
    base = proc.map(seg)

    def program(p):
        yield p.store(base, 42)     # remote write: one store, ~0.7 us
        yield p.fence()             # MEMORY_BARRIER
        value = yield p.load(base)  # blocking remote read, ~7 us

    cluster.run(join=[cluster.start(proc, program)])

Subpackages (see DESIGN.md for the full map):

- :mod:`repro.sim` — discrete-event simulation kernel;
- :mod:`repro.network` — switches, links, topologies, routing;
- :mod:`repro.machine` — CPU, MMU, buses, memory, interrupts;
- :mod:`repro.hib` — the Host Interface Board (the paper's §2.2);
- :mod:`repro.coherence` — the §2.3 protocols and their baselines;
- :mod:`repro.os` — driver, VM, kernel, scheduler, replication;
- :mod:`repro.api` — clusters, segments, processes, collectives,
  messaging;
- :mod:`repro.baselines` — software DSM and sockets comparators;
- :mod:`repro.workloads` / :mod:`repro.analysis` — experiments.
"""

from repro.api import Cluster
from repro.params import DEFAULT_PARAMS, Params

__version__ = "1.0.0"

__all__ = ["Cluster", "DEFAULT_PARAMS", "Params", "__version__"]
