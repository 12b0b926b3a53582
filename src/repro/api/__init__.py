"""The user-level programming interface.

This is the layer a Telegraphos application developer sees:

- :class:`~repro.api.cluster.Cluster` — build a whole cluster (nodes,
  fabric, OS instances, coherence engines) in one call.
- :class:`~repro.api.cluster.Workstation` — one assembled node.
- :class:`~repro.api.shmem.Segment` / :class:`~repro.api.shmem.Proc`
  — shared-memory segments and user processes; a process maps
  segments (remote window or local replica), and its op builders
  (``load``/``store``/``fetch_and_add``/``remote_copy``/...) expand to
  exactly the instruction sequences of §2.2.
- :mod:`repro.api.collectives` — the unified collectives surface:
  ``cluster.collective_group(...)`` hands each member a
  :class:`~repro.api.collectives.Collective` with ``barrier`` /
  ``all_reduce`` / ``broadcast`` / ``fetch_add``, backed either by the
  software counter path (``host``) or by NIC-resident combining trees
  (``nic``).  Also home of :class:`~repro.api.collectives.Mutex` and
  :class:`~repro.api.collectives.Signal`, each embedding the §2.3.5
  FENCE.
- :mod:`repro.api.msg` — message-passing channels built on remote
  writes ("applications that want to send small messages can do that
  very efficiently", §3.2).

Quickstart::

    from repro.api import Cluster, ClusterConfig

    with Cluster(ClusterConfig(n_nodes=2)) as cluster:
        seg = cluster.alloc_segment(home=1, pages=1, name="data")
        proc = cluster.create_process(node=0, name="writer")
        base = proc.map(seg)

        def program(p):
            yield p.store(base, 42)      # a sub-microsecond remote write
            yield p.fence()              # MEMORY_BARRIER
            value = yield p.load(base)   # a blocking remote read
            assert value == 42

        cluster.run(join=[cluster.start(proc, program)])
        print(cluster.stats()["metrics"]["hib.remote_writes"])
"""

from repro.api.cluster import Cluster, Workstation
from repro.api.collectives import (
    Collective,
    CollectiveGroup,
    Mutex,
    Signal,
    counter_barrier_wait,
)
from repro.api.config import ClusterConfig
from repro.api.msg import BroadcastChannel, Channel
from repro.api.shmem import Proc, Segment

__all__ = [
    "BroadcastChannel",
    "Channel",
    "Cluster",
    "ClusterConfig",
    "Collective",
    "CollectiveGroup",
    "Mutex",
    "Proc",
    "Segment",
    "Signal",
    "Workstation",
    "counter_barrier_wait",
]
