"""The two event-loop kernels the tests compare, by name.

:class:`~repro.sim.Simulator` (``"bucket"``) is the production kernel
every cluster runs on; :class:`~repro.sim.refkernel.ReferenceSimulator`
(``"reference"``) is the pure-heap oracle it is checked against.  A
test parametrizes over :data:`KERNELS` and builds a bare kernel with
``KERNELS[name]()``, or a whole cluster on one with
:func:`build_cluster`.
"""

from __future__ import annotations

from unittest import mock

import repro.api.cluster as cluster_module
from repro.api import Cluster, ClusterConfig
from repro.sim import Simulator
from repro.sim.refkernel import ReferenceSimulator

#: Kernel name -> the class (or factory) that builds one.
KERNELS = {"bucket": Simulator, "reference": ReferenceSimulator}


def build_cluster(config: ClusterConfig, kernel: str = "bucket") -> Cluster:
    """``Cluster(config)``, its simulator built by ``KERNELS[kernel]``
    in place of the ``Simulator`` that :mod:`repro.api.cluster` builds."""
    with mock.patch.object(cluster_module, "Simulator", KERNELS[kernel]):
        return Cluster(config)
