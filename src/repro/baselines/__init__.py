"""The software baselines Telegraphos is motivated against (§1, §2.1).

- :mod:`repro.baselines.vsm` — Virtual Shared Memory: page-fault
  driven replication/invalidation in the style of Li–Hudak [19] /
  IVY / TreadMarks [18].  "When a process wants to access non-local
  shared data, it page faults, the operating system replicates the
  page locally, marks it shared, and resumes the faulted process."
  Every coherence action costs OS traps and whole-page transfers.
- :mod:`repro.baselines.sockets` — OS-mediated message passing in the
  style of PVM [11] / P4 [6] over Unix sockets: "require the
  intervention of the operating system for each message transfer."

Both run on the same simulation kernel and timing parameters as the
Telegraphos model, so the comparisons in
:mod:`repro.exp.experiments.s7_motivation` share a cost basis.
"""

from repro.baselines.sockets import SocketNetwork
from repro.baselines.vsm import VsmManager

__all__ = ["SocketNetwork", "VsmManager"]
