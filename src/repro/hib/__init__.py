"""The Telegraphos Host Interface Board (HIB) — the paper's §2.2.

The HIB plugs into the workstation's TurboChannel and implements, in
hardware, every shared-memory operation the paper lists:

- non-blocking remote writes and blocking remote reads (§2.2.1) —
  :mod:`repro.hib.hib`;
- remote copy / prefetch (§2.2.2) and remote atomic operations
  (§2.2.3) — :mod:`repro.hib.atomic` plus the launch engines;
- user-level launching of multi-instruction special operations:
  Telegraphos I special mode + PAL code, Telegraphos II contexts +
  keys + shadow addressing (§2.2.4) — :mod:`repro.hib.special`;
- page access counters and alarms (§2.2.6) —
  :mod:`repro.hib.page_counters`;
- counters of outstanding remote operations and the FENCE /
  MEMORY_BARRIER (§2.2, §2.3.5), kept as one ledger of every op a
  node starts — :mod:`repro.hib.outstanding`;
- eager-update multicast (§2.2.7) — :mod:`repro.hib.multicast`;
- the retry protocol a faulty fabric runs, with its per-peer delivery
  logs (an extension beyond the paper) — :mod:`repro.hib.reliable`;
- the Table 1 hardware cost model — :mod:`repro.hib.gatecount`.
"""

from repro.hib.atomic import AtomicOp
from repro.hib.gatecount import GateCountModel
from repro.hib.hib import HIB
from repro.hib.multicast import MulticastTable
from repro.hib.outstanding import OutstandingOps, OutstandingUnderflowError
from repro.hib.page_counters import PageAccessCounters
from repro.hib.registers import Reg
from repro.hib.reliable import DestinationLog
from repro.hib.special import (
    LaunchError,
    SpecialOpcode,
    TelegraphosContext,
)

__all__ = [
    "AtomicOp",
    "GateCountModel",
    "HIB",
    "LaunchError",
    "MulticastTable",
    "DestinationLog",
    "OutstandingOps",
    "OutstandingUnderflowError",
    "PageAccessCounters",
    "Reg",
    "SpecialOpcode",
    "TelegraphosContext",
]
