"""The Table 1 hardware-cost model.

Table 1 of the paper lists the approximate gate-count equivalent of
the random logic in each block of the Telegraphos I HIB, plus memory
sizes.  The paper's point: "the portion of the network interface that
is necessary for supporting shared memory is very small: 2700 gates
and a few kilobits of memory."

The model is parametric in the sizing configuration so ablations can
ask, e.g., what doubling the multicast table costs; with the default
:class:`~repro.params.SizingParams` it reproduces Table 1's numbers
exactly (see ``repro.exp.experiments.t1_gatecount.check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.params import SizingParams


@dataclass(frozen=True)
class Block:
    """One row of Table 1."""

    name: str
    gates: int
    sram_kbits: float
    note: str = ""
    group: str = "message"  # "message" or "shared"


class GateCountModel:
    """Compute the Table 1 inventory for a sizing configuration."""

    # Fixed random-logic costs taken from Table 1 (the FPGA design's
    # measured complexity; they do not scale with table sizes).
    CENTRAL_CONTROL_GATES = 1000
    CENTRAL_CONTROL_SRAM_KBITS = 0.5
    TC_INTERFACE_GATES = 550
    INCOMING_LINK_GATES = 1000
    OUTGOING_LINK_GATES = 750
    ATOMIC_GATES = 1500
    MULTICAST_GATES = 400
    PAGE_COUNTER_GATES = 800

    #: Table 1 sizes the synchronizing FIFOs at 2 Kb per direction.
    LINK_FIFO_KBITS = 2.0
    #: Each multicast list entry is 32 bits.
    MULTICAST_ENTRY_BITS = 32

    def __init__(self, sizing: Optional[SizingParams] = None):
        self.sizing = sizing or SizingParams()

    # -- per-block ----------------------------------------------------

    def blocks(self) -> List[Block]:
        sizing = self.sizing
        multicast_kbits = (
            sizing.multicast_entries * self.MULTICAST_ENTRY_BITS / 1024.0
        )
        counters_kbits = (
            sizing.counted_pages * 2 * sizing.page_counter_bits / 1024.0
        )
        mpm_mbits = sizing.mpm_bytes * 8 // (1024 * 1024)
        return [
            Block(
                "Central control",
                self.CENTRAL_CONTROL_GATES,
                self.CENTRAL_CONTROL_SRAM_KBITS,
                group="message",
            ),
            Block(
                "Turbochannel interface",
                self.TC_INTERFACE_GATES,
                0.0,
                note="300 gates + 64 bits of registers",
                group="message",
            ),
            Block(
                "Incoming link intf.",
                self.INCOMING_LINK_GATES,
                self.LINK_FIFO_KBITS,
                note="2+2 Kb of synchr. (2-port) FIFO's",
                group="message",
            ),
            Block(
                "Outgoing link intf.",
                self.OUTGOING_LINK_GATES,
                self.LINK_FIFO_KBITS,
                group="message",
            ),
            Block("Atomic operations", self.ATOMIC_GATES, 0.0, group="shared"),
            Block(
                "Multicast (eager sharing)",
                self.MULTICAST_GATES,
                multicast_kbits,
                note=(
                    f"{sizing.multicast_entries // 1024} K multicast list "
                    f"entries x {self.MULTICAST_ENTRY_BITS} bits"
                ),
                group="shared",
            ),
            Block(
                "Page Access Counters",
                self.PAGE_COUNTER_GATES,
                counters_kbits,
                note=(
                    f"{sizing.counted_pages // 1024} K pages x "
                    f"({sizing.page_counter_bits}+{sizing.page_counter_bits}) bits"
                ),
                group="shared",
            ),
            Block(
                "Multiproc. Mem. (MPM)",
                0,
                0.0,
                note=(
                    f"{sizing.mpm_bytes // (1024 * 1024)} MBytes = "
                    f"{mpm_mbits} Mbits of DRAM"
                ),
                group="shared",
            ),
        ]

    # -- aggregates -----------------------------------------------------

    def subtotal(self, group: str):
        rows = [b for b in self.blocks() if b.group == group]
        return (
            sum(b.gates for b in rows),
            sum(b.sram_kbits for b in rows),
        )

    @property
    def message_related_gates(self) -> int:
        return self.subtotal("message")[0]

    @property
    def shared_memory_gates(self) -> int:
        return self.subtotal("shared")[0]

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Text rendering in the shape of Table 1."""

        def fmt_kbits(value: float) -> str:
            if value == 0:
                return ""
            if value == int(value):
                return f"{int(value)}" if value >= 1 else f"{value:g}"
            return f"{value:g}"

        lines = []
        header = f"{'Block':<28}{'Logic':>8}{'SRAM':>10}  Notes"
        lines.append(header)
        lines.append(f"{'':<28}{'(gates)':>8}{'(Kbits)':>10}")
        lines.append("-" * 72)
        for group, label in (("message", "message related"), ("shared", "shared mem. rel.")):
            for block in self.blocks():
                if block.group != group:
                    continue
                gates = f"{block.gates}" if block.gates else ""
                lines.append(
                    f"{block.name:<28}{gates:>8}{fmt_kbits(block.sram_kbits):>10}"
                    f"  {block.note}"
                )
            gates, kbits = self.subtotal(group)
            lines.append(
                f"{'Subtotal ' + label:<28}{gates:>8}{fmt_kbits(kbits):>10}"
            )
            lines.append("-" * 72)
        return "\n".join(lines)
