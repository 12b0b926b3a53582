"""Launching special operations from user level (§2.2.4).

Special operations — the §2.2.3 atomics and §2.2.2 remote copy — need
a *sequence* of instructions to reach the HIB, which raises the two
problems the paper names: passing **physical** addresses without
letting users forge them, and keeping the sequence **atomic** with
respect to context switches.  The two prototypes solve them
differently, and both solutions are modelled here:

**Telegraphos I** (:class:`SpecialModeTg1`): the HIB is put in
*special mode* by a store to a HIB register; while in special mode,
stores to remote addresses are not performed but latched as arguments
(the TLB has already checked access rights and produced the physical
address); a load of ``SPECIAL_RESULT`` executes the operation.  The
whole sequence runs in PAL code so it cannot be interrupted.

**Telegraphos II** (:class:`TelegraphosContext`): per-process
*contexts* (register sets mapped into the owner's address space),
*shadow addressing* (a store to the shadow of a virtual address
delivers the corresponding physical address to the HIB), and a *key*
carried in the store's datum that authenticates the process to the
context (§2.2.5).  Contexts survive interruption: "If an application
gets interrupted while launching a special operation, the Telegraphos
contexts preserve their contents."
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.hib.atomic import AtomicOp, operand_count
from repro.hib.registers import Reg


class LaunchError(Exception):
    """A malformed launch sequence (wrong argument count, unarmed
    special mode, ...).  Surfaces as a program failure, the way a real
    driver would segfault the offending process."""


class SpecialOpcode(enum.Enum):
    """Opcodes accepted by both launch mechanisms."""

    FETCH_AND_STORE = 1
    FETCH_AND_ADD = 2
    COMPARE_AND_SWAP = 3
    REMOTE_COPY = 4

    def to_atomic(self) -> Optional[AtomicOp]:
        return {
            SpecialOpcode.FETCH_AND_STORE: AtomicOp.FETCH_AND_STORE,
            SpecialOpcode.FETCH_AND_ADD: AtomicOp.FETCH_AND_ADD,
            SpecialOpcode.COMPARE_AND_SWAP: AtomicOp.COMPARE_AND_SWAP,
        }.get(self)

    @property
    def needed_addresses(self) -> int:
        return 2 if self is SpecialOpcode.REMOTE_COPY else 1

    @property
    def needed_operands(self) -> int:
        atomic = self.to_atomic()
        return operand_count(atomic) if atomic else 0


#: A fully collected launch: (opcode, physical addresses, operands).
Launch = Tuple[SpecialOpcode, List[int], List[int]]


class SpecialModeTg1:
    """Telegraphos I launch state machine (one per HIB)."""

    def __init__(self) -> None:
        self._armed: Optional[SpecialOpcode] = None
        self._addresses: List[int] = []
        self._operands: List[int] = []

    @property
    def armed(self) -> bool:
        return self._armed is not None

    def arm(self, opcode_value: int) -> None:
        """Store to ``SPECIAL_MODE``: value 0 disarms, else arms."""
        if opcode_value == 0:
            self.reset()
            return
        try:
            opcode = SpecialOpcode(opcode_value)
        except ValueError:
            raise LaunchError(f"unknown special opcode {opcode_value}") from None
        self._armed = opcode
        self._addresses = []
        self._operands = []

    def collect(self, phys: int, value: int) -> None:
        """A store seen while in special mode: latch its (already
        TLB-translated, hence access-checked) physical address and its
        datum as arguments."""
        if self._armed is None:
            raise LaunchError("special-mode store while not armed")
        if not self._addresses or self._addresses[-1] != phys:
            self._addresses.append(phys)
        self._operands.append(value)

    def take_launch(self) -> Launch:
        """Consume the collected launch (triggered by the result read
        or the GO store); leaves special mode."""
        if self._armed is None:
            raise LaunchError("special-operation trigger while not armed")
        opcode = self._armed
        addresses, operands = self._addresses, self._operands
        self.reset()
        _validate(opcode, addresses, operands)
        return opcode, addresses, operands

    def reset(self) -> None:
        """Restore a clean state (also the OS path after killing a
        process that faulted mid-sequence, §2.2.4 footnote)."""
        self._armed = None
        self._addresses = []
        self._operands = []


class TelegraphosContext:
    """One Telegraphos II context: a register set plus its key.

    A HIB has 16 and most are never assigned, so a context holds no
    container of its own: its operands and latched addresses are
    tuples, replaced on each write."""

    __slots__ = ("ctx_id", "key", "opcode_value", "operands", "_latched")

    def __init__(self, ctx_id: int):
        self.ctx_id = ctx_id
        self.key: Optional[int] = None
        self.opcode_value = 0
        self.operands: Tuple[int, int] = (0, 0)
        #: Physical addresses latched by shadow stores, oldest first.
        self._latched: Tuple[int, ...] = ()

    @property
    def addresses(self) -> List[int]:
        """The latched physical addresses, oldest first."""
        return list(self._latched)

    # -- driver side ------------------------------------------------------

    def assign(self, key: int) -> None:
        """Bind the context to a process by installing its key."""
        if key & ~Reg.KEY_MASK:
            raise ValueError("key wider than KEY_BITS")
        self.key = key
        self.clear_arguments()

    def revoke(self) -> None:
        self.key = None
        self.clear_arguments()

    def clear_arguments(self) -> None:
        self.opcode_value = 0
        self.operands = (0, 0)
        self._latched = ()

    # -- user side (register writes within the context page) -----------------

    def write_reg(self, reg: int, value: int) -> None:
        if reg == Reg.CTX_OPCODE:
            self.opcode_value = value
        elif reg == Reg.CTX_OPERAND0:
            self.operands = (value, self.operands[1])
        elif reg == Reg.CTX_OPERAND1:
            self.operands = (self.operands[0], value)
        else:
            raise LaunchError(f"store to unknown context register 0x{reg:x}")

    def read_reg(self, reg: int) -> int:
        if reg == Reg.CTX_OPCODE:
            return self.opcode_value
        if reg == Reg.CTX_OPERAND0:
            return self.operands[0]
        if reg == Reg.CTX_OPERAND1:
            return self.operands[1]
        if reg == Reg.CTX_STATUS:
            return len(self._latched)
        raise LaunchError(f"load of unknown context register 0x{reg:x}")

    def latch_address(self, phys: int) -> None:
        """A key-checked shadow store delivered its physical address."""
        if len(self._latched) >= 2:
            # A stale address from an abandoned launch: start over,
            # keeping the newest (the driver's documented recovery is
            # to re-issue the sequence).
            self._latched = ()
        self._latched += (phys,)

    def take_launch(self) -> Launch:
        """Consume a GO trigger.  Arguments are cleared; the key and
        binding persist (contexts outlive launches)."""
        try:
            opcode = SpecialOpcode(self.opcode_value)
        except ValueError:
            raise LaunchError(
                f"context {self.ctx_id}: bad opcode {self.opcode_value}"
            ) from None
        addresses = list(self._latched)
        operands = list(self.operands[: opcode.needed_operands])
        self._latched = ()
        _validate(opcode, addresses, operands)
        return opcode, addresses, operands


def _validate(opcode: SpecialOpcode, addresses: List[int], operands: List[int]):
    if len(addresses) != opcode.needed_addresses:
        raise LaunchError(
            f"{opcode.name}: expected {opcode.needed_addresses} "
            f"address(es), got {len(addresses)}"
        )
    if len(operands) < opcode.needed_operands:
        raise LaunchError(
            f"{opcode.name}: expected {opcode.needed_operands} "
            f"operand(s), got {len(operands)}"
        )
