"""The Telegraphos device driver.

§2.2.5 motivates its existence: "most of the potential Telegraphos
users just want a device driver to install in their systems" — no OS
replacement, no interrupt-handler surgery (the FLASH approach the
paper rejects).  The driver does two things:

**Privileged setup** — binding a process to the HIB: mapping the HIB
register page (Telegraphos I) or allocating a context, installing its
key, and mapping the context page into exactly that process
(Telegraphos II); arming page-access counters; installing multicast
mappings.

**Launch-sequence building** — the user-level instruction sequences
for special operations (§2.2.4).  Each builder is a generator to
``yield from`` inside a user program; it expands to exactly the
instructions the paper describes:

- Telegraphos I: one :class:`~repro.machine.ops.PalSequence` — arm
  special mode, store arguments to the (TLB-checked) target addresses,
  read the result.
- Telegraphos II: plain stores into the context page, a shadow store
  carrying ``(context << KEY_BITS) | key``, and a GO access — no PAL,
  interruptible at any point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hib.hib import HIB
from repro.hib.registers import Reg
from repro.hib.special import SpecialOpcode
from repro.machine.addresses import AddressMap
from repro.machine.mmu import AddressSpace
from repro.machine.ops import Load, PalSequence, Store
from repro.os.vm import VirtualMemoryManager
from repro.params import Params


@dataclass
class ProcessBinding:
    """Driver state for one user process on one node."""

    name: str
    space: AddressSpace
    #: Telegraphos I: vaddr of the mapped HIB register page.
    hib_vaddr: Optional[int] = None
    #: Telegraphos II: context id, key, and mapped context page vaddr.
    ctx_id: Optional[int] = None
    key: Optional[int] = None
    ctx_vaddr: Optional[int] = None
    #: Cache of shadow mappings: vpage -> shadow page base vaddr.
    shadow_pages: Dict[int, int] = field(default_factory=dict)


class TelegraphosDriver:
    """One node's driver instance."""

    _key_seq = itertools.count(0x10001)

    def __init__(
        self,
        node_id: int,
        hib: HIB,
        vm: VirtualMemoryManager,
        amap: AddressMap,
        params: Params,
    ):
        self.node_id = node_id
        self.hib = hib
        self.vm = vm
        self.amap = amap
        self.params = params
        self._next_ctx = 0

    @property
    def prototype(self) -> int:
        return self.params.prototype

    # -- privileged setup -----------------------------------------------

    def open(self, space: AddressSpace, name: str) -> ProcessBinding:
        """Bind a process to the HIB (driver ``open()``)."""
        binding = ProcessBinding(name=name, space=space)
        if self.prototype == 1:
            binding.hib_vaddr = self.vm.map_hib_registers(space)
        else:
            ctx_id = self._alloc_context()
            key = next(self._key_seq) & Reg.KEY_MASK
            self.hib.assign_context(ctx_id, key)
            binding.ctx_id = ctx_id
            binding.key = key
            binding.ctx_vaddr = self.vm.map_context_page(space, ctx_id)
        return binding

    def close(self, binding: ProcessBinding) -> None:
        if binding.ctx_id is not None:
            self.hib.contexts[binding.ctx_id].revoke()

    def _alloc_context(self) -> int:
        if self._next_ctx >= len(self.hib.contexts):
            raise RuntimeError(f"node {self.node_id}: out of Telegraphos contexts")
        ctx = self._next_ctx
        self._next_ctx += 1
        return ctx

    def arm_page_counter(self, home: int, gpage: int, kind: str, value: int):
        """Arm an access-counter alarm for a remote page (§2.2.6)."""
        self.hib.page_counters.set_counter((home, gpage), kind, value)

    def map_multicast(self, local_page: int, node: int, remote_page: int):
        """Install an eager-update mapping (§2.2.7)."""
        self.hib.multicast.map_out(local_page, node, remote_page)

    # -- shadow mappings (Telegraphos II) -----------------------------------

    def shadow_for(self, binding: ProcessBinding, vaddr: int) -> int:
        """Shadow vaddr corresponding to ``vaddr`` (mapping it on first
        use — in reality done eagerly at segment-map time)."""
        vpage = self.amap.page_of(vaddr)
        base = binding.shadow_pages.get(vpage)
        if base is None:
            shadow_vaddr = self.vm.map_shadow_of(binding.space, vaddr)
            base = shadow_vaddr - self.amap.page_offset(vaddr)
            binding.shadow_pages[vpage] = base
        return base + self.amap.page_offset(vaddr)

    # -- launch-sequence builders ---------------------------------------------
    #
    # Each returns a generator; use as `result = yield from
    # driver.fetch_and_add(binding, vaddr, 1)` inside a program.

    def fetch_and_add(self, binding: ProcessBinding, vaddr: int, delta: int = 1):
        result = yield from self._atomic(
            binding, SpecialOpcode.FETCH_AND_ADD, vaddr, [delta]
        )
        return result

    def fetch_and_store(self, binding: ProcessBinding, vaddr: int, value: int):
        result = yield from self._atomic(
            binding, SpecialOpcode.FETCH_AND_STORE, vaddr, [value]
        )
        return result

    def compare_and_swap(
        self, binding: ProcessBinding, vaddr: int, expect: int, new: int
    ):
        result = yield from self._atomic(
            binding, SpecialOpcode.COMPARE_AND_SWAP, vaddr, [expect, new]
        )
        return result

    def remote_copy(self, binding: ProcessBinding, src_vaddr: int, dst_vaddr: int):
        """Non-blocking remote copy (§2.2.2); completion via FENCE."""
        if self.prototype == 1:
            yield PalSequence(
                [
                    Store(
                        binding.hib_vaddr + Reg.SPECIAL_MODE,
                        SpecialOpcode.REMOTE_COPY.value,
                    ),
                    Store(src_vaddr, 0),
                    Store(dst_vaddr, 0),
                    Store(binding.hib_vaddr + Reg.SPECIAL_GO, 0),
                ]
            )
            return
        ctx = binding.ctx_vaddr
        arg = Reg.shadow_argument(binding.ctx_id, binding.key)
        yield Store(ctx + Reg.CTX_OPCODE, SpecialOpcode.REMOTE_COPY.value)
        yield Store(self.shadow_for(binding, src_vaddr), arg)
        yield Store(self.shadow_for(binding, dst_vaddr), arg)
        yield Store(ctx + Reg.CTX_GO, 0)

    def _atomic(self, binding, opcode, vaddr, operands):
        if self.prototype == 1:
            ops = [Store(binding.hib_vaddr + Reg.SPECIAL_MODE, opcode.value)]
            ops.extend(Store(vaddr, operand) for operand in operands)
            ops.append(Load(binding.hib_vaddr + Reg.SPECIAL_RESULT))
            result = yield PalSequence(ops)
            return result
        ctx = binding.ctx_vaddr
        yield Store(ctx + Reg.CTX_OPCODE, opcode.value)
        yield Store(ctx + Reg.CTX_OPERAND0, operands[0])
        if len(operands) > 1:
            yield Store(ctx + Reg.CTX_OPERAND1, operands[1])
        yield Store(
            self.shadow_for(binding, vaddr),
            Reg.shadow_argument(binding.ctx_id, binding.key),
        )
        result = yield Load(ctx + Reg.CTX_GO)
        return result
