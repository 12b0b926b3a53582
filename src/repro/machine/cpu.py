"""The processor model.

Executes user programs (generators yielding
:mod:`~repro.machine.ops` operations), with the properties the paper's
arguments rest on:

- **loads block, stores stream** (§2.2.1): a load waits for its value
  (a remote load for the full round trip); a store completes as soon
  as the target latches it (the HIB latches TurboChannel stores).
- **protection via the MMU** (§2.2.4): every access translates through
  the active address space; faults go to the OS fault handler, which
  may fix the mapping and retry, or kill the program.
- **PAL sequences** (§2.2.4, Telegraphos I): a :class:`PalSequence`
  executes with preemption deferred, like Alpha PAL code.
- **preemption at instruction boundaries**: the scheduler can switch
  programs between operations — the hazard that motivates both PAL
  launching (Tg I) and Telegraphos contexts (Tg II).

The CPU does not know about the HIB specifically: anything outside
local DRAM is handed to an ``io_device`` implementing the small
TurboChannel-slave protocol (``tc_store`` / ``tc_load`` / ``tc_fence``
/ ``tc_collective`` generator methods).  The CPU translates addresses;
the device decodes which physical regions are shared memory.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from repro.faults.injector import NodeUnreachableError
from repro.machine.addresses import AddressMap, Region
from repro.machine.bus import Bus
from repro.machine.cache import DirectMappedCache
from repro.machine.memory import WordMemory
from repro.machine.mmu import MMU, AddressSpace, PageFault
from repro.machine.ops import (
    CollectiveCall,
    Fence,
    Load,
    PalSequence,
    Store,
    Think,
)
from repro.params import Params
from repro.sim import Future, Process, Simulator


class ProtectionViolation(Exception):
    """Thrown into a user program when the OS declines to fix a fault."""

    def __init__(self, fault: PageFault):
        super().__init__(str(fault))
        self.fault = fault


class ProgramContext:
    """Bookkeeping for one program running (or runnable) on a CPU."""

    _ids = itertools.count()

    def __init__(self, name: str, address_space: AddressSpace):
        self.name = name
        self.address_space = address_space
        self.context_id = next(self._ids)
        self.wake: Optional[Future] = None
        self.process: Optional[Process] = None


class CPU:
    """One workstation's processor."""

    def __init__(
        self,
        sim: Simulator,
        params: Params,
        node_id: int,
        amap: AddressMap,
        dram: WordMemory,
        membus: Bus,
        io_device: Any,
        cache: Optional[DirectMappedCache] = None,
        tracer: Optional[Any] = None,
    ):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.amap = amap
        self.dram = dram
        self.membus = membus
        self.io = io_device
        self.cache = cache or DirectMappedCache()
        self.mmu = MMU(amap)
        #: Optional :class:`~repro.sim.Tracer` for ``cpu_op`` lane
        #: spans (recorded only when ``tracer.lanes`` is set).
        self.tracer = tracer
        # Node-lifetime counters, over every program this CPU runs.
        self.ops_executed = 0
        self.loads = 0
        self.stores = 0
        self.fences = 0
        #: Time this CPU spent stalled in blocking I/O loads — the
        #: §2.2.1 read-latency exposure, directly comparable to the
        #: paper's 7.2 µs remote read.
        self.io_stall_ns = 0
        #: OS hook: ``fault_handler(ctx, fault)`` is a generator that
        #: returns "retry" (mapping fixed) or "kill".
        self.fault_handler: Optional[Callable[[ProgramContext, PageFault], Any]] = None
        self.current: Optional[ProgramContext] = None
        #: Program the scheduler wants running; the switch happens at
        #: the current program's next operation boundary.
        self._desired: Optional[ProgramContext] = None
        self._in_pal = False
        self.programs: Dict[str, ProgramContext] = {}

    # -- program lifecycle ----------------------------------------------

    def start_program(self, body, address_space: AddressSpace, name: str) -> ProgramContext:
        """Begin executing ``body`` (a generator of operations).

        If the CPU is idle the program becomes current immediately;
        otherwise it waits until the scheduler switches to it.
        """
        if name in self.programs:
            raise ValueError(f"duplicate program name {name!r} on node {self.node_id}")
        ctx = ProgramContext(name, address_space)
        self.programs[name] = ctx
        if self.current is None:
            self._make_current(ctx)
        ctx.process = self.sim.spawn(
            self._interpret(body, ctx), name=f"cpu{self.node_id}.{name}"
        )
        return ctx

    def switch_to(self, ctx: ProgramContext) -> None:
        """Scheduler entry point: make ``ctx`` the running program.

        The switch is *deferred* to the current program's next
        operation boundary (instruction-granular preemption), so a
        PAL sequence always completes first — only one program ever
        executes at a time.
        """
        if ctx.name not in self.programs:
            raise KeyError(f"unknown program {ctx.name!r}")
        if self.current is None:
            self._desired = None
            self._make_current(ctx)
        elif ctx is self.current:
            self._desired = None
        else:
            self._desired = ctx

    def _make_current(self, ctx: ProgramContext) -> None:
        self.current = ctx
        self.mmu.activate(ctx.address_space)
        if ctx.wake is not None and not ctx.wake.done:
            ctx.wake.set_result(None)

    # -- the interpreter -------------------------------------------------------

    def _interpret(self, body, ctx: ProgramContext):
        result: Any = None
        throw: Optional[BaseException] = None
        while True:
            # Preemption point: honour a deferred switch request, then
            # park while another program is current.  ``_desired`` is
            # almost always ``None``, so it gates the compound test.
            if (
                self._desired is not None
                and self.current is ctx
                and self._desired is not ctx
            ):
                target, self._desired = self._desired, None
                self._make_current(target)
            while self.current is not ctx:
                ctx.wake = Future()
                yield ctx.wake
            try:
                if throw is not None:
                    error, throw = throw, None
                    op = body.throw(error)
                else:
                    op = body.send(result)
            except StopIteration as stop:
                self._release(ctx)
                return getattr(stop, "value", None)
            tracer = self.tracer
            lanes = tracer is not None and tracer.lanes and tracer.enabled
            began = self.sim.now if lanes else 0
            try:
                result = yield from self._execute(op, ctx)
                if lanes:
                    tracer.span(
                        "cpu_op", began, node=self.node_id,
                        program=ctx.name, op=type(op).__name__,
                    )
            except PageFault as fault:
                verdict = yield from self._handle_fault(ctx, fault)
                if verdict == "retry":
                    result = yield from self._execute(op, ctx)
                else:
                    throw = ProtectionViolation(fault)
                    result = None
            except NodeUnreachableError as err:
                # The retry protocol declared the home node dead while
                # this program's operation was pending (fault
                # injection).  Delivered into the program like a bus
                # error — catchable; uncaught it kills the program.
                throw = err
                result = None

    def _release(self, ctx: ProgramContext) -> None:
        self.programs.pop(ctx.name, None)
        if self._desired is ctx:
            self._desired = None
        if self.current is ctx:
            self.current = None
            if self._desired is not None:
                target, self._desired = self._desired, None
                self._make_current(target)
            else:
                # Hand the CPU to any parked program, oldest first.
                waiting = sorted(self.programs.values(), key=lambda c: c.context_id)
                if waiting:
                    self._make_current(waiting[0])

    def _handle_fault(self, ctx: ProgramContext, fault: PageFault):
        if self.fault_handler is None:
            return "kill"
        verdict = yield from self.fault_handler(ctx, fault)
        return verdict

    # -- operation execution ----------------------------------------------------

    def _execute(self, op, ctx: ProgramContext):
        """Count and run one operation: every op a program yields, a
        faulted op's retry and each op inside a PAL sequence comes
        through here, so a sequence counts once plus once per op."""
        timing = self.params.timing
        self.ops_executed += 1
        if isinstance(op, Think):
            yield max(0, op.ns)
            return None
        if isinstance(op, Load):
            self.loads += 1
            yield timing.cpu_issue_ns
            value = yield from self._load(op.vaddr, ctx)
            return value
        if isinstance(op, Store):
            self.stores += 1
            yield timing.cpu_issue_ns
            yield from self._store(op.vaddr, op.value, ctx)
            return None
        if isinstance(op, Fence):
            self.fences += 1
            yield timing.cpu_issue_ns
            began = self.sim.now
            yield from self.io.tc_fence()
            self.io_stall_ns += self.sim.now - began
            return None
        if isinstance(op, CollectiveCall):
            yield timing.cpu_issue_ns
            phys = None
            if op.vaddr is not None:
                phys, _pte, tlb_hit = self.mmu.translate(op.vaddr, True)
                if not tlb_hit:
                    yield from self._walk_penalty()
            began = self.sim.now
            result = yield from self.io.tc_collective(
                op.group, op.op, op.value, phys)
            self.io_stall_ns += self.sim.now - began
            return result
        if isinstance(op, PalSequence):
            return (yield from self._execute_pal(op, ctx))
        raise TypeError(f"program {ctx.name!r} yielded unknown op {op!r}")

    def _execute_pal(self, seq: PalSequence, ctx: ProgramContext):
        """Run a PAL sequence: no preemption between its operations.

        A fault inside PAL propagates out (the OS will terminate the
        process and restore the HIB, per §2.2.4's footnote) — PAL
        defers *preemption*, not protection.
        """
        if self._in_pal:
            raise RuntimeError("nested PAL sequences are not allowed")
        self._in_pal = True
        try:
            result = None
            for op in seq.ops:
                result = yield from self._execute(op, ctx)
            return result
        finally:
            self._in_pal = False

    # -- physical dispatch ---------------------------------------------------------

    def _load(self, vaddr: int, ctx: ProgramContext):
        timing = self.params.timing
        phys, pte, tlb_hit = self.mmu.translate(vaddr, False)
        if not tlb_hit:
            yield from self._walk_penalty()
        decoded = self.amap.decode(phys)
        if decoded.region is Region.DRAM:
            if pte.cacheable and self.cache.lookup(decoded.offset):
                yield timing.cache_hit_ns
                return self.dram.load_word(decoded.offset)
            yield from self.membus.transact(timing.mem_read_ns)
            return self.dram.load_word(decoded.offset)
        began = self.sim.now
        value = yield from self.io.tc_load(phys)
        self.io_stall_ns += self.sim.now - began
        return value

    def _store(self, vaddr: int, value: int, ctx: ProgramContext):
        timing = self.params.timing
        phys, pte, tlb_hit = self.mmu.translate(vaddr, True)
        if not tlb_hit:
            yield from self._walk_penalty()
        decoded = self.amap.decode(phys)
        if decoded.region is Region.DRAM:
            if pte.cacheable:
                self.cache.touch_write(decoded.offset)
            yield from self.membus.transact(timing.mem_write_ns)
            self.dram.store_word(decoded.offset, value)
            return
        yield from self.io.tc_store(phys, value)

    def _walk_penalty(self):
        """Page-table walk on a TLB miss: two dependent DRAM reads."""
        timing = self.params.timing
        yield from self.membus.transact(2 * timing.mem_read_ns)
