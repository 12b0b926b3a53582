"""Discrete-event simulation kernel.

Everything in the Telegraphos reproduction — CPUs, buses, the HIB,
links, switches, the OS model — runs on this kernel.  It provides:

- :class:`~repro.sim.kernel.Simulator`: the event loop, with integer
  nanosecond time.  ``run(until=)`` runs a time slice (or everything);
  ``run_until_done(processes, limit_ns=)`` runs until the given
  processes finish.  A failing process raises ``RuntimeError`` from
  its error out of either, and the next run goes on after it.
- :class:`~repro.sim.kernel.Process`: generator-coroutine processes.
  A process is a Python generator that ``yield``\\ s either a
  non-negative ``int`` delay in nanoseconds or a
  :class:`~repro.sim.kernel.Waitable` (a future or another
  process) and is resumed when the delay elapses or the waitable
  completes.  Nothing else resumes it: the kernel has no interrupts.
- :class:`~repro.sim.kernel.Future`: one-shot completion tokens used
  for request/response interactions (e.g. a blocking remote read).
- :class:`~repro.sim.timers.Timer`: a restartable deadline, the way
  to call an action off; no queued event can be retracted, so every
  ``start`` posts an expiry and a superseded one runs as a no-op.
- :class:`~repro.sim.queues.BoundedQueue`: a FIFO with blocking put
  and get, used to model every back-pressured buffer in the system
  (HIB FIFOs, link credits, switch buffers).  Processes yield on its
  ``put`` and ``get``; callback state machines (links, switch inputs)
  use ``put_then`` and ``get_then``, which make no waitable.
- :func:`~repro.sim.kernel.collector_paused`: pauses CPython's cyclic
  garbage collector while a cluster is built and while a kernel runs.

:mod:`repro.sim.refkernel` holds the pure-heap reference kernel the
tests check :class:`~repro.sim.kernel.Simulator` against; nothing
here selects it.
"""

from repro.sim.kernel import (
    Future,
    Process,
    SimulationDeadlock,
    Simulator,
    Waitable,
    collector_paused,
)
from repro.sim.queues import BoundedQueue
from repro.sim.timers import Timer
from repro.sim.trace import Accumulator, Tally, Tracer

__all__ = [
    "Accumulator",
    "BoundedQueue",
    "Future",
    "Process",
    "SimulationDeadlock",
    "Simulator",
    "collector_paused",
    "Tally",
    "Timer",
    "Tracer",
    "Waitable",
]
