"""Kernel observation hooks and the event-loop profiler.

The :class:`~repro.sim.Simulator` accepts one :class:`KernelHooks`
object (``sim.hooks``) whose callbacks fire on event scheduling and
execution, on each move of the clock, and around each
:meth:`~repro.sim.Simulator.run` and
:meth:`~repro.sim.Simulator.run_until_done` call.  The default is
``None`` — the kernel's run loop pays one ``is not None`` test per
event, so simulations that do not profile lose next to nothing.

:class:`EventLoopProfiler` is the stock implementation: it answers
"where does simulation *wall-clock* time go?" — events executed per
wall second, peak queue depth, and the hottest callbacks by
invocation count, one line per pipeline stage (a CPU interpreter
step, a HIB service step, a switch pump's slot claim, a link's
arrival...).  That is the view needed to optimise the simulator
itself, complementing the :class:`~repro.obs.metrics.MetricsRegistry`,
which observes the *simulated machine*.
"""

from __future__ import annotations

import functools
import re
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class KernelHooks:
    """Base class: every callback is a no-op.  Subclass and override.

    The kernel invokes, in order: :meth:`on_run_start` when a
    :meth:`~repro.sim.Simulator.run` or
    :meth:`~repro.sim.Simulator.run_until_done` call begins,
    :meth:`on_schedule` for every event queued, :meth:`on_advance`
    just before ``sim.now`` moves from ``old_ns`` to a later ``new_ns``
    (before any event there runs; ``run(until=)``'s final move too),
    :meth:`on_execute` for every event executed, and :meth:`on_run_end`
    when the call returns or raises.  One call is one run however many
    events it executes, so a ``Cluster.run(join=...)`` is two runs: the
    join and the drain after it.
    """

    def on_run_start(self, sim) -> None:
        pass

    def on_schedule(self, sim, time_ns: int, fn: Callable) -> None:
        pass

    def on_advance(self, sim, old_ns: int, new_ns: int) -> None:
        pass

    def on_execute(self, sim, time_ns: int, fn: Callable) -> None:
        pass

    def on_run_end(self, sim, executed: int) -> None:
        pass


#: An innermost parenthesised group in a process name (a switch's
#: coordinates or a port label), and a node id.
_GROUP = re.compile(r"\([^()]*\)")
_DIGITS = re.compile(r"\d+")


@functools.lru_cache(maxsize=1024)
def _stage_name(name: str) -> str:
    """A process name with node ids, coordinates and port labels
    removed from each dotted part: ``hib3.retx.5.req`` becomes
    ``hib.retx.req``, one label for every node's retransmitter."""
    previous = None
    while name != previous:
        previous, name = name, _GROUP.sub("", name)
    parts = (_DIGITS.sub("", part) for part in name.split("."))
    return ".".join(part for part in parts if part)


def _callback_label(fn: Callable) -> str:
    """A stable, human-readable identity for an event callback: the
    qualified name of a callback (``Link._arrive``, ``Voq.claim``), or
    the stage of a process step (``process:hib.svc``)."""
    name = getattr(fn, "__qualname__", None)
    if name is None:  # pragma: no cover - exotic callables
        return repr(fn)
    self = getattr(fn, "__self__", None)
    # Every process step has one qualname; its process's name says
    # which stage it belongs to.
    obj_name = getattr(self, "name", None)
    if obj_name is not None and name.startswith("Process."):
        return f"process:{_stage_name(obj_name)}"
    return name


class EventLoopProfiler(KernelHooks):
    """Profiles the discrete-event kernel itself."""

    def __init__(self):
        self.events_scheduled = 0
        self.events_executed = 0
        #: Peak of :attr:`_depth`, sampled after each event.
        self.max_queue_depth = 0
        #: Events scheduled and not yet executed: exact, because every
        #: queued event runs once.
        self._depth = 0
        self.runs = 0
        self.wall_seconds = 0.0
        self.callback_counts: Dict[str, int] = {}
        self._run_started: Optional[float] = None

    # -- KernelHooks ----------------------------------------------------

    def on_run_start(self, sim) -> None:
        self.runs += 1
        depth = self._depth = sim.pending_events
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self._run_started = time.perf_counter()

    def on_schedule(self, sim, time_ns: int, fn: Callable) -> None:
        self.events_scheduled += 1
        self._depth += 1

    def on_execute(self, sim, time_ns: int, fn: Callable) -> None:
        # Sampled once an event is done, the depth is the most it
        # reached while the event ran: what it scheduled is queued, and
        # it is not.  So both kernels report one peak, however they
        # batch.
        self.events_executed += 1
        depth = self._depth = self._depth - 1
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        label = _callback_label(fn)
        self.callback_counts[label] = self.callback_counts.get(label, 0) + 1

    def on_run_end(self, sim, executed: int) -> None:
        if self._run_started is not None:
            self.wall_seconds += time.perf_counter() - self._run_started
            self._run_started = None

    # -- reporting ------------------------------------------------------

    @property
    def events_per_second(self) -> float:
        """Executed events per *wall-clock* second across all runs."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.wall_seconds

    def hottest_callbacks(self, top: int = 10) -> List[Tuple[str, int]]:
        ranked = sorted(self.callback_counts.items(), key=lambda kv: -kv[1])
        return ranked[:top]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "events_scheduled": self.events_scheduled,
            "events_executed": self.events_executed,
            "max_queue_depth": self.max_queue_depth,
            "runs": self.runs,
            "wall_seconds": self.wall_seconds,
            "events_per_second": self.events_per_second,
            "hottest_callbacks": self.hottest_callbacks(),
        }

    def render(self, top: int = 10) -> str:
        lines = [
            "Event-loop profile",
            f"  events executed : {self.events_executed}"
            f" (scheduled {self.events_scheduled})",
            f"  peak queue depth: {self.max_queue_depth}",
            f"  wall time       : {self.wall_seconds * 1000.0:.1f} ms"
            f" over {self.runs} run(s)",
            f"  throughput      : {self.events_per_second:,.0f} events/s",
        ]
        hot = self.hottest_callbacks(top)
        if hot:
            lines.append(f"  hottest callbacks (top {len(hot)}):")
            width = max(len(label) for label, _ in hot)
            lines.extend(f"    {label:<{width}}  {count}"
                         for label, count in hot)
        return "\n".join(lines)
