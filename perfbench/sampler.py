"""Statistical host-time attribution to ``repro`` layers.

A :class:`LayerSampler` arms a ``SIGPROF`` interval timer, so the
kernel interrupts the process once per :data:`INTERVAL_S` of consumed
CPU time, rounded up to the kernel's timer tick (4 ms on a 250 Hz
kernel).  Each interrupt walks the Python stack from the innermost
frame outwards and charges the sample to the first frame whose code
lives under ``src/repro/``:

- ``repro/sim/``, ``repro/network/`` and ``repro/hib/`` are split by
  module (``sim.kernel``, ``network.adaptive``, ``hib.reliable``, ...),
  because those are the hot layers whose internals an optimisation
  targets;
- every other package is one layer (``machine``, ``exp``, ...);
  ``repro/params.py`` and the package ``__init__`` files count as
  ``repro``.

A sample with no ``repro`` frame on the stack (the benchmark's own
code, the standard library) goes to ``outside``.  Time spent in C code
(builtins, ``hashlib``) is charged to the Python frame that called it.

The sampler also counts *inclusive* samples of chosen code objects:
samples taken while such a frame is anywhere on the stack.  That is
how the benchmark times ``Cluster.__init__`` inside the sweep, where
the clusters are built by the experiment code rather than by the
benchmark.

Interval timers are per process: they do not survive ``fork``, and the
handler runs only in the main thread.  The sampler adds no thread.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from typing import Dict, Iterable, Optional

#: Packages reported per module rather than as one layer.
SPLIT_PACKAGES = ("sim", "network", "hib")

#: Requested CPU time between samples.
INTERVAL_S = 0.001


class LayerSampler:
    """Context manager: sample host CPU time by ``repro`` layer."""

    def __init__(self, src_root: str, inclusive: Iterable[object] = ()):
        self.prefix = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        #: Samples per layer name (``outside`` for non-repro stacks).
        self.counts: Counter = Counter()
        #: Inclusive samples per watched code object.
        self.inclusive: Dict[object, int] = {code: 0 for code in inclusive}
        self.total = 0
        #: CPU seconds the process used while the sampler was armed.
        self.cpu_s = 0.0
        self._armed_at = 0.0
        self._layers: Dict[str, Optional[str]] = {}
        self._previous = None

    def layer_of(self, filename: str) -> Optional[str]:
        """The layer a source file belongs to, ``None`` outside repro."""
        try:
            return self._layers[filename]
        except KeyError:
            pass
        layer = None
        path = os.path.abspath(filename)
        if path.startswith(self.prefix) and path.endswith(".py"):
            parts = path[len(self.prefix):-3].split(os.sep)
            if len(parts) == 1:
                layer = "repro"
            elif (parts[0] in SPLIT_PACKAGES and len(parts) == 2
                  and parts[1] != "__init__"):
                layer = ".".join(parts)
            else:
                layer = parts[0]
        self._layers[filename] = layer
        return layer

    def _on_sample(self, signum, frame) -> None:
        self.total += 1
        layer = None
        inclusive = self.inclusive
        while frame is not None:
            code = frame.f_code
            if code in inclusive:
                inclusive[code] += 1
            if layer is None:
                layer = self.layer_of(code.co_filename)
            elif not inclusive:
                break
            frame = frame.f_back
        self.counts[layer or "outside"] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        self._armed_at = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu_s += time.process_time() - self._armed_at
        signal.signal(signal.SIGPROF, self._previous)

    def share(self, *layers: str) -> float:
        """Fraction of all samples charged to ``layers`` (0 when no
        sample was taken)."""
        if not self.total:
            return 0.0
        return sum(self.counts[layer] for layer in layers) / self.total

    def layers(self, package: str) -> list:
        """Every sampled layer of one package (``hib`` -> ``hib.hib``,
        ``hib.reliable``, ...)."""
        return [layer for layer in self.counts
                if layer == package or layer.startswith(package + ".")]

    def inclusive_s(self, code: object) -> float:
        """Estimated CPU seconds spent with ``code`` on the stack: its
        share of the samples times the CPU time sampled (the kernel
        rounds the timer to its tick, so samples cannot be counted as
        :data:`INTERVAL_S` each)."""
        if not self.total:
            return 0.0
        return self.inclusive[code] / self.total * self.cpu_s
