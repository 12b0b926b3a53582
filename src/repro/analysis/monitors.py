"""Sweep progress monitoring.

The sweep runner reports progress as plain lines
(``[T2/link_prop_ns=200] done``).  A :class:`SweepMonitor` sits in
that callback seat, keeps per-family tallies, and renders a compact
end-of-sweep summary — with parameter grids a sweep is dozens of
points, and "which families moved" is the useful digest, not the
line-per-point scroll.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional

#: Progress lines look like ``[<exp_id>] <event...>``.
_PROGRESS_RE = re.compile(r"\[([^\]\s]+)\]\s+(.*)$")

#: Event word → tally bucket.
_EVENTS = {
    "done": "ran",
    "cached": "cached",
    "FAILED": "failed",
}


class SweepMonitor:
    """A progress callback that tallies events per grid family.

    Drop-in where ``progress=print`` used to go: forwards every line
    to ``emit`` (so the live scroll is unchanged) while accounting
    ``done`` / ``cached`` / ``FAILED`` events under the experiment's
    family (flat specs count as their own family).
    """

    def __init__(self, emit: Optional[Callable[[str], None]] = print):
        self.emit = emit
        #: ``family -> {"ran": n, "cached": n, "failed": n}``.
        self.families: Dict[str, Dict[str, int]] = {}
        self.lines = 0

    def __call__(self, line: str) -> None:
        self.lines += 1
        match = _PROGRESS_RE.match(line)
        if match:
            exp_id, event = match.groups()
            bucket = _EVENTS.get(event.split()[0]) if event else None
            if bucket:
                family = exp_id.split("/", 1)[0]
                tally = self.families.setdefault(
                    family, {"ran": 0, "cached": 0, "failed": 0})
                tally[bucket] += 1
        if self.emit is not None:
            self.emit(line)

    def summary(self) -> str:
        """One line per family that saw any event, in first-seen
        order."""
        if not self.families:
            return "no experiments ran"
        parts = []
        for family, tally in self.families.items():
            counts = ", ".join(
                f"{count} {bucket}"
                for bucket, count in tally.items() if count
            )
            parts.append(f"  {family}: {counts}")
        return "per family:\n" + "\n".join(parts)
