"""Mechanical memory-model checking for coherence runs.

Engines record every value applied to every copy (``apply`` trace
events); the checker audits those records against the two properties
the paper argues for:

**Subsequence property** (§2.3.3): "Rules 2 and 3 make sure that each
node sees a subset of the values that the owner sees, and sees them in
the proper order."  Per location, the sequence of values a non-owner's
copy takes must be a subsequence of the sequence the owner's copy
takes.  A node's *own* locally applied writes are matched against
their (later) serialization at the owner, which the subsequence test
covers because the owner applies them too.

**No-invalid-sequence property** (§2.4): with each writer writing
distinct values at most once, no observer may see a value *return*
after being overwritten (the "1,2,1" anomaly).  Checked as an A…B…A
pattern scan over an observer's applied-value sequence.

**Convergence**: at quiescence every copy of every page group equals
the home copy.

The first two read the ``apply`` trace events, so they need a cluster
built with ``ClusterConfig(trace=True)`` (the default); with tracing
off they raise ``ValueError`` rather than pass on no evidence.
Convergence reads the backends and works either way.
"""

from __future__ import annotations

import itertools

from typing import Dict, List, Optional, Sequence, Tuple

from repro.coherence.directory import SharingDirectory
from repro.sim.trace import TraceEvent, Tracer

Key = Tuple[int, int, int]  # (home, gpage, in_page)


def is_subsequence(needle: Sequence, haystack: Sequence) -> bool:
    """True iff ``needle`` appears in ``haystack`` in order."""
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def collapse_runs(sequence: Sequence) -> List:
    """Collapse consecutive duplicates: re-applying the value a copy
    already holds is invisible to any reader, so value *timelines*
    compare modulo runs (e.g. a local apply followed by the reflection
    of that same write)."""
    return [value for value, _run in itertools.groupby(sequence)]


def contains_aba(sequence: Sequence) -> Optional[Tuple]:
    """First A…B…A pattern (a value recurring after being overwritten),
    or None.  Under distinct-once writes this is exactly the paper's
    invalid "1,2,1" observation."""
    last_seen: Dict[object, int] = {}
    for index, value in enumerate(sequence):
        if value in last_seen and last_seen[value] != index - 1:
            between = sequence[last_seen[value] + 1 : index]
            if any(v != value for v in between):
                return (value, tuple(between), index)
        last_seen[value] = index
    return None


class CoherenceChecker:
    """Audits a finished (quiescent) simulation run."""

    def __init__(self, tracer: Tracer, directory: SharingDirectory):
        self.tracer = tracer
        self.directory = directory

    # -- raw sequences ---------------------------------------------------

    def _apply_events(self) -> List[TraceEvent]:
        """Every ``apply`` trace event; refused when the tracer is off,
        since it then recorded none."""
        if not self.tracer.enabled:
            raise ValueError(
                "the coherence checker reads apply trace events, which a "
                "cluster records only with ClusterConfig(trace=True)")
        return [e for e in self.tracer.events if e.category == "apply"]

    def applied_values(self, node: int, key: Key) -> List[int]:
        """Values actually written into ``node``'s copy of ``key``, in
        order (ignored updates excluded)."""
        applied_kinds = {
            "local", "update", "reflect", "serialize", "ring",
            "repair", "backoff", "home",
        }
        return [
            e.value
            for e in self._apply_events()
            if e.fields["node"] == node
            and e.fields["key"] == key
            and e.fields["kind"] in applied_kinds
        ]

    def keys_touched(self) -> List[Key]:
        return sorted({e.fields["key"] for e in self._apply_events()})

    # -- the §2.3.3 subsequence property -------------------------------------

    def subsequence_violations(self) -> List[str]:
        """Every node's applied value *timeline* (consecutive
        duplicates collapsed) must be a subsequence of the owner's,
        per location."""
        violations = []
        for key in self.keys_touched():
            home = key[0]
            owner_seq = collapse_runs(self.applied_values(home, key))
            group = self.directory.group(home, key[1])
            if group is None:
                continue
            for node in group.copy_holders:
                if node == home:
                    continue
                node_seq = collapse_runs(self.applied_values(node, key))
                if not is_subsequence(node_seq, owner_seq):
                    violations.append(
                        f"key={key}: node {node} saw {node_seq}, "
                        f"not a subsequence of owner's {owner_seq}"
                    )
        return violations

    # -- the §2.4 invalid-sequence property -------------------------------------

    def aba_observations(self, observer: int) -> List[Tuple[Key, Tuple]]:
        """A…B…A patterns in what ``observer``'s copy went through."""
        found = []
        for key in self.keys_touched():
            pattern = contains_aba(self.applied_values(observer, key))
            if pattern is not None:
                found.append((key, pattern))
        return found

    # -- convergence -------------------------------------------------------------

    def divergent_words(
        self, backends: Dict[int, object], words_per_page: Optional[int] = None
    ) -> List[str]:
        """At quiescence: every copy must equal the home copy.
        ``backends`` maps node -> that node's shared-memory backend.
        """
        problems = []
        page_bytes = self.directory.page_bytes
        n_words = words_per_page or page_bytes // 4
        for group in self.directory.groups():
            home_backend = backends[group.home]
            for in_word in range(n_words):
                in_page = in_word * 4
                expected = home_backend.peek(group.home_offset(in_page))
                for node in group.sharers:
                    got = backends[node].peek(group.local_offset(node, in_page))
                    if got != expected:
                        problems.append(
                            f"group {group.key} +0x{in_page:x}: node {node} "
                            f"has {got}, home has {expected}"
                        )
        return problems
