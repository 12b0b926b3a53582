"""NIC-resident collectives: combining tree + multicast release.

The paper's HIB already owns the two mechanisms a NIC-side collective
needs: an atomic unit at the home of every shared word (§2.2.3) and a
multicast list memory that can fan a packet out to many nodes (§2.2.7).
This module combines them into the collective protocols that the
Quadrics/Myrinet line of NIC-based-collectives work (PAPERS.md) showed
turn O(N) hot-page contention into O(log N) message hops:

**Tree barrier / all-reduce** — group members form a k-ary combining
tree over their ranks (root = rank 0).  Each member's arrival is
latched by its *local* HIB; a HIB that has seen its own arrival plus
one combined ``COLL_JOIN`` per child subtree forwards a single
combined join to its parent.  The root's completion releases the
round: down the tree (``COLL_RELEASE`` per child, O(log N) depth) or
in one shot through the multicast directory (release fan-out = the
directory's destination list).  Reductions ride the same packets: the
join carries the subtree's combined value, the release carries the
result.

**Fetch-and-add combining** — the Ultracomputer idea on the HIB: each
HIB holds a short *combining window* per (home, offset); concurrent
increments arriving within the window (local or from children) merge
into one combined ``COLL_FADD``.  The root applies the total as one
home atomic (:meth:`HIB.home_atomic`, the special-operation unit's
path, so replicas of the word are updated like after any atomic) and
distributes base values back down (``COLL_FADD_REPLY``), assigning
each contributor the prefix sum of the deltas merged before it — so
every caller observes exactly the value it would have seen under some
serial interleaving, and all returned values are distinct.

All collective packets are sent through :meth:`HIB.send`, so under
fault injection they traverse the reliable transport like any other
traffic; an abandoned collective packet fails the group's pending
waiters with :class:`~repro.faults.NodeUnreachableError` (see
:meth:`CollectiveUnit.abandon`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.injector import NodeUnreachableError
from repro.hib.atomic import AtomicOp
from repro.network.packet import Packet, PacketKind
from repro.sim import Future

#: Reduction vocabulary of :meth:`CollectiveUnit.contribute`.  ``bar``
#: is a pure barrier (no value), ``bcast`` keeps the one non-``None``
#: contribution (the broadcast root's).
REDUCE_OPS = ("bar", "sum", "min", "max", "bcast")


def combine_values(op: str, a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Fold two (possibly absent) contributions under ``op``."""
    if a is None:
        return b
    if b is None:
        return a
    if op == "sum":
        return a + b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "bcast":
        raise RuntimeError("broadcast saw two root contributions")
    raise ValueError(f"unknown reduction op {op!r}")


class CollectiveTree:
    """k-ary tree geometry over member ranks, rooted at rank 0."""

    def __init__(self, n: int, radix: int = 2):
        self.n = n
        self.radix = radix

    def parent(self, rank: int) -> Optional[int]:
        return None if rank == 0 else (rank - 1) // self.radix

    def children(self, rank: int) -> List[int]:
        first = self.radix * rank + 1
        return [c for c in range(first, first + self.radix) if c < self.n]

    def depth_of(self, rank: int) -> int:
        depth = 0
        while rank != 0:
            rank = (rank - 1) // self.radix
            depth += 1
        return depth

    def depth(self) -> int:
        """Depth of the deepest member (the release path length)."""
        return self.depth_of(self.n - 1)

    def subtree_size(self, rank: int) -> int:
        size = 1
        for child in self.children(rank):
            size += self.subtree_size(child)
        return size


@dataclass(frozen=True)
class CollectiveGroupSpec:
    """Registration record shared by every member HIB of one group;
    it checks every group option, on both backends, before anything
    is allocated for the group."""

    gid: int
    members: Tuple[int, ...]
    radix: int = 2
    #: ``tree`` — the root releases down the combining tree;
    #: ``multicast`` — the root fans the release out through its
    #: multicast directory entries for ``release_page``.
    release: str = "tree"
    #: Fetch-and-add combining window, ns (0 still combines arrivals
    #: landing at the same instant).
    combine_window_ns: int = 400
    #: Root-local page whose multicast directory entries name the
    #: release destinations (``release="multicast"`` only).
    release_page: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a collective group needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("collective group members must be distinct")
        if self.radix < 1:
            raise ValueError("tree radix must be >= 1")
        if self.release not in ("tree", "multicast"):
            raise ValueError(f"unknown release mode {self.release!r}")
        if self.combine_window_ns < 0:
            raise ValueError("combine window must be >= 0")


class _Round:
    """One in-flight barrier/reduction generation at one HIB."""

    __slots__ = ("op", "count", "value", "waiters", "forwarded")

    def __init__(self) -> None:
        self.op: Optional[str] = None
        self.count = 0
        self.value: Optional[int] = None
        self.waiters: List[Future] = []
        self.forwarded = False


class _FaddWindow:
    """One open/pending fetch-and-add combining window at one HIB."""

    __slots__ = ("win", "key", "total", "entries")

    def __init__(self, win: int, key: Tuple[int, int]):
        self.win = win
        self.key = key  # (home_node, word_offset)
        self.total = 0
        #: ``(local_waiter | None, child_node | None, child_win, prefix)``
        self.entries: List[Tuple[Optional[Future], Optional[int], Optional[int], int]] = []


class _GroupState:
    """Per-HIB view of one registered group."""

    __slots__ = ("spec", "tree", "rank", "parent_node", "children_nodes",
                 "subtree", "local_gen", "rounds", "open_windows",
                 "pending_windows", "win_ids")

    def __init__(self, spec: CollectiveGroupSpec, node_id: int):
        self.spec = spec
        self.tree = CollectiveTree(len(spec.members), spec.radix)
        self.rank = spec.members.index(node_id)
        parent = self.tree.parent(self.rank)
        self.parent_node = None if parent is None else spec.members[parent]
        self.children_nodes = [spec.members[c]
                               for c in self.tree.children(self.rank)]
        self.subtree = self.tree.subtree_size(self.rank)
        self.local_gen = 0
        self.rounds: Dict[int, _Round] = {}
        self.open_windows: Dict[Tuple[int, int], _FaddWindow] = {}
        self.pending_windows: Dict[int, _FaddWindow] = {}
        self.win_ids = itertools.count(1)


class CollectiveUnit:
    """One HIB's collective engine (combining tree + windows)."""

    def __init__(self, hib: Any):
        self.hib = hib
        self.groups: Dict[int, _GroupState] = {}
        self.stats = {
            "rounds": 0,            # completed rounds (root only)
            "joins_sent": 0,        # combined COLL_JOINs forwarded up
            "releases_sent": 0,     # COLL_RELEASEs sent down / fanned out
            "combine_hits": 0,      # contributions merged into existing state
            "fadd_windows": 0,      # combining windows opened
            "fadds_forwarded": 0,   # combined COLL_FADDs forwarded up
            "fadds_applied": 0,     # root applications at the home word
            "release_fanout_max": 0,
            "tree_depth_max": 0,
        }

    # -- registration ---------------------------------------------------

    def register_group(self, spec: CollectiveGroupSpec) -> None:
        if self.hib.node_id not in spec.members:
            raise ValueError(
                f"node {self.hib.node_id} is not a member of group {spec.gid}"
            )
        if spec.gid in self.groups:
            raise ValueError(f"collective group {spec.gid} already registered")
        state = _GroupState(spec, self.hib.node_id)
        self.groups[spec.gid] = state
        self.stats["tree_depth_max"] = max(
            self.stats["tree_depth_max"], state.tree.depth()
        )

    def unregister_group(self, gid: int) -> None:
        self.groups.pop(gid, None)

    def _group(self, gid: int) -> _GroupState:
        group = self.groups.get(gid)
        if group is None:
            raise RuntimeError(
                f"node {self.hib.node_id}: unknown collective group {gid}"
            )
        return group

    # -- barrier / reduction rounds -------------------------------------

    def contribute(self, gid: int, op: str, value: Optional[int]):
        """The local member's arrival; returns the round's result.

        Generator (runs in the arriving CPU's process): latches the
        contribution into this HIB's combine unit, forwards a combined
        join if the subtree is now complete, then blocks on release.
        """
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduction op {op!r}")
        group = self._group(gid)
        gen = group.local_gen
        group.local_gen += 1
        waiter: Future = Future()
        yield 2 * self.hib.params.timing.hib_cycle_ns  # combine-unit latch
        yield from self._absorb(group, gen, op, value, count=1, waiter=waiter)
        result = yield waiter
        return result

    def _absorb(self, group: _GroupState, gen: int, op: str,
                value: Optional[int], count: int,
                waiter: Optional[Future] = None):
        round_ = group.rounds.get(gen)
        if round_ is None:
            round_ = group.rounds[gen] = _Round()
            round_.op = op
        else:
            self.stats["combine_hits"] += 1
            if round_.op != op:
                raise RuntimeError(
                    f"collective group {group.spec.gid} gen {gen}: "
                    f"mixed reduction ops {round_.op!r} vs {op!r}"
                )
        round_.count += count
        round_.value = combine_values(op, round_.value, value)
        if waiter is not None:
            round_.waiters.append(waiter)
        if round_.count == group.subtree and not round_.forwarded:
            round_.forwarded = True
            yield from self._subtree_complete(group, gen, round_)

    def _subtree_complete(self, group: _GroupState, gen: int, round_: _Round):
        timing = self.hib.params.timing
        if group.parent_node is None:
            # Root: the round is globally complete.
            self.stats["rounds"] += 1
            result = round_.value
            group.rounds.pop(gen, None)
            for waiter in round_.waiters:
                waiter.set_result(result)
            round_.waiters = []
            yield from self._release(group, gen, result)
            return
        self.stats["joins_sent"] += 1
        yield timing.hib_inject_ns
        yield from self.hib.send(
            PacketKind.COLL_JOIN, group.parent_node, value=round_.value,
            meta={"gid": group.spec.gid, "gen": gen, "op": round_.op,
                  "count": group.subtree},
        )

    def _release(self, group: _GroupState, gen: int, value: Optional[int]):
        spec = group.spec
        if spec.release == "multicast" and group.parent_node is None:
            # Root fan-out through the multicast directory (§2.2.7).
            targets = sorted({
                node for node, _ in
                self.hib.multicast.destinations(spec.release_page or 0)
                if node != self.hib.node_id
            })
        else:
            targets = group.children_nodes
        self.stats["release_fanout_max"] = max(
            self.stats["release_fanout_max"], len(targets)
        )
        for target in targets:
            self.stats["releases_sent"] += 1
            yield self.hib.params.timing.hib_inject_ns
            yield from self.hib.send(PacketKind.COLL_RELEASE, target,
                                     value=value,
                                     meta={"gid": spec.gid, "gen": gen})

    # -- servant handlers ------------------------------------------------

    def on_join(self, packet: Packet):
        yield self.hib.params.timing.hib_cycle_ns
        meta = packet.meta
        group = self._group(meta["gid"])
        yield from self._absorb(group, meta["gen"], meta["op"],
                                packet.value, count=meta["count"])

    def on_release(self, packet: Packet):
        yield self.hib.params.timing.hib_cycle_ns
        meta = packet.meta
        group = self._group(meta["gid"])
        gen = meta["gen"]
        round_ = group.rounds.pop(gen, None)
        if round_ is not None:
            for waiter in round_.waiters:
                waiter.set_result(packet.value)
            round_.waiters = []
        if group.spec.release == "tree":
            yield from self._release(group, gen, packet.value)

    def on_fadd(self, packet: Packet):
        yield self.hib.params.timing.hib_cycle_ns
        meta = packet.meta
        group = self._group(meta["gid"])
        self._fadd_absorb(group, (meta["home"], meta["offset"]),
                          meta["delta"], child=packet.src,
                          child_win=meta["win"])

    def on_fadd_reply(self, packet: Packet):
        yield self.hib.params.timing.hib_cycle_ns
        meta = packet.meta
        group = self._group(meta["gid"])
        window = group.pending_windows.pop(meta["win"], None)
        if window is None:
            raise RuntimeError(
                f"node {self.hib.node_id}: fadd reply for unknown "
                f"window {meta['win']}"
            )
        yield from self._distribute(group, window, packet.value)

    # -- fetch-and-add combining ----------------------------------------

    def fetch_add(self, gid: int, home: int, offset: int, delta: int):
        """The local member's increment; returns its fetched value."""
        group = self._group(gid)
        self.hib.page_counters.on_access(
            (home, self.hib.amap.page_of(offset)), "write"
        )
        waiter: Future = Future()
        yield 2 * self.hib.params.timing.hib_cycle_ns
        self._fadd_absorb(group, (home, offset), delta, waiter=waiter)
        value = yield waiter
        return value

    def _fadd_absorb(self, group: _GroupState, key: Tuple[int, int],
                     delta: int, waiter: Optional[Future] = None,
                     child: Optional[int] = None,
                     child_win: Optional[int] = None) -> None:
        window = group.open_windows.get(key)
        if window is None:
            window = _FaddWindow(next(group.win_ids), key)
            group.open_windows[key] = window
            self.stats["fadd_windows"] += 1
            self.hib.sim.spawn(
                self._window_closer(group, window),
                name=f"hib{self.hib.node_id}.collwin{window.win}",
            )
        else:
            self.stats["combine_hits"] += 1
        window.entries.append((waiter, child, child_win, window.total))
        window.total += delta

    def _window_closer(self, group: _GroupState, window: _FaddWindow):
        yield group.spec.combine_window_ns
        yield from self._close_window(group, window)

    def _close_window(self, group: _GroupState, window: _FaddWindow):
        if group.open_windows.get(window.key) is window:
            del group.open_windows[window.key]
        home, offset = window.key
        if group.parent_node is None:
            base = yield from self._apply_fadd(home, offset, window.total)
            yield from self._distribute(group, window, base)
            return
        group.pending_windows[window.win] = window
        self.stats["fadds_forwarded"] += 1
        yield self.hib.params.timing.hib_inject_ns
        yield from self.hib.send(
            PacketKind.COLL_FADD, group.parent_node, address=offset,
            meta={"gid": group.spec.gid, "win": window.win, "home": home,
                  "offset": offset, "delta": window.total},
        )

    def _apply_fadd(self, home: int, offset: int, total: int):
        """Root application: one home atomic for the whole combined
        total; returns the base (pre-add) value."""
        self.stats["fadds_applied"] += 1
        base = yield from self.hib.home_atomic(
            home, offset, AtomicOp.FETCH_AND_ADD, total)
        return base

    def _distribute(self, group: _GroupState, window: _FaddWindow, base: int):
        """Hand each merged contributor ``base + prefix``: the value it
        would have fetched under the serial order of the window."""
        for waiter, child, child_win, prefix in window.entries:
            if waiter is not None:
                waiter.set_result(base + prefix)
                continue
            yield self.hib.params.timing.hib_inject_ns
            yield from self.hib.send(
                PacketKind.COLL_FADD_REPLY, child, value=base + prefix,
                meta={"gid": group.spec.gid, "win": child_win},
            )
        window.entries = []

    # -- fault degradation ----------------------------------------------

    def abandon(self, packet: Packet, peer: int) -> bool:
        """A collective packet was abandoned by the reliable transport
        (``peer`` unreachable): fail every pending local waiter of the
        packet's group, so blocked programs see a structured
        :class:`NodeUnreachableError` instead of hanging forever."""
        gid = packet.meta.get("gid")
        group = self.groups.get(gid)
        if group is None:
            return False
        recovered = False
        for round_ in group.rounds.values():
            for waiter in round_.waiters:
                waiter.set_exception(
                    NodeUnreachableError(self.hib.node_id, peer))
                recovered = True
            round_.waiters = []
        windows = list(group.open_windows.values())
        windows.extend(group.pending_windows.values())
        for window in windows:
            for waiter, _child, _cwin, _prefix in window.entries:
                if waiter is not None:
                    waiter.set_exception(
                        NodeUnreachableError(self.hib.node_id, peer))
                    recovered = True
            window.entries = []
        return recovered
