"""Unified collectives API: one interface, two engines.

A :class:`CollectiveGroup` names a set of nodes that synchronize
together.  Each participating process ``join``\\ s the group and gets a
:class:`Collective` handle with a backend-independent surface:

- ``barrier()`` — all members arrive before any is released;
- ``all_reduce(op, value)`` — ``"sum"``/``"min"``/``"max"`` over every
  member's contribution, result returned to all;
- ``broadcast(value, root=0)`` — the root rank's value returned to all;
- ``fetch_add(vaddr, delta)`` — an atomic increment of a shared word
  that returns the fetched (pre-add) value.

Two backends implement that surface; ``ClusterConfig(collectives=...)``
selects one for every group of the cluster:

``host``
    The classic software path over the paper's primitives: a
    sense-reversing counter barrier on one control segment (every
    arrival is a remote fetch&add at the *home* HIB — the single
    serialization point, O(N) traffic per round), reductions folded
    through that same hot segment, ``fetch_add`` a plain §2.2.3 remote
    atomic.

``nic``
    NIC-resident collectives (:mod:`repro.hib.collectives`): arrivals
    combine up a k-ary tree of HIBs, the release travels down the tree
    or fans out through the §2.2.7 multicast directory, and concurrent
    fetch&adds merge in combining windows so the home word is touched
    once per window (≈O(log N) hops per round).

The module is also the home of the point-to-point primitives
(:class:`Mutex`, :class:`Signal`, :func:`counter_barrier_wait`).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.api.shmem import Proc, Segment
from repro.hib.collectives import CollectiveGroupSpec
from repro.machine.ops import CollectiveCall

#: Reduction names accepted by :meth:`Collective.all_reduce`.
REDUCTIONS = ("sum", "min", "max")


# -- point-to-point primitives -----------------------------------------


class Mutex:
    """A test-and-set spin lock on one shared word.

    ``acquire``/``release`` are generators to ``yield from`` inside a
    program.  The lock word must start at 0 (unlocked).
    """

    def __init__(self, proc: Proc, vaddr: int, backoff_ns: int = 2000):
        self.proc = proc
        self.vaddr = vaddr
        self.backoff_ns = backoff_ns
        self.acquisitions = 0
        self.spins = 0

    def acquire(self):
        while True:
            old = yield from self.proc.compare_and_swap(self.vaddr, 0, 1)
            if old == 0:
                self.acquisitions += 1
                # The atomic's reply orders us after prior owners; the
                # §2.3.5 FENCE on acquire completes our own pre-lock
                # accesses before entering the critical section.
                yield self.proc.fence()
                return
            self.spins += 1
            yield self.proc.think(self.backoff_ns)

    def release(self):
        # FENCE first: every write made inside the critical section
        # must complete before the lock is observably free (§2.3.5's
        # UNLOCK(flag) example).
        yield self.proc.fence()
        yield self.proc.store(self.vaddr, 0)


class Signal:
    """A producer/consumer flag: the §2.3.5 example made safe.

    ``raise_signal`` embeds the FENCE, so a consumer that saw the flag
    can never read stale data — the exact fix the paper prescribes for
    its write(data)/write(flag) anomaly.
    """

    def __init__(self, proc: Proc, vaddr: int, poll_ns: int = 2000):
        self.proc = proc
        self.vaddr = vaddr
        self.poll_ns = poll_ns

    def raise_signal(self, value: int = 1):
        yield self.proc.fence()
        yield self.proc.store(self.vaddr, value)

    def raise_signal_unsafe(self, value: int = 1):
        """The buggy §2.3.5 pattern (no fence) — kept for the
        experiment that demonstrates the anomaly."""
        yield self.proc.store(self.vaddr, value)

    def await_value(self, value: int = 1):
        while True:
            current = yield self.proc.load(self.vaddr)
            if current == value:
                return
            yield self.proc.think(self.poll_ns)


def counter_barrier_wait(proc: Proc, count_vaddr: int, gen_vaddr: int,
                         n_parties: int, poll_ns: int = 2000):
    """One wait on a sense-reversing counter barrier (two shared
    words: a fetch&add arrival counter and a generation number spun on
    with remote reads)."""
    yield proc.fence()  # §2.3.5: my writes complete before I arrive
    generation = yield proc.load(gen_vaddr)
    arrived = yield from proc.fetch_and_add(count_vaddr, 1)
    if arrived == n_parties - 1:
        # Last arrival: reset the counter, then advance the
        # generation; the fence orders the two remote writes.
        yield proc.store(count_vaddr, 0)
        yield proc.fence()
        yield proc.store(gen_vaddr, generation + 1)
        return
    while True:
        current = yield proc.load(gen_vaddr)
        if current != generation:
            return
        yield proc.think(poll_ns)


# -- the unified collective surface -------------------------------------


class Collective:
    """One member's handle on a :class:`CollectiveGroup`.

    All methods are generators to ``yield from`` inside a program.
    """

    def __init__(self, proc: Proc, n_parties: int, rank: int):
        self.proc = proc
        self.n_parties = n_parties
        #: This member's rank in the group's member order.
        self.rank = rank

    def barrier(self):
        raise NotImplementedError

    def all_reduce(self, op: str, value: int):
        raise NotImplementedError

    def broadcast(self, value: Optional[int], root: int = 0):
        raise NotImplementedError

    def fetch_add(self, vaddr: int, delta: int = 1):
        raise NotImplementedError


# Control-segment word layout of the host backend, byte offsets.
_CNT = 0     # barrier arrival counter (fetch&add)
_GEN = 4     # barrier generation (spun on with remote reads)
_ACC = 8     # reduction accumulator
_CNT2 = 12   # reduction contribution count (min/max seeding)
_RES = 16    # published reduction result
_LOCK = 20   # min/max combine lock
_BC = 24     # broadcast slot


class HostCollective(Collective):
    """Software collectives over the paper's primitives.

    Every operation funnels through one control segment at the home
    node: O(N) remote atomics and poll reads per round, all serialized
    at the home HIB — the baseline the NIC backend is measured against.
    """

    def __init__(self, proc: Proc, n_parties: int, rank: int, base: int,
                 poll_ns: int = 2000):
        super().__init__(proc, n_parties, rank)
        self.base = base
        self.poll_ns = poll_ns

    def barrier(self):
        yield from counter_barrier_wait(
            self.proc, self.base + _CNT, self.base + _GEN,
            self.n_parties, self.poll_ns,
        )

    def all_reduce(self, op: str, value: int):
        if op not in REDUCTIONS:
            raise ValueError(f"unknown reduction op {op!r}")
        proc, base = self.proc, self.base
        yield proc.fence()
        generation = yield proc.load(base + _GEN)
        if op == "sum":
            yield from proc.fetch_and_add(base + _ACC, value)
        else:
            # min/max: lock-serialized combine; CNT2 distinguishes the
            # seeding contribution from folds into it.
            while True:
                old = yield from proc.compare_and_swap(base + _LOCK, 0, 1)
                if old == 0:
                    break
                yield proc.think(self.poll_ns)
            seen = yield proc.load(base + _CNT2)
            if seen == 0:
                yield proc.store(base + _ACC, value)
            else:
                current = yield proc.load(base + _ACC)
                folded = min(current, value) if op == "min" else max(current, value)
                yield proc.store(base + _ACC, folded)
            yield proc.store(base + _CNT2, seen + 1)
            yield proc.fence()
            yield proc.store(base + _LOCK, 0)
        arrived = yield from proc.fetch_and_add(base + _CNT, 1)
        if arrived == self.n_parties - 1:
            total = yield proc.load(base + _ACC)
            yield proc.store(base + _RES, total)
            yield proc.store(base + _ACC, 0)
            yield proc.store(base + _CNT2, 0)
            yield proc.store(base + _CNT, 0)
            yield proc.fence()
            yield proc.store(base + _GEN, generation + 1)
            return total
        while True:
            current = yield proc.load(base + _GEN)
            if current != generation:
                break
            yield proc.think(self.poll_ns)
        # RES cannot be overwritten before we re-enter: the next
        # round's publisher needs *our* next arrival first.
        result = yield proc.load(base + _RES)
        return result

    def broadcast(self, value: Optional[int], root: int = 0):
        proc, base = self.proc, self.base
        if self.rank == root:
            if value is None:
                raise ValueError("broadcast root must supply a value")
            yield proc.store(base + _BC, value)
            # counter_barrier_wait's entry fence completes the slot
            # write before our arrival; non-roots read it only after
            # the release, i.e. after every arrival.
        yield from self.barrier()
        result = yield proc.load(base + _BC)
        return result

    def fetch_add(self, vaddr: int, delta: int = 1):
        value = yield from self.proc.fetch_and_add(vaddr, delta)
        return value


class NicCollective(Collective):
    """NIC-resident collectives: one TurboChannel transaction hands
    the operation to the HIB combining tree."""

    def __init__(self, proc: Proc, n_parties: int, rank: int, gid: int):
        super().__init__(proc, n_parties, rank)
        self.gid = gid

    def barrier(self):
        yield CollectiveCall(self.gid, "bar")

    def all_reduce(self, op: str, value: int):
        if op not in REDUCTIONS:
            raise ValueError(f"unknown reduction op {op!r}")
        result = yield CollectiveCall(self.gid, op, value)
        return result

    def broadcast(self, value: Optional[int], root: int = 0):
        if self.rank == root and value is None:
            raise ValueError("broadcast root must supply a value")
        contribution = value if self.rank == root else None
        result = yield CollectiveCall(self.gid, "bcast", contribution)
        return result

    def fetch_add(self, vaddr: int, delta: int = 1):
        value = yield CollectiveCall(self.gid, "fadd", delta, vaddr)
        return value


class CollectiveGroup:
    """A named set of nodes that synchronize together.

    Built by :meth:`repro.api.cluster.Cluster.collective_group`; each
    participating process calls :meth:`join` to get its
    :class:`Collective` handle.  The backend is the cluster's
    ``config.collectives``.
    """

    def __init__(self, cluster, name: str, nodes: Sequence[int],
                 radix: int = 2, release: str = "tree",
                 combine_window_ns: int = 400):
        # Every option is checked here, on both backends, before
        # anything is allocated; the NIC backend then fills in its gid
        # and release page.
        spec = CollectiveGroupSpec(
            gid=0, members=tuple(nodes), radix=radix, release=release,
            combine_window_ns=combine_window_ns,
        )
        backend = cluster.config.collectives
        members = spec.members
        self.cluster = cluster
        self.name = name
        self.members = members
        self.backend = backend
        self.gid: Optional[int] = None
        self.segment: Optional[Segment] = None
        self._release_page: Optional[int] = None
        self._closed = False
        if backend == "host":
            self.segment = cluster.alloc_segment(
                home=members[0], pages=1, name=f"coll.{name}"
            )
        else:
            self.gid = cluster._next_collective_gid()
            if release == "multicast":
                # The root's release rides its §2.2.7 multicast
                # directory: one local page mapped out to every other
                # member names the fan-out set.
                root = cluster.node(members[0])
                self._release_page = root.vm.alloc_backend_pages(1)
                for member in members[1:]:
                    root.hib.multicast.map_out(self._release_page, member,
                                              self._release_page)
            self.spec = dataclasses.replace(
                spec, gid=self.gid, release_page=self._release_page)
            for member in members:
                cluster.node(member).hib.coll.register_group(self.spec)

    def join(self, proc: Proc) -> Collective:
        """This process's handle on the group (the process must run on
        a member node)."""
        if self._closed:
            raise RuntimeError(f"collective group {self.name!r} is closed")
        if proc.node_id not in self.members:
            raise ValueError(
                f"process {proc.name!r} runs on node {proc.node_id}, "
                f"not a member of group {self.name!r}"
            )
        rank = self.members.index(proc.node_id)
        if self.backend == "host":
            base = proc.map(self.segment)
            return HostCollective(proc, len(self.members), rank, base)
        return NicCollective(proc, len(self.members), rank, self.gid)

    def close(self) -> None:
        """Tear down NIC-side registrations (and the multicast
        release-page mapping)."""
        if self._closed:
            return
        self._closed = True
        if self.backend == "nic":
            for member in self.members:
                self.cluster.node(member).hib.coll.unregister_group(self.gid)
            if self._release_page is not None:
                root = self.cluster.node(self.members[0])
                root.hib.multicast.unmap_page(self._release_page)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CollectiveGroup {self.name!r} backend={self.backend} "
            f"members={self.members}>"
        )
