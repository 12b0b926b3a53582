"""Alarm-based page replication (§2.2.6).

"By setting the counters to small values, the operating system can
implement alarm-based replication: when the number of accesses exceeds
a predetermined value, the operating system is notified in order to
make a replication decision."

The policy arms the write/read counters of watched remote pages; on a
page-alarm interrupt it replicates the page locally: it allocates a
backend page, pays the fetch cost (OS fault path + one page crossing
the network), registers the replica in the sharing directory (the
owner's engine will reflect future updates here), and retargets every
process mapping of that page from the remote window to the local copy
— after which reads that used to cost a full network round trip cost a
local access.  That is the entire point of the mechanism, measured in
:mod:`repro.exp.experiments.s6_replication`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.coherence.directory import SharingDirectory
from repro.hib.backend import copy_page
from repro.machine.mmu import PageTableEntry
from repro.os.kernel import NodeOS
from repro.os.vm import VirtualMemoryManager
from repro.params import Params


class AlarmReplicationPolicy:
    """One node's replication policy."""

    def __init__(
        self,
        node_os: NodeOS,
        vm: VirtualMemoryManager,
        directory: SharingDirectory,
        params: Params,
        remote_backends: Dict[int, object],
        threshold: int = 64,
    ):
        self.node_os = node_os
        self.vm = vm
        self.directory = directory
        self.params = params
        self.remote_backends = remote_backends
        self.threshold = threshold
        self.replicated: Set[Tuple[int, int]] = set()
        self.replications = 0
        node_os.on_interrupt("page_alarm", self._on_alarm)

    # -- arming -----------------------------------------------------------

    def watch(self, home: int, gpage: int, threshold: Optional[int] = None) -> None:
        """Arm the counters of a remote page with the alarm threshold."""
        t = threshold if threshold is not None else self.threshold
        hib = self.node_os.hib
        hib.page_counters.set_counter((home, gpage), "read", t)
        hib.page_counters.set_counter((home, gpage), "write", t)

    # -- the alarm handler -------------------------------------------------------

    def _on_alarm(self, payload):
        home, gpage = payload["page"]
        if (home, gpage) in self.replicated:
            return
        self.replicated.add((home, gpage))
        yield from self._replicate(home, gpage)

    def _replicate(self, home: int, gpage: int):
        timing = self.params.timing
        node_id = self.node_os.node_id
        group = self.directory.group(home, gpage)
        if group is None:
            group = self.directory.create_group(home, gpage)
        if group.holds_copy(node_id):
            return
        local_page = self.vm.alloc_backend_pages(1)

        # Fetch the page: OS request to the home node plus the page
        # crossing the network (a bulk of remote-copy DMA).
        page_bytes = self.directory.page_bytes
        yield timing.os_fault_ns
        yield self.params.timing.serialization_ns(page_bytes)

        copy_page(self.remote_backends[home], gpage,
                  self.node_os.hib.backend, local_page, page_bytes)
        self.directory.add_replica(group, node_id, local_page)
        self.replications += 1

        # Retarget every mapping of the page to the local copy.
        amap = self.vm.amap
        for mapping in self.node_os.mappings_of(home, gpage):
            old = mapping.space.entry_for(mapping.vpage)
            mapping.space.map_page(
                mapping.vpage,
                PageTableEntry(
                    amap.mpm(amap.page_base(local_page)),
                    writable=old.writable if old else True,
                    shared_id=(home, gpage),
                ),
            )
