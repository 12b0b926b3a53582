#!/usr/bin/env python3
"""Profiling remote-page access with the hardware counters (§2.2.6).

"By setting the counters to very large values and periodically reading
them, the system can monitor the page access, find hot-spots, display
statistics, and provide useful information for profiling, performance
monitoring and visualization tools."

A client node runs a skewed access stream over eight remote pages; the
driver's counter interface then reads back per-page access counts and
prints a profile, and an alarm armed on the hottest page fires mid-run.

Run:  python examples/hotspot_profiling.py
"""

from repro.api import Cluster, ClusterConfig
from repro.workloads import hot_page_stream

N_PAGES = 8
ACCESSES = 300


def main():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=N_PAGES, name="data")
    proc = cluster.create_process(node=0, name="client")
    base = proc.map(seg)
    driver = cluster.node(0).driver

    # Monitoring mode: arm every page's counters to the maximum.
    for page in range(N_PAGES):
        driver.arm_page_counter(1, seg.gpage + page, "read", 0xFFFF)
        driver.arm_page_counter(1, seg.gpage + page, "write", 0xFFFF)
    # Alarm mode on page 0 (we suspect it is hot): alert after 100.
    alarms = []

    def on_alarm(payload):
        alarms.append((payload, cluster.now))
        yield 0

    cluster.node(0).interrupts.register("page_alarm", on_alarm)
    driver.arm_page_counter(1, seg.gpage + 0, "read", 100)

    pattern = hot_page_stream(ACCESSES, N_PAGES, hot_fraction=0.7, seed=3)
    page_bytes = cluster.amap.page_bytes

    def client(p):
        for page, offset, is_write in pattern.accesses:
            vaddr = base + page * page_bytes + offset
            if is_write:
                yield p.store(vaddr, offset)
            else:
                yield p.load(vaddr)

    cluster.run(join=[cluster.start(proc, client)])

    counters = cluster.node(0).hib.page_counters
    print(f"access profile after {ACCESSES} remote accesses "
          f"({pattern.description}):\n")
    print(f"{'page':>6}{'reads':>8}{'writes':>8}  histogram")
    for page in range(N_PAGES):
        key = (1, seg.gpage + page)
        reads = counters.read_accesses.get(key, 0)
        writes = counters.write_accesses.get(key, 0)
        bar = "#" * ((reads + writes) // 4)
        print(f"{page:>6}{reads:>8}{writes:>8}  {bar}")

    hottest = counters.hottest_pages(3)
    print("\nhottest pages:", ", ".join(
        f"page {key[1] - seg.gpage} ({count} accesses)"
        for key, count in hottest
    ))
    assert hottest[0][0] == (1, seg.gpage)
    if alarms:
        payload, at = alarms[0]
        print(f"\nalarm: page {payload['page'][1] - seg.gpage} crossed its "
              f"{payload['kind']}-counter threshold at {at / 1000.0:.0f} us "
              "- a replication candidate (S2.2.6)")
    assert alarms, "the hot page's alarm should have fired"


if __name__ == "__main__":
    main()
