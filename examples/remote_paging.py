#!/usr/bin/env python3
"""Remote memory paging over Telegraphos (the [21] use case).

§2.2.6 cites the authors' companion study "Using Remote Memory to
avoid Disk Thrashing": a workstation that is out of RAM pages to an
idle *memory server's* RAM across the Telegraphos network instead of
to its disk.  The key enabler is the non-blocking remote copy
(§2.2.2): a page-in is a burst of remote copies (prefetch) that
overlap, completed by a single FENCE — versus a ~10 ms disk seek.

Run:  python examples/remote_paging.py
"""

from repro.api import Cluster, ClusterConfig

PAGE_WORDS = 128          # one "page" worth of words to fetch
DISK_SEEK_US = 10_000.0   # mid-90s disk: ~10 ms seek + rotation


def main():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    # The memory server (node 1) holds the paged-out page.
    server_page = cluster.alloc_segment(home=1, pages=1, name="swapped")
    for i in range(PAGE_WORDS):
        server_page.poke(4 * i, 0xC0DE + i)

    client = cluster.create_process(node=0, name="pager")
    remote_base = client.map(server_page)
    # The local frame the page is fetched into.
    local_frame = cluster.alloc_segment(home=0, pages=1, name="frame")
    local_base = client.map(local_frame)
    timings = {}

    def page_in(p):
        # Page-in via pipelined remote copies: each launch returns
        # immediately (§2.2.2 "it returns control to the processor
        # without waiting for the completion of the operation").
        start = cluster.now
        for i in range(PAGE_WORDS):
            yield from p.remote_copy(remote_base + 4 * i, local_base + 4 * i)
        timings["launched"] = cluster.now - start
        yield p.fence()
        timings["complete"] = cluster.now - start
        # The page is now local: verify and read at local speed.
        start = cluster.now
        value = yield p.load(local_base)
        timings["local_read"] = cluster.now - start
        assert value == 0xC0DE

    cluster.run_programs([cluster.start(client, page_in)])

    for i in range(PAGE_WORDS):
        assert local_frame.peek(4 * i) == 0xC0DE + i

    fetched_us = timings["complete"] / 1000.0
    print(f"paged in {PAGE_WORDS * 4} bytes from the memory server:")
    print(f"  copy launches issued in  {timings['launched'] / 1000.0:8.1f} us")
    print(f"  page resident after      {fetched_us:8.1f} us  (FENCE)")
    print(f"  subsequent local read    {timings['local_read'] / 1000.0:8.2f} us")
    print(f"\nvs a disk page-in at ~{DISK_SEEK_US / 1000.0:.0f} ms: "
          f"remote memory is {DISK_SEEK_US / fetched_us:.0f}x faster")
    print("([21]: 'Using Remote Memory to avoid Disk Thrashing')")


if __name__ == "__main__":
    main()
