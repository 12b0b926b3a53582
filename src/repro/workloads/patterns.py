"""Deterministic access-stream generators.

Seeded streams of (page, offset, is_write) accesses used by the
replication and update-vs-invalidate experiments.  Deterministic by
construction (explicit ``random.Random`` seeds) so every benchmark run
is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

Access = Tuple[int, int, bool]  # (page, byte offset in page, is_write)


@dataclass(frozen=True)
class AccessPattern:
    """A finished access stream plus its generation parameters."""

    accesses: Tuple[Access, ...]
    n_pages: int
    seed: int
    description: str

    def __len__(self) -> int:
        return len(self.accesses)

    def page_counts(self) -> List[int]:
        counts = [0] * self.n_pages
        for page, _, _ in self.accesses:
            counts[page] += 1
        return counts


def uniform_stream(n_accesses: int, n_pages: int, write_fraction: float = 0.3,
                   page_bytes: int = 8192, seed: int = 42) -> AccessPattern:
    """Accesses spread evenly over ``n_pages`` — no page is hot, so
    alarm-based replication should *not* trigger at sane thresholds."""
    rng = random.Random(seed)
    accesses = []
    for _ in range(n_accesses):
        page = rng.randrange(n_pages)
        offset = 4 * rng.randrange(page_bytes // 4)
        accesses.append((page, offset, rng.random() < write_fraction))
    return AccessPattern(tuple(accesses), n_pages, seed,
                         f"uniform over {n_pages} pages")


@dataclass
class PatternRunResult:
    """What playing one access stream on a cluster produced."""

    makespan_ns: int
    mean_ns: float
    tail_ns: float
    replications: int
    accesses: int
    description: str


def play_pattern(
    cluster,
    kind: str = "hot_page",
    accesses: int = 400,
    n_pages: int = 4,
    hot_fraction: float = 0.9,
    write_fraction: Optional[float] = None,
    seed: int = 42,
    think_ns: int = 5_000,
    watch_threshold: Optional[int] = None,
    home: int = 1,
    reader_node: int = 0,
    tail: int = 100,
) -> PatternRunResult:
    """Generate a seeded access stream and play it against remote
    pages — the §2.2.6 replication workload as a registered scenario
    factory.

    ``kind`` selects the generator (``"hot_page"`` or ``"uniform"``);
    ``write_fraction=None`` keeps each generator's own default.  When
    ``watch_threshold`` is set, every page is armed for alarm-based
    replication at that access count (the cluster must be built with a
    matching ``replication_threshold``).
    """
    if kind == "hot_page":
        fraction = 0.1 if write_fraction is None else write_fraction
        pattern = hot_page_stream(
            accesses, n_pages=n_pages, hot_fraction=hot_fraction,
            write_fraction=fraction, seed=seed,
        )
    elif kind == "uniform":
        fraction = 0.3 if write_fraction is None else write_fraction
        pattern = uniform_stream(
            accesses, n_pages=n_pages, write_fraction=fraction, seed=seed,
        )
    else:
        raise KeyError(
            f"unknown pattern kind {kind!r}; expected 'hot_page' or "
            "'uniform'"
        )

    seg = cluster.alloc_segment(home=home, pages=pattern.n_pages,
                                name="data")
    proc = cluster.create_process(node=reader_node, name="reader")
    base = proc.map(seg)
    if watch_threshold is not None:
        for page in range(pattern.n_pages):
            cluster.node(reader_node).replication.watch(
                home, seg.gpage + page, watch_threshold)
    page_bytes = cluster.amap.page_bytes
    latencies: List[int] = []

    def program(p):
        for page, offset, is_write in pattern.accesses:
            vaddr = base + page * page_bytes + offset
            start = cluster.now
            if is_write:
                yield p.store(vaddr, offset)
            else:
                yield p.load(vaddr)
            latencies.append(cluster.now - start)
            yield p.think(think_ns)  # inter-access compute

    cluster.run(join=[cluster.start(proc, program)])
    replications = (
        cluster.node(reader_node).replication.replications
        if watch_threshold is not None else 0
    )
    return PatternRunResult(
        makespan_ns=cluster.now,
        mean_ns=sum(latencies) / len(latencies),
        tail_ns=sum(latencies[-tail:]) / len(latencies[-tail:]),
        replications=replications,
        accesses=len(pattern),
        description=pattern.description,
    )


def hot_page_stream(n_accesses: int, n_pages: int, hot_fraction: float = 0.9,
                    write_fraction: float = 0.1, page_bytes: int = 8192,
                    seed: int = 42) -> AccessPattern:
    """``hot_fraction`` of accesses hit page 0 — the page the §2.2.6
    counters should flag for replication."""
    rng = random.Random(seed)
    accesses = []
    for _ in range(n_accesses):
        if rng.random() < hot_fraction or n_pages == 1:
            page = 0
        else:
            page = 1 + rng.randrange(n_pages - 1)
        offset = 4 * rng.randrange(page_bytes // 4)
        accesses.append((page, offset, rng.random() < write_fraction))
    return AccessPattern(tuple(accesses), n_pages, seed,
                         f"{hot_fraction:.0%} of accesses on page 0")
