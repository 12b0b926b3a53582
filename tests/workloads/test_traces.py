"""Tests for the trace format, generators, and player."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.workloads import (
    Trace,
    TracePlayer,
    TraceRecord,
    false_sharing_trace,
    private_pages_trace,
    true_sharing_trace,
)


# -- format / generators -------------------------------------------------


def test_record_rejects_unaligned_offset():
    with pytest.raises(ValueError):
        TraceRecord(0, True, 0, offset=2)


def test_trace_introspection():
    trace = false_sharing_trace([1, 2], refs_per_node=3)
    assert trace.nodes() == [1, 2]
    assert len(trace) == 3 * 2 * 2  # read + write per reference
    assert trace.writes() == 6
    per_node = trace.per_node()
    assert set(per_node) == {1, 2}


def test_false_sharing_words_are_disjoint_per_node():
    trace = false_sharing_trace([1, 2], refs_per_node=10, words_per_node=4)
    words = {1: set(), 2: set()}
    for record in trace.records:
        words[record.node].add(record.offset // 4)
    assert words[1] <= set(range(0, 4))
    assert words[2] <= set(range(4, 8))
    assert all(r.page == 0 for r in trace.records)


def test_true_sharing_overlaps():
    trace = true_sharing_trace([1, 2], refs_per_node=20, shared_words=2)
    words = {1: set(), 2: set()}
    for record in trace.records:
        words[record.node].add(record.offset // 4)
    assert words[1] & words[2]


def test_private_pages_use_distinct_pages():
    trace = private_pages_trace([1, 2], refs_per_node=5)
    pages = {1: set(), 2: set()}
    for record in trace.records:
        pages[record.node].add(record.page)
    assert pages[1] == {0}
    assert pages[2] == {1}
    assert trace.n_pages == 2


def test_generators_deterministic():
    a = false_sharing_trace([1, 2], seed=9)
    b = false_sharing_trace([1, 2], seed=9)
    assert a.records == b.records


# -- the player -------------------------------------------------------------


def play(mode, protocol, trace):
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol))
    seg = cluster.alloc_segment(home=0, pages=max(1, trace.n_pages),
                                name="trace")
    player = TracePlayer(cluster, seg, mode=mode)
    return cluster, player.run(trace)


def test_player_remote_mode_runs_trace():
    trace = true_sharing_trace([1, 2], refs_per_node=4)
    cluster, result = play("remote", "none", trace)
    assert result.makespan_ns > 0
    assert set(result.latency) == {1, 2}
    assert sum(acc.count for acc in result.latency.values()) == len(trace)


def test_player_replica_mode_is_coherent():
    trace = true_sharing_trace([1, 2], refs_per_node=6)
    cluster, result = play("replica", "telegraphos", trace)
    checker = cluster.checker()
    assert not checker.subsequence_violations()
    assert not checker.divergent_words(cluster.backends(), words_per_page=4)


def test_player_vsm_mode_counts_faults():
    trace = true_sharing_trace([1, 2], refs_per_node=4, think_ns=500_000)
    cluster = Cluster(ClusterConfig(n_nodes=3))
    seg = cluster.alloc_segment(home=0, pages=1, name="trace")
    player = TracePlayer(cluster, seg, mode="vsm")
    result = player.run(trace)
    assert player._vsm.read_faults + player._vsm.write_faults > 0
    assert result.makespan_ns > 0


def test_player_rejects_bad_mode():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=0, pages=1, name="t")
    with pytest.raises(ValueError):
        TracePlayer(cluster, seg, mode="weird")


def test_player_rejects_oversized_trace():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=0, pages=1, name="t")
    player = TracePlayer(cluster, seg)
    trace = Trace([TraceRecord(1, True, 5, 0)], n_pages=6, description="big")
    with pytest.raises(ValueError):
        player.run(trace)
