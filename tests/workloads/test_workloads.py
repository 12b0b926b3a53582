"""Tests for the workload generators."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.workloads import (
    hot_page_stream,
    play_pattern,
    run_hotspot_counter,
    run_migratory,
    run_producer_consumer,
    uniform_stream,
)


# -- access patterns -------------------------------------------------------


def test_uniform_stream_deterministic():
    a = uniform_stream(100, 4, seed=7)
    b = uniform_stream(100, 4, seed=7)
    assert a.accesses == b.accesses
    assert len(a) == 100


def test_uniform_stream_spreads_pages():
    pattern = uniform_stream(400, 4, seed=1)
    counts = pattern.page_counts()
    assert all(c > 50 for c in counts)


def test_hot_page_stream_is_skewed():
    pattern = hot_page_stream(500, 4, hot_fraction=0.9, seed=1)
    counts = pattern.page_counts()
    assert counts[0] > 0.8 * len(pattern)
    assert sum(counts[1:]) < 0.2 * len(pattern)


def test_offsets_word_aligned():
    pattern = uniform_stream(50, 2, seed=3)
    assert all(offset % 4 == 0 for _, offset, _ in pattern.accesses)


# -- producer/consumer --------------------------------------------------------


def test_producer_consumer_replica_mode():
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol="telegraphos"))
    result = run_producer_consumer(
        cluster, producer_node=0, consumer_nodes=[1, 2],
        batches=3, words_per_batch=8, sharing="replica",
    )
    assert result.consumer_read_ns.count == 2 * 3 * 8
    assert result.makespan_ns > 0


def test_producer_consumer_remote_mode():
    cluster = Cluster(ClusterConfig(n_nodes=2, protocol="none"))
    result = run_producer_consumer(
        cluster, consumer_nodes=[1], batches=2, words_per_batch=4,
        sharing="remote",
    )
    assert result.consumer_read_ns.count == 8


def test_replica_reads_cheaper_than_remote_reads():
    """The point of eager updating (§2.2.7): consumer reads become
    local."""
    remote = run_producer_consumer(
        Cluster(ClusterConfig(n_nodes=2, protocol="none")),
        consumer_nodes=[1], batches=3, words_per_batch=8, sharing="remote",
    )
    replica = run_producer_consumer(
        Cluster(ClusterConfig(n_nodes=2, protocol="telegraphos")),
        consumer_nodes=[1], batches=3, words_per_batch=8, sharing="replica",
    )
    assert replica.consumer_read_ns.mean < remote.consumer_read_ns.mean / 2


def test_producer_consumer_bad_mode():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    with pytest.raises(ValueError):
        run_producer_consumer(cluster, sharing="bogus")


# -- hotspot ------------------------------------------------------------------


def test_hotspot_no_lost_updates():
    cluster = Cluster(ClusterConfig(n_nodes=4))
    result = run_hotspot_counter(cluster, increments_per_node=6)
    assert result.final_value == result.expected_value == 24
    assert result.lost_updates == 0
    assert result.atomic_ns.count == 24


def test_hotspot_home_atomics_cheaper_than_remote():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    result = run_hotspot_counter(cluster, home=0, increments_per_node=5)
    # Mixed latencies: home-local atomics vs network round trips.
    assert result.atomic_ns.minimum < result.atomic_ns.maximum / 2


# -- playing a pattern --------------------------------------------------------


def test_play_pattern_arms_pages_at_the_cluster_threshold():
    """The alarm threshold comes from the cluster's replication policy:
    the hot page crosses it and is replicated; without a policy nothing
    is."""
    def replications(threshold):
        cluster = Cluster(ClusterConfig(
            n_nodes=2, protocol="telegraphos",
            replication_threshold=threshold))
        return play_pattern(cluster, kind="hot_page", accesses=400,
                            n_pages=4, seed=11).replications

    assert replications(32) >= 1
    assert replications(None) == 0


def test_play_pattern_rejects_unknown_kind():
    cluster = Cluster(ClusterConfig(n_nodes=2, protocol="telegraphos"))
    with pytest.raises(KeyError, match="zigzag"):
        play_pattern(cluster, kind="zigzag", accesses=10)


# -- migratory ------------------------------------------------------------------


def test_migratory_remote_mode_correct():
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol="none"))
    result = run_migratory(cluster, rounds_per_node=2, words=4,
                           sharing="remote")
    assert result.final_sum == result.expected_sum
    assert result.total_updates_sent == 0


def test_migratory_replica_mode_correct_but_chatty():
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol="telegraphos"))
    result = run_migratory(cluster, rounds_per_node=2, words=4,
                           sharing="replica")
    assert result.final_sum == result.expected_sum
    # Update protocol multicasts every write to every replica.
    assert result.total_updates_sent > 0
