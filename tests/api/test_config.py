"""ClusterConfig and the Cluster construction surface: config
round-trips, the single ``Cluster(ClusterConfig(...))`` form, context
management, and the stats/run facades."""

import warnings

import pytest

from repro.api import Cluster, ClusterConfig
from repro.params import Params


# -- the config object ----------------------------------------------------


def test_config_defaults_build_a_cluster():
    cluster = Cluster(ClusterConfig())
    assert len(cluster) == 2
    assert cluster.protocol == "none"


def test_config_rejects_empty_cluster():
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=0)


def test_config_round_trips_through_plain_data():
    config = ClusterConfig(
        n_nodes=4, protocol="telegraphos", topology="chain",
        params=Params(prototype=2), trace=False, cache_entries=8,
        dram_bytes=1 << 20, replication_threshold=5,
        metrics=False, trace_lanes=True, profile_kernel=True,
    )
    data = config.to_dict()
    assert data["params"]["prototype"] == 2  # JSON-safe nesting
    assert ClusterConfig.from_dict(data) == config


def test_config_round_trip_preserves_none_params():
    config = ClusterConfig(n_nodes=3)
    assert ClusterConfig.from_dict(config.to_dict()) == config


def test_config_collectives_round_trips():
    config = ClusterConfig(n_nodes=4, collectives="nic")
    data = config.to_dict()
    assert data["collectives"] == "nic"
    assert ClusterConfig.from_dict(data) == config
    assert ClusterConfig().collectives == "host"


def test_config_rejects_unknown_collectives_backend():
    with pytest.raises(ValueError, match="collectives"):
        ClusterConfig(collectives="fpga")


# -- the one constructor form --------------------------------------------


def test_config_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Cluster(ClusterConfig(n_nodes=2))


@pytest.mark.parametrize("args, kwargs, match", [
    pytest.param((3,), {}, r"Cluster\(ClusterConfig\(n_nodes=", id="positional"),
    pytest.param((), {}, None, id="no-arguments"),
    pytest.param((), {"n_nodes": 3, "protocol": "telegraphos"}, None,
                 id="keyword"),
    pytest.param((3, "telegraphos", "chain"), {}, None, id="positionals"),
    pytest.param((3,), {"n_nodes": 3}, None, id="positional-and-keyword"),
    pytest.param((2, "none", "star", None, True, 32, 1 << 22, None, "extra"),
                 {}, None, id="too-many-positionals"),
])
def test_bare_argument_construction_rejected(args, kwargs, match):
    with pytest.raises(TypeError, match=match):
        Cluster(*args, **kwargs)


def test_config_plus_extra_arguments_rejected():
    with pytest.raises(TypeError):
        Cluster(ClusterConfig(n_nodes=2), protocol="none")


# -- context manager and facades ------------------------------------------


def _tiny_run(cluster):
    seg = cluster.alloc_segment(home=1, pages=1, name="d")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)

    def program(p):
        yield p.store(base, 11)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    return seg


def test_context_manager_runs_and_stays_inspectable():
    with Cluster(ClusterConfig(n_nodes=2)) as cluster:
        seg = _tiny_run(cluster)
    assert seg.peek(0) == 11
    assert cluster.stats()["quiescent"]


def test_run_rejects_until_and_join_together():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    with pytest.raises(TypeError):
        cluster.run(until=100, join=[])


def test_stats_facade_shape():
    with Cluster(ClusterConfig(n_nodes=2, protocol="telegraphos")) as cluster:
        _tiny_run(cluster)
        stats = cluster.stats(check_coherence=True)
    assert stats["n_nodes"] == 2
    assert stats["protocol"] == "telegraphos"
    assert stats["quiescent"] is True
    assert stats["outstanding"] == {0: 0, 1: 0}
    assert stats["metrics"]["hib.remote_writes"]["node=0"] == 1
    assert stats["coherence"]["subsequence_violations"] == []
    assert stats["coherence"]["divergent_words"] == []
    assert stats["now_ns"] == cluster.now

