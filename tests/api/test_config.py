"""ClusterConfig and the Cluster construction surface: config
defaults and validation, the single ``Cluster(ClusterConfig(...))``
form, context management, and the stats/run facades."""

import warnings

import pytest

from repro.api import Cluster, ClusterConfig
from repro.api.config import COLLECTIVES
from repro.coherence import PROTOCOLS
from repro.network.fabric import ROUTING_MODES
from repro.network.topology import TOPOLOGIES
from repro.params import DEFAULT_PARAMS
from repro.sim import KERNELS


# -- the config object ----------------------------------------------------


def test_config_defaults_build_a_cluster():
    cluster = Cluster(ClusterConfig())
    assert len(cluster) == 2
    assert cluster.protocol == "none"


def test_config_rejects_empty_cluster():
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=0)


def test_config_timing_override_reaches_every_link():
    """The T2 grid's axis path: a ``with_timing`` override in the
    config is the propagation delay each link waits."""
    config = ClusterConfig(
        params=DEFAULT_PARAMS.with_timing(link_prop_ns=999))
    links = Cluster(config).fabric.links
    assert links
    assert {link.timing.link_prop_ns for link in links} == {999}
    plain = Cluster(ClusterConfig()).fabric.links
    assert {link.timing.link_prop_ns for link in plain} \
        == {DEFAULT_PARAMS.timing.link_prop_ns}


def test_config_collectives_default_to_host():
    assert ClusterConfig().collectives == "host"


def test_config_rejects_unknown_collectives_backend():
    with pytest.raises(ValueError, match="collectives"):
        ClusterConfig(collectives="fpga")


@pytest.mark.parametrize("field, value, valid", [
    ("protocol", "telegraphoss", PROTOCOLS),
    ("topology", "torsu", TOPOLOGIES),
    ("routing", "updown", ROUTING_MODES),
    ("collectives", "fpga", COLLECTIVES),
    ("kernel", "fibonacci", KERNELS),
])
def test_config_rejects_unknown_names_listing_the_valid_ones(field, value,
                                                             valid):
    """A misspelt name fails when the config is built, before any
    fabric or node, and the error names every valid value."""
    with pytest.raises(ValueError, match=f"unknown .*{value!r}") as info:
        ClusterConfig(**{field: value})
    assert all(repr(name) in str(info.value) for name in valid)


@pytest.mark.parametrize("topology", ["star", "chain", "ring", "mesh"])
@pytest.mark.parametrize("routing", ["dor", "adaptive"])
def test_config_rejects_coordinate_routing_off_a_torus(routing, topology):
    with pytest.raises(ValueError, match="requires a torus topology") as info:
        ClusterConfig(topology=topology, routing=routing)
    assert "'torus', 'torus3d'" in str(info.value)
    for torus in ("torus", "torus3d"):
        assert ClusterConfig(topology=torus, routing=routing).routing == routing


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

