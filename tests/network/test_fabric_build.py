"""The fabric build stays the same build.

Link, buffer and switch-input names are fault sites, which seed the
fault schedule, so they must stay byte for byte what the build's
f-strings gave when they formatted every coordinate tuple anew; the
build now formats each switch's coordinate text once.  The expected
names below are computed that old way, in ``Fabric.links`` order.

A link starts waiting on its source when it is built, so building a
fabric posts no event: a cluster's build leaves only the first steps
of its processes pending, two HIB servants and an interrupt dispatcher
per node.  (Before, every link also posted a time-0 drain: 4,480 of
the 5,504 events pending after a ``torus_stream`` stage.)
"""

from __future__ import annotations

import itertools

import pytest

from repro.api import Cluster, ClusterConfig
from repro.network.adaptive import ADP, CHANNEL_NAMES, ESC0, ESC1
from repro.network.fabric import VCS, Fabric
from repro.network.topology import by_name, torus2d, torus3d
from repro.params import DEFAULT_PARAMS
from repro.sim import Simulator

FABRICS = {
    "torus-4x4-adaptive": (lambda: torus2d(4, 4, 2), "adaptive",
                           dict(n_nodes=32, topology="torus")),
    "torus-3x3x3-adaptive": (lambda: torus3d(3, 3, 3, 2), "adaptive",
                             dict(n_nodes=54, topology="torus3d")),
    "chain-8": (lambda: by_name("chain", 8), "tree",
                dict(n_nodes=8, topology="chain")),
}


def old_names(topo, routing):
    """``(link, source queue, destination queue)`` names of every link,
    in ``Fabric.links`` order, formatted as the build once did."""
    names = []
    for node in topo.hosts:
        for vc in VCS:
            attach = topo.host_attachment[node]
            names.append((f"host{node}->sw.{vc}", f"hib{node}.out.{vc}",
                          f"sw{attach}.{vc}.in.{('host', node)}"))
            names.append((f"sw->host{node}.{vc}", f"sw->host{node}.buf.{vc}",
                          f"hib{node}.in.{vc}"))
    if routing == "tree":
        for a, b in sorted(topo.switch_edges, key=repr):
            for vc in VCS:
                names.extend((f"sw{src}->sw{dst}.{vc}",
                              f"sw{src}->sw{dst}.buf.{vc}",
                              f"sw{dst}.{vc}.in.{('switch', src)}")
                             for src, dst in ((a, b), (b, a)))
        return names
    classes = (ESC0, ESC1, ADP) if routing == "adaptive" else (ESC0, ESC1)
    for vc in VCS:
        for coords in itertools.product(*(range(n) for n in topo.dims)):
            for dim, size in enumerate(topo.dims):
                for step in (1, -1):
                    nxt = list(coords)
                    nxt[dim] = (coords[dim] + step) % size
                    dst = tuple(nxt)
                    for cls in classes:
                        cname = CHANNEL_NAMES[cls]
                        names.append((f"sw{coords}->sw{dst}.{cname}.{vc}",
                                      f"sw{coords}->sw{dst}.{cname}.buf.{vc}",
                                      f"sw{dst}.{vc}.in.{(coords, cname)}"))
    return names


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_names_are_the_old_names(name):
    build_topology, routing, _ = FABRICS[name]
    topo = build_topology()
    fabric = Fabric(Simulator(), DEFAULT_PARAMS, topo, routing=routing)
    got = [(link.name, link.src.name, link.dst.name) for link in fabric.links]
    assert got == old_names(topo, routing)
    if routing != "tree":
        assert [switch.switch_id for vc in VCS
                for switch in fabric.torus_switches[vc].values()] == [
            f"{coords}.{vc}" for vc in VCS
            for coords in itertools.product(*(range(n) for n in topo.dims))]


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_building_a_fabric_posts_no_event(name):
    build_topology, routing, _ = FABRICS[name]
    sim = Simulator()
    fabric = Fabric(sim, DEFAULT_PARAMS, build_topology(), routing=routing)
    assert fabric.links and sim.pending_events == 0


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_a_cluster_build_leaves_only_its_processes_pending(name):
    _, routing, shape = FABRICS[name]
    cluster = Cluster(ClusterConfig(routing=routing, **shape))
    pending = cluster.sim._now_list
    assert cluster.sim.pending_events == len(pending)
    assert [fn.__self__.name for fn, _ in pending] == [
        process for node in range(len(cluster))
        for process in (f"irq-dispatch{node}", f"hib{node}.svc",
                        f"hib{node}.rsp")]
