"""Torus fabrics and adaptive routing (DESIGN.md §10).

Four layers of coverage, mirroring the design doc's claims:

- **builder invariants** — wraparound degree (2 per dimension), host
  attachment, and the ``by_name`` auto-sizing used by ``--topology
  torus``;
- **DOR golden cases** — the coordinate-path oracle on a 4×4 torus,
  including the wraparound shortcut and the tie-break toward ``+``,
  and real packets on idle fabrics crossing exactly the oracle's hops
  on the channel classes its datelines name;
- **kernel determinism** — the adaptive router's queue-depth choices
  are a pure function of the schedule, so both simulator kernels
  must produce byte-identical protocol traces;
- **fault-soak termination** — the escape network keeps the fabric
  live (and the counter exact) under seeded drops and duplicates.
"""

import pytest

import repro.network.adaptive as adaptive_module
from repro.network import Fabric, Packet, PacketKind
from repro.network import topology as T
from repro.network.adaptive import (
    dor_path,
    dor_route_length,
    minimal_directions,
)
from repro.params import DEFAULT_PARAMS
from repro.sim import make_simulator


# ---------------------------------------------------------------------------
# Builder invariants.
# ---------------------------------------------------------------------------


def test_torus2d_builder_invariants():
    topo = T.torus2d(4, 4, hosts_per_switch=2)
    assert len(topo.switch_ids) == 16
    assert topo.hosts == list(range(32))
    # Every switch has degree 2 per dimension — the wraparound edges
    # make the border rows indistinguishable from the interior.
    for coords in topo.switch_ids:
        assert len(topo.neighbors(coords)) == 4
    # Wraparound edges exist on both axes.
    assert (0, 0) in topo.neighbors((3, 0))
    assert (0, 0) in topo.neighbors((0, 3))
    # Hosts attach in switch-creation (row-major) order.
    assert topo.hosts_on((0, 0)) == [0, 1]
    assert topo.hosts_on((3, 3)) == [30, 31]
    topo.validate()


def test_torus3d_builder_invariants():
    topo = T.torus3d(3, 3, 3, hosts_per_switch=1)
    assert len(topo.switch_ids) == 27
    for coords in topo.switch_ids:
        assert len(topo.neighbors(coords)) == 6
    topo.validate()


def test_torus_edge_count_matches_formula():
    # A d-dimensional torus has exactly d*N switch edges (each switch
    # owns its + neighbor in every dimension, wraparound included).
    topo2 = T.torus2d(4, 5)
    assert len(topo2.switch_edges) == 2 * 4 * 5
    topo3 = T.torus3d(3, 4, 3)
    assert len(topo3.switch_edges) == 3 * 3 * 4 * 3


def test_torus_rejects_degenerate_dimensions():
    # A 2-ring's wraparound edge would coincide with its forward edge.
    with pytest.raises(ValueError):
        T.torus2d(2, 4)
    with pytest.raises(ValueError):
        T.TorusTopology((4,))


def test_by_name_torus_sizes_to_host_count():
    # 24 hosts need a 4x4 at 2 hosts/switch (3x3x2 = 18 is too small).
    topo = T.by_name("torus", 24)
    assert len(topo.switch_ids) == 16
    assert topo.hosts == list(range(24))
    topo.validate()
    topo3 = T.by_name("torus3d", 5)
    assert len(topo3.switch_ids) == 27
    assert topo3.hosts == list(range(5))
    topo3.validate()


# ---------------------------------------------------------------------------
# DOR golden cases (4x4, DESIGN.md §10 walkthrough).
# ---------------------------------------------------------------------------


def test_minimal_directions_prefers_short_way_round():
    dims = (4, 4)
    # 0 -> 3 is one hop backward through the wraparound, not three
    # hops forward.
    assert minimal_directions(dims, (0, 0), (3, 0)) == [(0, -1)]
    # Exactly half way (distance 2 of 4) ties toward +.
    assert minimal_directions(dims, (0, 0), (2, 0)) == [(0, 1)]
    # Both dimensions profitable, reported in dimension order.
    assert minimal_directions(dims, (0, 0), (1, 3)) == [(0, 1), (1, -1)]
    assert minimal_directions(dims, (1, 1), (1, 1)) == []


def test_dor_path_goldens_on_4x4():
    dims = (4, 4)
    # The DESIGN.md §10 walkthrough: (0,0) -> (2,3) corrects dimension
    # 0 first (+1, +1), then dimension 1 the short way round (-1).
    assert dor_path(dims, (0, 0), (2, 3)) == [
        (0, 0), (1, 0), (2, 0), (2, 3),
    ]
    # Wraparound in both dimensions.
    assert dor_path(dims, (3, 3), (0, 0)) == [(3, 3), (0, 3), (0, 0)]
    # Same switch: the path is just the switch itself.
    assert dor_path(dims, (1, 2), (1, 2)) == [(1, 2)]


def test_dor_route_length_between_hosts():
    topo = T.torus2d(4, 4, hosts_per_switch=2)
    # Hosts 0,1 share switch (0,0); host 30 lives on (3,3).
    assert dor_route_length(topo, 0, 1) == 1
    # (0,0) -> (3,3) is one wraparound hop per dimension.
    assert dor_route_length(topo, 0, 30) == 3
    # Maximum DOR distance on a 4x4 is 2 hops per dimension.
    lengths = [
        dor_route_length(topo, 0, h) for h in topo.hosts
    ]
    assert max(lengths) == 5  # 4 hops + the source switch


def _expected_hops(dims, src, dst, adaptive):
    """Link names of the inter-switch hops ``dor_path`` names, on the
    request plane: adaptive channels, or escape class 0 before a
    dimension's dateline and class 1 from the hop that crosses it."""
    path = dor_path(dims, src, dst)
    names = []
    wrapped = set()
    for here, there in zip(path, path[1:]):
        dim = next(d for d in range(len(dims)) if here[d] != there[d])
        step = 1 if there[dim] == (here[dim] + 1) % dims[dim] else -1
        if here[dim] == (dims[dim] - 1 if step == 1 else 0):
            wrapped.add(dim)
        cls = "adp" if adaptive else ("esc1" if dim in wrapped else "esc0")
        names.append(f"sw{here}->sw{there}.{cls}.req")
    return names


def _check_follows_dor(topo, routing):
    """Send one packet per ordered host pair through an idle fabric,
    one at a time, and check from the links' ``packets_carried`` that
    it crossed exactly the hops :func:`_expected_hops` names."""
    sim = make_simulator("bucket")
    fabric = Fabric(sim, DEFAULT_PARAMS, topo, routing=routing)
    links = fabric.links
    where = topo.host_attachment
    for src in topo.hosts:
        for dst in topo.hosts:
            if src == dst:
                continue
            before = [link.packets_carried for link in links]
            fabric.port(src).send(_write_packet(src, dst, 0))
            sim.run()
            crossed = sorted(link.name for link, count in zip(links, before)
                             if link.packets_carried != count)
            expected = sorted(
                [f"host{src}->sw.req", f"sw->host{dst}.req"]
                + _expected_hops(topo.dims, where[src], where[dst],
                                 routing == "adaptive"))
            assert crossed == expected, f"host {src} -> host {dst}"
            assert all(link.packets_carried - count <= 1
                       for link, count in zip(links, before))
            assert fabric.port(dst).receive().value.src == src


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
@pytest.mark.parametrize("topo", [
    T.torus2d(4, 4, hosts_per_switch=1),
    T.torus3d(3, 3, 3, hosts_per_switch=1),
], ids=["4x4", "3x3x3"])
def test_fabric_follows_dor_path(topo, routing):
    """An idle fabric takes ``dor_path``'s hops: DOR by construction,
    adaptive because idle ties resolve in dimension order (DESIGN.md
    §10).  The even 4-rings cover the tie toward ``+``."""
    _check_follows_dor(topo, routing)


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
def test_fabric_hop_check_catches_ties_toward_minus(routing, monkeypatch):
    """A router that breaks the half-way tie toward -1 leaves
    ``dor_path`` on the 4x4 torus."""
    def minus_ties(dims, src, dst):
        out = []
        for dim, size in enumerate(dims):
            delta = (dst[dim] - src[dim]) % size
            if delta:
                out.append((dim, 1 if delta * 2 < size else -1))
        return out

    monkeypatch.setattr(adaptive_module, "minimal_directions", minus_ties)
    with pytest.raises(AssertionError):
        _check_follows_dor(T.torus2d(4, 4, hosts_per_switch=1), routing)


# ---------------------------------------------------------------------------
# End-to-end delivery and determinism.
# ---------------------------------------------------------------------------


def _write_packet(src, dst, seq):
    return Packet(PacketKind.WRITE_REQ, src, dst, address=seq, value=seq)


def _all_to_all(kernel, routing, n_each=3):
    """Run a small all-to-all on a 3x3 torus; returns (received map,
    protocol-relevant trace tuples)."""
    sim = make_simulator(kernel)
    topo = T.torus2d(3, 3, hosts_per_switch=1)
    fabric = Fabric(sim, DEFAULT_PARAMS, topo, routing=routing)
    hosts = topo.hosts
    received = {h: [] for h in hosts}
    drains = []
    expect = (len(hosts) - 1) * n_each

    def consumer(node):
        port = fabric.port(node)
        for _ in range(expect):
            received[node].append((yield port.receive()))

    for h in hosts:
        drains.append(sim.spawn(consumer(h), name=f"drain{h}"))

    def sender(src):
        port = fabric.port(src)
        for seq in range(n_each):
            for dst in hosts:
                if dst != src:
                    yield port.send(_write_packet(src, dst, seq))

    for h in hosts:
        sim.spawn(sender(h), name=f"send{h}")
    sim.run_until_done(drains)
    trace = [
        (p.src, p.dst, p.address, node)
        for node, pkts in sorted(received.items())
        for p in pkts
    ]
    return received, trace


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
def test_all_to_all_delivers_everything(routing):
    received, _ = _all_to_all("bucket", routing)
    for node, pkts in received.items():
        assert len(pkts) == 8 * 3
        assert all(p.dst == node for p in pkts)


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
def test_kernel_equivalence_on_torus(routing):
    """The adaptive queue-depth heuristic reads state both kernels
    agree on at every dispatch, so delivery order must be identical —
    the property that makes `make_simulator` backends interchangeable
    for the A2 grid."""
    _, bucket = _all_to_all("bucket", routing)
    _, reference = _all_to_all("reference", routing)
    assert bucket == reference


def test_dor_delivers_in_order_per_pair():
    received, _ = _all_to_all("bucket", "dor")
    for node, pkts in received.items():
        by_src = {}
        for p in pkts:
            by_src.setdefault(p.src, []).append(p.address)
        for seqs in by_src.values():
            assert seqs == sorted(seqs)


def test_tree_routing_works_on_torus_graph():
    # The A2 baseline: up*/down* over a spanning tree of the torus.
    received, _ = _all_to_all("bucket", "tree")
    assert all(len(pkts) == 8 * 3 for pkts in received.values())


def test_torus_requires_torus_topology():
    sim = make_simulator("bucket")
    with pytest.raises(ValueError):
        Fabric(sim, DEFAULT_PARAMS, T.star(4), routing="dor")
    with pytest.raises(ValueError):
        Fabric(sim, DEFAULT_PARAMS, T.torus2d(3, 3), routing="updown")


# ---------------------------------------------------------------------------
# Fault soak: the escape network keeps the fabric live.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
def test_fault_soak_terminates_with_exact_counter(routing):
    """Seeded drops + duplicates with go-back-N on: the run must
    terminate (no livelock, no deadlock) with an exact total."""
    from repro.api import Cluster, ClusterConfig
    from repro.workloads import run_hotspot_counter

    cluster = Cluster(ClusterConfig(
        n_nodes=8, topology="torus", routing=routing,
        faults={"seed": 7, "drop_rate": 0.004, "duplicate_rate": 0.002},
    ))
    result = run_hotspot_counter(cluster, increments_per_node=4)
    assert result.final_value == result.expected_value


def test_adaptive_records_queue_depth_and_counters():
    from repro.api import Cluster, ClusterConfig
    from repro.workloads import run_hotspot_counter

    cluster = Cluster(ClusterConfig(
        n_nodes=8, topology="torus", routing="adaptive"))
    run_hotspot_counter(cluster, increments_per_node=2)
    switches = [
        sw for plane in cluster.fabric.torus_switches.values()
        for sw in plane.values()
    ]
    assert sum(sw.packets_routed for sw in switches) > 0
    assert sum(sw.adaptive_hops for sw in switches) > 0
    # Every adaptive decision sampled the candidate queue depths.
    assert sum(sw.queue_depth.count for sw in switches) > 0
