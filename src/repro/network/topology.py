"""Cluster topology builders.

A :class:`Topology` is a bipartite description of the cluster: *hosts*
(workstations, identified by integer node ids) attach to *switches*;
switches interconnect via inter-switch cables.  The Telegraphos I
prototype of Figure 1 is a handful of workstations hanging off one or
two switches connected by ribbon cables — the builders here generalise
that: single-switch star, chain, ring, 2-D mesh, and (as
:class:`TorusTopology`, which additionally carries its dimension
sizes) 2-D/3-D tori with wraparound switch edges.

Tree-based up*/down* routing (:func:`repro.network.routing.
compute_routes`) works on any of these; the torus builders are the
ones that also support dimension-order and minimal-adaptive routing
(``ClusterConfig(routing=...)``), because those route on switch
*coordinates* and therefore need the dimension sizes a plain edge set
cannot recover.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple


class Topology:
    """Hosts, switches, and the edges between them.

    - ``host_attachment[node_id] -> switch_id``
    - ``switch_edges``: set of unordered switch pairs.

    Switch ids are arbitrary hashables (ints or tuples for meshes).
    """

    def __init__(self) -> None:
        self.host_attachment: Dict[int, object] = {}
        self.switch_ids: List[object] = []
        self.switch_edges: Set[Tuple[object, object]] = set()
        #: (edge count, adjacency) pair backing :meth:`neighbors`.
        self._neighbor_cache: Optional[Tuple[int, Dict[object, List[object]]]] = None

    # -- construction -------------------------------------------------

    def add_switch(self, switch_id: object) -> None:
        if switch_id in self.switch_ids:
            raise ValueError(f"duplicate switch id {switch_id!r}")
        self.switch_ids.append(switch_id)

    def attach_host(self, node_id: int, switch_id: object) -> None:
        if node_id in self.host_attachment:
            raise ValueError(f"host {node_id} already attached")
        if switch_id not in self.switch_ids:
            raise ValueError(f"unknown switch {switch_id!r}")
        self.host_attachment[node_id] = switch_id

    def connect_switches(self, a: object, b: object) -> None:
        if a == b:
            raise ValueError("cannot connect a switch to itself")
        for s in (a, b):
            if s not in self.switch_ids:
                raise ValueError(f"unknown switch {s!r}")
        self.switch_edges.add(self._norm_edge(a, b))

    @staticmethod
    def _norm_edge(a: object, b: object) -> Tuple[object, object]:
        return (a, b) if repr(a) <= repr(b) else (b, a)

    # -- queries --------------------------------------------------------

    @property
    def hosts(self) -> List[int]:
        return sorted(self.host_attachment)

    def neighbors(self, switch_id: object) -> List[object]:
        # The full adjacency is built once per edge population (edges
        # are only ever added) instead of re-sorting every edge per
        # query — route computation asks for neighbors of every switch.
        cache = self._neighbor_cache
        if cache is None or cache[0] != len(self.switch_edges):
            adjacency: Dict[object, List[object]] = {}
            for a, b in sorted(self.switch_edges, key=repr):
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            cache = self._neighbor_cache = (len(self.switch_edges), adjacency)
        return list(cache[1].get(switch_id, ()))

    def hosts_on(self, switch_id: object) -> List[int]:
        return sorted(
            node for node, sw in self.host_attachment.items() if sw == switch_id
        )

    def validate(self) -> None:
        """Check the topology is non-empty and connected."""
        if not self.switch_ids:
            raise ValueError("topology has no switches")
        if not self.host_attachment:
            raise ValueError("topology has no hosts")
        seen: Set[object] = set()
        stack = [self.switch_ids[0]]
        while stack:
            sw = stack.pop()
            if sw in seen:
                continue
            seen.add(sw)
            stack.extend(self.neighbors(sw))
        missing = [s for s in self.switch_ids if s not in seen]
        if missing:
            raise ValueError(f"topology is disconnected; unreachable: {missing}")


def star(n_hosts: int) -> Topology:
    """All hosts on a single switch — the minimal Figure 1 setup."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    topo = Topology()
    topo.add_switch(0)
    for node in range(n_hosts):
        topo.attach_host(node, 0)
    return topo


def chain(n_switches: int, hosts_per_switch: int) -> Topology:
    """Switches in a line, ``hosts_per_switch`` workstations each."""
    if n_switches < 1 or hosts_per_switch < 1:
        raise ValueError("need at least one switch and one host per switch")
    topo = Topology()
    node = 0
    for s in range(n_switches):
        topo.add_switch(s)
        for _ in range(hosts_per_switch):
            topo.attach_host(node, s)
            node += 1
    for s in range(n_switches - 1):
        topo.connect_switches(s, s + 1)
    return topo


def ring(n_switches: int, hosts_per_switch: int) -> Topology:
    """Switches in a cycle.  Routing stays deadlock-free because route
    computation uses a spanning tree (one ring edge is unused)."""
    if n_switches < 3:
        raise ValueError("a ring needs at least 3 switches")
    topo = chain(n_switches, hosts_per_switch)
    topo.connect_switches(n_switches - 1, 0)
    return topo


def mesh2d(rows: int, cols: int, hosts_per_switch: int = 1) -> Topology:
    """A rows x cols switch grid; switch ids are (row, col) tuples."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    topo = Topology()
    node = 0
    for r in range(rows):
        for c in range(cols):
            topo.add_switch((r, c))
            for _ in range(hosts_per_switch):
                topo.attach_host(node, (r, c))
                node += 1
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.connect_switches((r, c), (r, c + 1))
            if r + 1 < rows:
                topo.connect_switches((r, c), (r + 1, c))
    return topo


class TorusTopology(Topology):
    """A k-ary n-cube: switch ids are coordinate tuples, every
    dimension wraps around.

    ``dims`` is the size of each dimension (e.g. ``(4, 4)`` for a 4x4
    torus); a switch id is a tuple of per-dimension coordinates.  The
    coordinates are load-bearing: dimension-order and minimal-adaptive
    routing (:mod:`repro.network.adaptive`) compute next hops from
    them instead of from routing tables, and the dateline
    virtual-channel discipline needs to know where each ring wraps.
    Every dimension must be >= 3 so the wraparound edge is distinct
    from the forward edge (a 2-ring's wrap edge *is* the forward edge
    and would silently collapse in the unordered edge set).
    """

    def __init__(self, dims: Tuple[int, ...]) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("a torus needs at least 2 dimensions")
        for size in dims:
            if size < 3:
                raise ValueError(
                    f"torus dimensions must be >= 3 (got {dims}); a "
                    "2-ring's wraparound edge coincides with its "
                    "forward edge"
                )
        self.dims: Tuple[int, ...] = tuple(dims)


def _torus(dims: Tuple[int, ...], hosts_per_switch: int) -> TorusTopology:
    """Build a torus: one switch per coordinate tuple, wraparound
    edges along every dimension, hosts attached in coordinate order."""
    if hosts_per_switch < 1:
        raise ValueError("need at least one host per switch")
    topo = TorusTopology(dims)
    node = 0
    for coords in itertools.product(*(range(size) for size in dims)):
        topo.add_switch(coords)
        for _ in range(hosts_per_switch):
            topo.attach_host(node, coords)
            node += 1
    for coords in itertools.product(*(range(size) for size in dims)):
        for dim, size in enumerate(dims):
            nxt = list(coords)
            nxt[dim] = (coords[dim] + 1) % size
            topo.connect_switches(coords, tuple(nxt))
    return topo


def torus2d(rows: int, cols: int, hosts_per_switch: int = 1) -> TorusTopology:
    """A rows x cols torus: the 2-D mesh plus wraparound edges, so
    every switch has degree 4 and the worst-case hop count halves."""
    return _torus((rows, cols), hosts_per_switch)


def torus3d(nx: int, ny: int, nz: int,
            hosts_per_switch: int = 1) -> TorusTopology:
    """An nx x ny x nz torus (the APEnet+ 3-D direct-network shape);
    every switch has degree 6."""
    return _torus((nx, ny, nz), hosts_per_switch)


#: The names :func:`by_name` builds, and those of them that are tori
#: (:class:`TorusTopology`, which coordinate routing needs).
TOPOLOGIES = ("star", "chain", "ring", "mesh", "torus", "torus3d")
TORI = ("torus", "torus3d")


def by_name(name: str, n_hosts: int) -> Topology:
    """Build a named topology sized for ``n_hosts`` workstations.

    ``star`` puts everything on one switch; ``chain``/``ring`` spread
    hosts two per switch; ``mesh``/``torus`` build the squarest 2-D
    grid (open / wraparound) that fits; ``torus3d`` the smallest cube.
    """
    if name == "star":
        return star(n_hosts)
    if name == "chain":
        switches = max(1, (n_hosts + 1) // 2)
        topo = chain(switches, 2)
        _trim_hosts(topo, n_hosts)
        return topo
    if name == "ring":
        switches = max(3, (n_hosts + 1) // 2)
        topo = ring(switches, 2)
        _trim_hosts(topo, n_hosts)
        return topo
    if name == "mesh":
        side = 1
        while side * side * 2 < n_hosts:
            side += 1
        topo = mesh2d(side, side, 2)
        _trim_hosts(topo, n_hosts)
        return topo
    if name == "torus":
        side = 3
        while side * side * 2 < n_hosts:
            side += 1
        topo = torus2d(side, side, 2)
        _trim_hosts(topo, n_hosts)
        return topo
    if name == "torus3d":
        side = 3
        while side * side * side * 2 < n_hosts:
            side += 1
        topo = torus3d(side, side, side, 2)
        _trim_hosts(topo, n_hosts)
        return topo
    raise ValueError(
        f"unknown topology {name!r}; expected one of {TOPOLOGIES}")


def _trim_hosts(topo: Topology, n_hosts: int) -> None:
    # Snapshot: entries are deleted while iterating.
    for node in tuple(topo.host_attachment):
        if node >= n_hosts:
            del topo.host_attachment[node]
