"""Differential harness: the switch state machines against the process
switches they replaced (``reference_switch.py``, ``reference_torus.py``).

The two must be indistinguishable from outside: every queue put and
get, fault decision, counter and trace record at the same simulated
time and in the same order relative to every other event, each step an
event of its own.  Three levels check it:

- **One tree switch, seeded traffic.**  2–4 ports, each fed and drained
  through real links, with a shared buffer of 2–6 slots, output quotas
  of 1–3, port FIFOs of 1–3 and 1–2 link credits.  Producers converge
  bursts on one output at one instant and sometimes wait a time read
  from switch state mid-instant, consumers are paced, and a scripted
  injector drops, corrupts, duplicates and stalls at the input ports.
  Producers, consumers and injector share one action log.  A probe
  process at every tick and a kernel hook at the end of every instant
  sample every input FIFO, output queue, link buffer and sink, plus
  ``packets_routed``, ``buffer_in_use``, ``peak_buffer_use`` and
  ``buffer_stalls``.
- **A small torus**, DOR and adaptive, with one link credit, so the
  adaptive choice reads channel depths that move within an instant:
  the same producers and consumers on both planes of a 3x3 fabric,
  sampling every link's queues and every switch's counters and
  queue-depth tally (one count per depth, so the depths recorded within
  an instant are compared as a multiset).
- **Whole clusters.**  ``run_cluster`` from ``test_link_equivalence``
  with ``repro.network.fabric.Switch`` and ``TorusSwitch`` swapped for
  the oracles: star, chain, dor and adaptive fabrics, faults off and
  on, both kernels, lane spans on — byte-identical Chrome traces,
  memory, end time and switch counters — plus store floods through
  small buffers on star, chain, ring and mesh.

Two mutations show the harness can tell: folding the transmitter's
link put into the pump's output-put event, and folding the
transmitter's empty-queue wait into its slot-return event.  The second
shows only where claims and slot returns of several outputs meet
within one instant: the tight single-switch scenarios (2–3 slots,
routing in 0–1 ns) include the seeds where it does.

``REPRO_STRESS_ITERS=N`` multiplies the seed counts.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from operator import attrgetter

import pytest

import repro.network.fabric as fabric_module
from repro.api import Cluster, ClusterConfig
from repro.faults.plan import FaultDecision
from repro.network import topology
from repro.network.fabric import Fabric
from repro.network.link import Link
from repro.network.packet import Packet, PacketKind
from repro.network.switch import Output, Switch
from repro.params import DEFAULT_PARAMS
from repro.sim import BoundedQueue
from tests.fixtures.golden_runs import canonical_trace_bytes
from tests.kernels import KERNELS
from tests.network.reference_switch import ReferenceSwitch
from tests.network.reference_torus import ReferenceTorusSwitch
from tests.network.test_link_equivalence import (
    FABRICS,
    InstantEnds,
    first_difference,
    run_cluster,
    subject_run,
    switch_counters,
)

STRESS_ITERS = max(1, int(os.environ.get("REPRO_STRESS_ITERS", "1")))
SWITCH_SEEDS = list(range(30 * STRESS_ITERS))
TORUS_SEEDS = list(range(STRESS_ITERS))
CLUSTER_SEEDS = list(range(STRESS_ITERS))

FAULT_KINDS = ("deliver",) * 6 + ("drop", "corrupt", "duplicate", "stall")

#: Simulated-time bound: a mutant that loses a packet stops here.
LIMIT_NS = 200_000


class SiteInjector:
    """Plays scripted decisions at switch input ports (site names
    holding ``.in.``), delivers everywhere else, and logs every call."""

    def __init__(self, faults, stalls, sim, log: list):
        self.faults, self.stalls, self.sim, self.log = faults, stalls, sim, log
        self.calls = 0
        #: Net change to the number of deliveries.
        self.extra = 0

    def action_for(self, site: str, packet: Packet) -> FaultDecision:
        kind = "deliver"
        if ".in." in site:
            kind = self.faults[self.calls % len(self.faults)]
            stall = self.stalls[self.calls % len(self.stalls)]
            self.calls += 1
        self.extra += (kind == "duplicate") - (kind == "drop")
        self.log.append(("fault", self.sim.now, site, packet.seq, kind))
        return FaultDecision(kind, stall if kind == "stall" else 0)


def drive(sim, log, senders, sinks, snap, tick, injector):
    """Run producers, paced consumers and the probe to completion.

    ``senders`` pairs a put function with its script of (wait, packet
    fields, reads) steps: after ``wait`` ns it sends the packet;
    ``reads`` replaces the wait with one read from ``snap()``
    mid-instant.
    ``sinks`` is a list of (queue getter, paces).  Returns the action
    log, the probe samples, the instant-end samples and the end time.
    """
    ends = InstantEnds(snap)
    sim.hooks = ends
    probe: list = []
    received = [0]
    total = sum(len(script) for _put, script in senders)

    def producer(put, script):
        for wait, fields, reads in script:
            if reads:
                wait = sum(map(ord, repr(snap()))) % 3
            yield wait
            # Fresh per run: the fabric marks packets it corrupts.
            kind, src, dst, size, seq = fields
            packet = Packet(kind, src, dst, size, seq=seq)
            yield put(packet)
            log.append(("put", sim.now, packet.src, packet.seq))

    def consumer(get, paces, index):
        for pace in paces:
            packet = yield get()
            log.append(("got", sim.now, index, packet.src, packet.seq,
                        packet.corrupted))
            received[0] += 1
            yield pace

    def sampler():
        # A mutant that loses a packet stops the probe at LIMIT_NS.
        while received[0] < total + injector.extra and sim.now < LIMIT_NS:
            probe.append((sim.now,) + snap())
            yield tick

    for put, script in senders:
        sim.spawn(producer(put, script), name="producer")
    for index, (get, paces) in enumerate(sinks):
        sim.spawn(consumer(get, paces, index), name="consumer")
    sim.spawn(sampler(), name="probe")
    sim.run()
    return log, probe, ends.flush(), sim.now


def scripts(rng, ports, targets, sizes, rounds, kinds=(PacketKind.WRITE_REQ,)):
    """Per-port (wait, packet fields, reads) scripts whose bursts converge on
    one hot target per round, each round starting at one instant."""
    out = {port: [] for port in ports}
    #: The round start each port last waited for.
    synced = {port: 0 for port in ports}
    start = 0
    seq = 0
    for _ in range(rounds):
        start += rng.randint(0, 40)
        hot = rng.choice(targets)
        for port in ports:
            first = True
            for _ in range(rng.randint(0, 5)):
                dst = hot if rng.random() < 0.8 else rng.choice(targets)
                if dst == port:
                    continue
                if first:
                    wait = max(0, start - synced[port])
                    synced[port] = max(synced[port], start)
                    first = False
                else:
                    wait = rng.choice((0, 0, 1, rng.randint(1, 9)))
                fields = (rng.choice(kinds), port, dst, rng.choice(sizes), seq)
                seq += 1
                out[port].append((wait, fields, rng.random() < 0.15))
    return out


# -- one tree switch -----------------------------------------------------


class SwitchScenario:
    """Everything one single-switch run reads.  A ``tight`` scenario
    draws a 2–3 slot buffer, quotas of 1–2, 1–3 link credits and
    routing in 0–1 ns from a second stream, so claims and slot returns
    of several outputs meet within one instant."""

    def __init__(self, seed: int, faults: bool, tight: bool = False):
        rng = random.Random(seed * 2 + faults)
        self.ports = rng.randint(2, 4)
        self.params = DEFAULT_PARAMS.with_sizing(
            switch_buffer_slots=rng.randint(2, 6),
            switch_output_quota=rng.randint(1, 3),
            switch_port_fifo=rng.randint(1, 3),
            link_credits=rng.randint(1, 2),
        ).with_timing(
            link_bytes_per_us=1000, link_prop_ns=rng.randint(1, 6),
            switch_route_ns=rng.choice((0, 1, 2, rng.randint(3, 9))))
        if tight:
            other = random.Random(seed * 7 + 3)
            self.params = DEFAULT_PARAMS.with_sizing(
                switch_buffer_slots=other.randint(2, 3),
                switch_output_quota=other.randint(1, 2),
                switch_port_fifo=other.randint(1, 3),
                link_credits=other.randint(1, 3),
            ).with_timing(
                link_bytes_per_us=1000, link_prop_ns=other.randint(1, 4),
                switch_route_ns=other.choice((0, 0, 1)))
        self.src_caps = [rng.randint(1, 3) for _ in range(self.ports)]
        self.sink_caps = [rng.randint(1, 3) for _ in range(self.ports)]
        ports = list(range(self.ports))
        self.scripts = scripts(rng, ports, ports, (1, 2, 3, 4, 6),
                               rounds=rng.randint(6, 12))
        self.paces = [[rng.choice((0, 1, 3, 8, rng.randint(1, 30)))
                       for _ in range(200)] for _ in ports]
        self.tick = rng.choice((1, 2, 3))
        self.faults = [rng.choice(FAULT_KINDS) if faults else "deliver"
                       for _ in range(64)]
        self.stalls = [rng.randint(1, 12) for _ in self.faults]


def run_switch(switch_class, sc: SwitchScenario, kernel: str):
    sim = KERNELS[kernel]()
    timing = sc.params.timing
    log: list = []
    injector = SiteInjector(sc.faults, sc.stalls, sim, log)
    switch = switch_class(sim, sc.params, "S", injector=injector)
    sources, inputs, buffers, sinks = [], [], [], []
    for port in range(sc.ports):
        source = BoundedQueue(sc.src_caps[port], name=f"src{port}")
        inputs.append(switch.add_input(("host", port)))
        Link(sim, timing, source, inputs[-1], name=f"in{port}")
        buffers.append(BoundedQueue(sc.params.sizing.link_credits,
                                    name=f"buf{port}"))
        sinks.append(BoundedQueue(sc.sink_caps[port], name=f"sink{port}"))
        switch.add_output(("host", port),
                          Link(sim, timing, buffers[-1], sinks[-1],
                               name=f"out{port}"))
        sources.append(source)
    switch.install_routes({port: ("host", port) for port in range(sc.ports)})
    # The queues' deques, read at C speed: a snapshot per event.  The
    # oracle's output queues are BoundedQueues.
    outputs = [out.items if isinstance(out, Output) else out._items
               for out in (switch._outputs[("host", port)]
                           for port in range(sc.ports))]
    items = ([queue._items for queue in sources + inputs]
             + outputs + [queue._items for queue in buffers + sinks])
    counters = attrgetter("packets_routed", "buffer_in_use",
                          "peak_buffer_use", "buffer_stalls")

    def snap():
        return tuple(map(len, items)), counters(switch)

    senders = [(sources[port].put, sc.scripts[port])
               for port in range(sc.ports)]
    return drive(sim, log, senders,
                 [(sink.get, paces) for sink, paces in zip(sinks, sc.paces)],
                 snap, sc.tick, injector)


def mismatch(expected, got):
    for name, want, have in zip(("actions", "probe", "instant ends", "end"),
                                expected, got):
        if have != want:
            return (f"{name} differ from entry "
                    f"{first_difference(want, have)}"
                    if isinstance(want, list) else f"{name} differ")
    return None


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("faults", [False, True], ids=["lossless", "faults"])
def test_single_switch_matches_process_switch(faults, kernel):
    for seed in SWITCH_SEEDS:
        scenario = SwitchScenario(seed, faults)
        problem = mismatch(run_switch(ReferenceSwitch, scenario, kernel),
                           run_switch(Switch, scenario, kernel))
        assert problem is None, f"seed {seed}: {problem}"


def test_single_switch_scenarios_reach_the_hard_cases():
    """Stalled pumps, full quotas, every fault kind, and traffic that
    drains completely."""
    stalls = full = 0
    kinds = set()
    for seed in SWITCH_SEEDS:
        scenario = SwitchScenario(seed, True)
        log, probe, _, end = run_switch(Switch, scenario, "bucket")
        assert end < LIMIT_NS, f"seed {seed} did not drain"
        stalls += probe[-1][2][3] > 0
        quota = scenario.params.sizing.switch_output_quota
        outputs = slice(2 * scenario.ports, 3 * scenario.ports)
        full += any(max(sample[1][outputs]) == quota for sample in probe)
        kinds.update(entry[4] for entry in log if entry[0] == "fault")
    assert stalls >= len(SWITCH_SEEDS) // 4
    assert full >= len(SWITCH_SEEDS) // 4
    assert kinds == {"deliver", "drop", "corrupt", "duplicate", "stall"}


# -- a small torus -------------------------------------------------------


class TorusScenario:
    """Everything one 3x3 torus run reads: the same traffic as the
    single switch, one host per switch, on both planes."""

    def __init__(self, seed: int, faults: bool):
        rng = random.Random(1000 + seed * 2 + faults)
        self.params = DEFAULT_PARAMS.with_sizing(
            link_credits=1, switch_port_fifo=rng.randint(1, 2),
            hib_out_fifo=rng.randint(1, 3), hib_in_fifo=rng.randint(1, 3),
        ).with_timing(
            link_bytes_per_us=1000, link_prop_ns=rng.randint(1, 4),
            switch_route_ns=rng.choice((0, 1, 2, 3)))
        hosts = list(range(9))
        self.scripts = scripts(rng, hosts, hosts, (1, 2, 3, 4),
                               rounds=rng.randint(4, 7),
                               kinds=(PacketKind.WRITE_REQ,) * 3
                               + (PacketKind.READ_REPLY,))
        self.paces = [[rng.choice((0, 0, 1, 2, rng.randint(1, 8)))
                       for _ in range(200)] for _ in range(2 * len(hosts))]
        self.tick = rng.choice((1, 2, 3))
        self.faults = [rng.choice(FAULT_KINDS) if faults else "deliver"
                       for _ in range(64)]
        self.stalls = [rng.randint(1, 8) for _ in self.faults]


@contextmanager
def torus_switch(switch_class):
    saved = fabric_module.TorusSwitch
    fabric_module.TorusSwitch = switch_class
    try:
        yield
    finally:
        fabric_module.TorusSwitch = saved


def run_torus(switch_class, sc: TorusScenario, routing: str, kernel: str):
    sim = KERNELS[kernel]()
    log: list = []
    injector = SiteInjector(sc.faults, sc.stalls, sim, log)
    with torus_switch(switch_class):
        fabric = Fabric(sim, sc.params, topology.torus2d(3, 3, 1),
                        injector=injector, routing=routing)
    # The queues' deques, read at C speed: a snapshot per event.
    items = ([link.src._items for link in fabric.links]
             + [link.dst._items for link in fabric.links])
    switches = [sw for plane in fabric.torus_switches.values()
                for sw in plane.values()]
    counters = attrgetter("packets_routed", "adaptive_hops", "escape_hops",
                          "datelines_crossed", "escape_fallbacks")

    def snap():
        return (tuple(map(len, items)), tuple(map(counters, switches)),
                tuple(tuple(sw.queue_depth.counts) for sw in switches))

    ports = [fabric.port(host) for host in range(9)]
    senders = [(ports[host].send, sc.scripts[host]) for host in range(9)]
    getters = ([port.receive for port in ports]
               + [port.receive_reply for port in ports])
    log, probe, ends, end = drive(sim, log, senders,
                                  list(zip(getters, sc.paces)),
                                  snap, sc.tick, injector)
    return log, probe, ends, (end, [sw.queue_depth.counts for sw in switches])


@pytest.mark.parametrize("faults", [False, True], ids=["lossless", "faults"])
@pytest.mark.parametrize("routing", ["dor", "adaptive"])
def test_small_torus_matches_process_torus_switch(routing, faults):
    for seed in TORUS_SEEDS:
        scenario = TorusScenario(seed, faults)
        problem = mismatch(
            run_torus(ReferenceTorusSwitch, scenario, routing, "bucket"),
            run_torus(fabric_module.TorusSwitch, scenario, routing, "bucket"))
        assert problem is None, f"seed {seed}: {problem}"


def test_small_torus_scenarios_contend():
    """Both modes route; adaptive runs also fall back to escape
    channels."""
    for routing in ("dor", "adaptive"):
        _, _, ends, _ = run_torus(fabric_module.TorusSwitch,
                                  TorusScenario(0, True), routing, "bucket")
        counters = ends[-1][2]
        assert sum(c[0] for c in counters) > 0
        if routing == "adaptive":
            assert sum(c[1] for c in counters) > 0  # adaptive hops
            assert sum(c[4] for c in counters) > 0  # escape fallbacks


# -- whole clusters ------------------------------------------------------


@contextmanager
def process_switches(patch):
    with patch.context() as context:
        context.setattr(fabric_module, "Switch", ReferenceSwitch)
        context.setattr(fabric_module, "TorusSwitch", ReferenceTorusSwitch)
        yield


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("faults", [False, True], ids=["lossless", "faults"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_cluster_matches_process_switches(fabric, faults, kernel, monkeypatch):
    for seed in CLUSTER_SEEDS:
        got = subject_run(fabric, faults, kernel, seed)
        with process_switches(monkeypatch):
            expected = run_cluster(fabric, faults, kernel, seed)
        assert got[1:] == expected[1:], (
            f"seed {seed}: memory, end time or switch counters")
        assert got[0] == expected[0], f"seed {seed}: Chrome trace differs"


SMALL_BUFFERS = DEFAULT_PARAMS.with_sizing(
    switch_buffer_slots=3, switch_output_quota=2, switch_port_fifo=1,
    link_credits=1, hib_out_fifo=2, hib_in_fifo=2)


def run_flood(topo: str):
    cluster = Cluster(ClusterConfig(n_nodes=6, topology=topo,
                                    params=SMALL_BUFFERS, trace_lanes=True))
    hot = cluster.alloc_segment(home=0, pages=1, name="hot")
    contexts = []
    for node in range(1, 6):
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(hot)

        def program(p, node=node, base=base):
            for i in range(12):
                yield p.store(base + 4 * (node * 16 + i), i)
            yield p.fence()

        contexts.append(cluster.start(proc, program))
    cluster.run(join=contexts)
    return (canonical_trace_bytes(cluster), cluster.now,
            switch_counters(cluster.fabric))


def test_small_buffer_floods_match_process_switches(monkeypatch):
    stalls = 0
    for topo in ("star", "chain", "ring", "mesh"):
        got = run_flood(topo)
        with process_switches(monkeypatch):
            expected = run_flood(topo)
        assert got == expected, f"{topo}: flood differs"
        stalls += sum(counters[2] for counters in got[2])
    assert stalls > 0


#: Tight scenarios where a transmitter's empty-queue wait, run one
#: delay-0 step after its slot return, sees a pump's put that was
#: already queued at that instant (found by searching seeds 0-999).
EMPTY_WAIT_CASES = [(145, True), (613, True)]


def test_tight_switch_scenarios_match_process_switch():
    for seed, faults in EMPTY_WAIT_CASES + [(seed, True)
                                            for seed in SWITCH_SEEDS]:
        scenario = SwitchScenario(seed, faults, tight=True)
        problem = mismatch(run_switch(ReferenceSwitch, scenario, "bucket"),
                           run_switch(Switch, scenario, "bucket"))
        assert problem is None, f"tight seed {seed}: {problem}"


# -- sensitivity ---------------------------------------------------------


def fold_link_put(self, voq, packet):
    """Mutant: the transmitter's link put runs inside the pump's
    output-put event instead of one delay-0 step later."""
    if self.waiting:
        self.waiting = False
        self.send(packet)
        self.sim._post(0, voq.routed)
    else:
        ORIGINAL_PUT(self, voq, packet)


def fold_empty_wait(self):
    """Mutant: the transmitter finding its queue empty waits inside its
    slot-return event instead of one delay-0 step later."""
    switch = self.switch
    if switch._stalled or self.items:
        ORIGINAL_RELEASE(self)
    else:
        switch._free += 1
        self.waiting = True


ORIGINAL_PUT = Output.put
ORIGINAL_RELEASE = Output.release


@pytest.mark.parametrize("method, mutant, cases", [
    ("put", fold_link_put, [(seed, True, False) for seed in SWITCH_SEEDS]),
    ("release", fold_empty_wait,
     [(seed, faults, True) for seed, faults in EMPTY_WAIT_CASES]),
], ids=["link-put-in-pump-event", "empty-wait-in-slot-return"])
def test_single_switch_harness_catches_folds(method, mutant, cases,
                                             monkeypatch):
    for seed, faults, tight in cases:
        scenario = SwitchScenario(seed, faults, tight)
        expected = run_switch(ReferenceSwitch, scenario, "bucket")
        with monkeypatch.context() as patch:
            patch.setattr(Output, method, mutant)
            got = run_switch(Switch, scenario, "bucket")
        if mismatch(expected, got) is not None:
            return
    pytest.fail("no single-switch scenario tells the fold apart")
