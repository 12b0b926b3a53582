"""Differential harness: the link state machine against the process-pair
link it replaced (``reference_link.py``).

The two must be indistinguishable from outside: every queue put and
get, fault decision and trace record at the same simulated time and in
the same order relative to every other event.  Two levels check it:

- **One link, seeded traffic.**  Packet sizes whose serialization is
  both shorter and longer than propagation, source and destination
  capacities of 1–4, bursts timed to land on serialization-end
  instants (one gap reads ``len(src)`` mid-instant, so a drain moved
  across another step at that instant changes the producer's next
  move), a paced consumer, and a scripted injector that drops,
  corrupts, duplicates and stalls.  The producer, consumer and
  injector share one action log, so its order is the interleaving of
  their steps.  A probe process samples ``len(src)``, ``len(dst)`` and
  ``busy_ns`` at every tick; a kernel hook samples those and the
  carried counters at the end of every instant.  (The carried counters
  move in the event where ``dst`` accepts a packet, one delay-0 step
  before the process-pair link moved them, so only the instant's end
  compares them.)
- **Whole clusters.**  ``repro.network.fabric.Link`` is swapped for the
  reference; star, chain and torus (dor, adaptive) fabrics run a
  store/load/atomic/fence program with faults off and on, under both
  kernels, with lane spans on.  Chrome-trace exports must match byte
  for byte, as must final memory, end time and switch counters.  The
  run as built is made once per configuration and seed
  (``subject_run``) and shared with the switch, queue and timer
  harnesses.

``REPRO_STRESS_ITERS=N`` multiplies the seed counts.
"""

from __future__ import annotations

import functools
import os
import random

import pytest

import repro.network.fabric as fabric_module
from repro.api import Cluster, ClusterConfig
from repro.faults.plan import FaultDecision
from repro.network.link import Link
from repro.network.packet import Packet, PacketKind
from repro.obs import KernelHooks
from repro.params import DEFAULT_PARAMS
from repro.sim import BoundedQueue, make_simulator
from tests.fixtures.golden_runs import canonical_trace_bytes
from tests.network.reference_link import ReferenceLink

STRESS_ITERS = max(1, int(os.environ.get("REPRO_STRESS_ITERS", "1")))
LINK_SEEDS = list(range(30 * STRESS_ITERS))
CLUSTER_SEEDS = list(range(STRESS_ITERS))

FAULT_KINDS = ("deliver",) * 6 + ("drop", "corrupt", "duplicate", "stall")


class Scenario:
    """Everything one single-link run reads: the link's timing and
    queues, the packets, and the drivers' scripts."""

    def __init__(self, bytes_per_us, prop, sizes, src_cap, dst_cap,
                 bursts, gaps, rand_gaps, paces, tick, faults, stalls):
        self.timing = DEFAULT_PARAMS.with_timing(
            link_bytes_per_us=bytes_per_us, link_prop_ns=prop).timing
        self.prop = prop
        self.sizes = sizes
        self.ser = [self.timing.serialization_ns(s) for s in sizes]
        self.src_cap, self.dst_cap = src_cap, dst_cap
        #: Producer: burst lengths, and after each burst a gap kind
        #: (see ``run_link``) with its random option.
        self.bursts, self.gaps, self.rand_gaps = bursts, gaps, rand_gaps
        #: Consumer: the wait after each packet it takes.
        self.paces = paces
        #: Probe period.
        self.tick = tick
        #: Injector: one decision per traversal, and its stall time.
        self.faults, self.stalls = faults, stalls


def random_scenario(seed: int, faults: bool) -> Scenario:
    rng = random.Random(seed * 2 + faults)
    bytes_per_us = rng.choice((250, 500, 1000))
    sizes = [1] + [rng.randint(1, 64) for _ in range(rng.randint(20, 40))]
    sizes.append(64)
    ser = [size * 1000 // bytes_per_us for size in sizes]
    # Propagation inside the serialization range, often equal to one
    # packet's serialization time.
    prop = (rng.choice(sorted(set(ser))[1:-1]) if rng.random() < 0.5
            else rng.randint(min(ser) + 1, max(ser) - 1))
    decisions = [rng.choice(FAULT_KINDS) if faults else "deliver"
                 for _ in range(4 * len(sizes))]
    return Scenario(
        bytes_per_us, prop, sizes,
        src_cap=rng.randint(1, 4), dst_cap=rng.randint(1, 4),
        bursts=[rng.randint(1, 5) for _ in sizes],
        gaps=[rng.randrange(6) for _ in sizes],
        rand_gaps=[rng.randint(1, 3 * prop) for _ in sizes],
        paces=[rng.choice((0, 0, 1, prop, rng.choice(ser),
                           rng.randint(1, 2 * prop)))
               for _ in range(4 * len(sizes))],
        tick=rng.choice((1, 3, prop)),
        faults=decisions,
        stalls=[rng.randint(1, 2 * prop) for _ in decisions],
    )


class ScriptedInjector:
    """Plays ``scenario.faults`` in traversal order and logs each call."""

    def __init__(self, scenario: Scenario, sim, log: list):
        self.scenario, self.sim, self.log = scenario, sim, log
        self.calls = 0
        #: Net change to the number of deliveries: -1 per drop, +1 per
        #: duplicate.
        self.extra = 0

    def action_for(self, site: str, packet: Packet) -> FaultDecision:
        kind = self.scenario.faults[self.calls]
        stall = self.scenario.stalls[self.calls]
        self.calls += 1
        self.extra += (kind == "duplicate") - (kind == "drop")
        self.log.append(("fault", self.sim.now, site, packet.seq, kind))
        return FaultDecision(kind, stall if kind == "stall" else 0)


class InstantEnds(KernelHooks):
    """Samples ``snap()`` once at the end of every instant that ran an
    event: when the clock leaves it, and at :meth:`flush`."""

    def __init__(self, snap):
        self.snap = snap
        self.samples: list = []
        #: The time of the last event run, until the clock leaves it.
        self._time = None

    def on_execute(self, sim, time_ns, fn) -> None:
        self._time = time_ns

    def on_advance(self, sim, old_ns, new_ns) -> None:
        self._sample()

    def flush(self) -> list:
        self._sample()
        return self.samples

    def _sample(self) -> None:
        if self._time is not None:
            self.samples.append((self._time,) + self.snap())
            self._time = None


def run_link(link_class, scenario: Scenario, kernel: str):
    """Drive one link through ``scenario``; return its logs."""
    sim = make_simulator(kernel)
    src = BoundedQueue(scenario.src_cap, name="src")
    dst = BoundedQueue(scenario.dst_cap, name="dst")
    actions: list = []
    probe: list = []
    received = [0]
    injector = ScriptedInjector(scenario, sim, actions)
    link = link_class(sim, scenario.timing, src, dst, name="L",
                      injector=injector)
    ends = InstantEnds(lambda: (len(src), len(dst), link.busy_ns,
                                link.packets_carried, link.bytes_carried))
    sim.hooks = ends
    packets = [Packet(PacketKind.WRITE_REQ, 0, 1, size, seq=i)
               for i, size in enumerate(scenario.sizes)]
    ser = scenario.ser

    def producer():
        sent = 0
        for burst, gap, rand_gap in zip(scenario.bursts, scenario.gaps,
                                        scenario.rand_gaps):
            for packet in packets[sent:sent + burst]:
                yield src.put(packet)
                actions.append(("put", sim.now, packet.seq))
            sent = min(sent + burst, len(packets))
            if sent == len(packets):
                return
            # The first two land on serialization ends: of the packet
            # the link took last (read from the queue right now), and
            # of the burst's last packet when it started at once.
            yield (ser[sent - 1 - len(src)], ser[sent - 1], 0,
                   scenario.prop, rand_gap, rand_gap)[gap]

    def consumer():
        for pace in scenario.paces:
            packet = yield dst.get()
            actions.append(("got", sim.now, packet.seq, packet.corrupted))
            received[0] += 1
            yield pace

    def sampler():
        # Until every packet is consumed or dropped: a count that stays
        # short while any packet is still undecided.
        while received[0] < len(packets) + injector.extra:
            probe.append((sim.now, len(src), len(dst), link.busy_ns))
            yield scenario.tick

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.spawn(sampler(), name="probe")
    sim.run()
    final = (sim.now, link.packets_carried, link.bytes_carried,
             link.busy_ns)
    return actions, probe, ends.flush(), final


def first_difference(want, have) -> int:
    for index, (a, b) in enumerate(zip(want, have)):
        if a != b:
            return index
    return min(len(want), len(have))


@pytest.mark.parametrize("kernel", ["bucket", "reference"])
@pytest.mark.parametrize("faults", [False, True], ids=["lossless", "faults"])
def test_single_link_matches_process_pair_link(faults, kernel):
    for seed in LINK_SEEDS:
        scenario = random_scenario(seed, faults)
        expected = run_link(ReferenceLink, scenario, kernel)
        got = run_link(Link, scenario, kernel)
        for name, want, have in zip(
                ("actions", "probe", "instant ends", "final"),
                expected, got):
            assert have == want, (
                f"seed {seed}: {name} differ from entry "
                f"{first_difference(want, have)}")


def test_flight_slot_frees_one_step_after_accept():
    """A serialization that ends at the instant ``dst`` accepts the
    previous packet finds the flight slot still taken: the wire's next
    packet flies two delay-0 steps after the accept, not from the
    serialization's own drain step."""
    scenario = Scenario(
        1000, 4, [3, 4, 2, 3, 4], src_cap=4, dst_cap=4,
        bursts=[2, 2, 1, 1, 2], gaps=[4, 3, 0, 3, 3],
        rand_gaps=[7, 8, 12, 8, 3], paces=[1, 0, 1, 1, 4], tick=2,
        faults=["deliver"] * 5, stalls=[0] * 5)
    assert run_link(Link, scenario, "bucket") == run_link(
        ReferenceLink, scenario, "bucket")


def test_single_link_scenarios_cover_the_hard_cases():
    """The seeds reach what the harness claims to exercise."""
    both = stalls = dups = 0
    for seed in LINK_SEEDS:
        scenario = random_scenario(seed, True)
        both += min(scenario.ser) < scenario.prop < max(scenario.ser)
        dups += "duplicate" in scenario.faults
        stalls += "stall" in scenario.faults
    assert both == dups == stalls == len(LINK_SEEDS)
    actions, probe, _, _ = run_link(Link, random_scenario(0, True), "bucket")
    kinds = {entry[4] for entry in actions if entry[0] == "fault"}
    assert kinds == {"deliver", "drop", "corrupt", "duplicate", "stall"}
    assert probe


FABRICS = {
    "star": {"topology": "star"},
    "chain": {"topology": "chain"},
    "dor": {"topology": "torus", "routing": "dor"},
    "adaptive": {"topology": "torus", "routing": "adaptive"},
}

N_NODES = 6


def run_cluster(fabric: str, faults: bool, kernel: str, seed: int):
    config = dict(n_nodes=N_NODES, trace_lanes=True, kernel=kernel,
                  **FABRICS[fabric])
    if faults:
        config["faults"] = {
            "seed": seed, "drop_rate": 0.03, "corrupt_rate": 0.03,
            "duplicate_rate": 0.03, "stall_rate": 0.03, "stall_ns": 700}
    cluster = Cluster(ClusterConfig(**config))
    segments = [cluster.alloc_segment(home=home, pages=1, name=f"s{home}")
                for home in range(N_NODES)]
    contexts = []
    for node in range(N_NODES):
        proc = cluster.create_process(node=node, name=f"p{node}")
        bases = [proc.map(segment) for segment in segments]

        def program(p, node=node, bases=bases):
            for i in range(8):
                home = (node + 1 + i * (seed + 1) % (N_NODES - 1)) % N_NODES
                yield p.store(bases[home] + 4 * (node * 8 + i), node * 100 + i)
                if i % 3 == 2:
                    yield p.load(bases[(node + 2) % N_NODES] + 4 * i)
                if i % 4 == 3:
                    yield from p.fetch_and_add(bases[0] + 0x800, 1)
            yield p.fence()

        contexts.append(cluster.start(proc, program))
    cluster.run(join=contexts)
    memory = [segment.peek(4 * word) for segment in segments
              for word in range(8 * N_NODES)] + [segments[0].peek(0x800)]
    return (canonical_trace_bytes(cluster), memory, cluster.now,
            switch_counters(cluster.fabric))


@functools.lru_cache(maxsize=None)
def subject_run(fabric: str, faults: bool, kernel: str, seed: int):
    """:func:`run_cluster` on the cluster as built, run once per argument
    set and shared by the link, switch, queue and timer harnesses, which
    compare it with their oracles.  Call it only where nothing is
    patched, so no run made under a patch (an oracle or a mutant) is
    cached; and never mutate the result, which every caller shares."""
    return run_cluster(fabric, faults, kernel, seed)


def switch_counters(fabric) -> list:
    """Every switch's counters, in build order."""
    tree = [(sw.packets_routed, sw.peak_buffer_use, sw.buffer_stalls)
            for plane in fabric.switches.values() for sw in plane.values()]
    torus = [(sw.stats, sw.queue_depth.count, sw.queue_depth.total)
             for plane in fabric.torus_switches.values()
             for sw in plane.values()]
    return tree + torus


@pytest.mark.parametrize("kernel", ["bucket", "reference"])
@pytest.mark.parametrize("faults", [False, True], ids=["lossless", "faults"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_cluster_matches_process_pair_links(fabric, faults, kernel,
                                            monkeypatch):
    for seed in CLUSTER_SEEDS:
        got = subject_run(fabric, faults, kernel, seed)
        with monkeypatch.context() as patch:
            patch.setattr(fabric_module, "Link", ReferenceLink)
            expected = run_cluster(fabric, faults, kernel, seed)
        assert got[1:] == expected[1:], (
            f"seed {seed}: memory, end time or switch counters")
        assert got[0] == expected[0], f"seed {seed}: Chrome trace differs"
