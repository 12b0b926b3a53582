"""The benchmark's workloads, driven through the public ``repro`` API.

``torus_stream`` and ``lossy_rpc`` are cluster workloads: each
:meth:`ClusterWorkload.stage` builds a fresh cluster from the same
seeded inputs, :meth:`Staged.run` is the timed ``Cluster.run(join=)``,
and :meth:`ClusterWorkload.finish` checks the outputs and reads the
layer counters.  ``sweep`` is the forced serial sweep of the experiment
catalogue (:func:`sweep_pass`), plus an in-process variant for the
sampled run (:func:`traced_sweep_pass`).

Every check counts a wrong outcome as a failed operation rather than
raising, so a defect shows as a number the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.api import Cluster, ClusterConfig

from hostspeed import SpeedProbe

#: torus_stream shape: a 12x12 torus (two hosts per switch) with every
#: host streaming TORUS_STORES posted stores to its own word on a far
#: host, and a blocking read of that word after every TORUS_READ_EVERY
#: stores.
TORUS_HOSTS = 256
TORUS_STORES = 8
TORUS_READ_EVERY = 4

#: lossy_rpc shape: the paper's single switch, every node looping
#: LOSSY_READS blocking remote reads then one fetch_and_add on the hot
#: counter homed at node 0, over a fabric that drops and corrupts.
LOSSY_NODES = 8
LOSSY_ITERS = 100
LOSSY_READS = 3
LOSSY_TABLE_WORDS = 256
LOSSY_FAULT_RATES = {"drop_rate": 0.01, "corrupt_rate": 0.005}


def digest(*parts: Any) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=8).hexdigest()


@dataclass
class Staged:
    """One built cluster with its programs started, ready to run."""

    cluster: Any
    contexts: List[Any]
    state: Any
    build_s: float
    setup_s: float
    run_s: float = 0.0

    def run(self) -> None:
        began = time.perf_counter()
        self.cluster.run(join=self.contexts)
        self.run_s = time.perf_counter() - began


@dataclass
class Rep:
    """What one staged run measured and produced."""

    build_s: float
    setup_s: float
    run_s: float
    #: The simulated outcome every repeat, traced or not, must reach.
    outcome: Dict[str, Any]
    failed: int
    #: True when the cluster ended with no outstanding operation.
    quiescent: bool
    counters: Dict[str, float] = field(default_factory=dict)


class ClusterWorkload:
    """Seeded inputs for one cluster workload; subclasses add the
    cluster shape, the programs and the output checks."""

    name = ""
    #: User operations (stores, loads, atomics) one staged run issues.
    planned_ops = 0

    def config(self, metrics: bool) -> ClusterConfig:
        raise NotImplementedError

    def start(self, cluster) -> Tuple[List[Any], Any]:
        """Allocate segments and start the programs; returns the
        program contexts and the state :meth:`check` reads."""
        raise NotImplementedError

    def check(self, cluster, state) -> Tuple[int, List[int], Any]:
        """``(failed ops, final home words, program observations)``."""
        raise NotImplementedError

    def stage(self, metrics: bool = False) -> Staged:
        began = time.perf_counter()
        cluster = Cluster(self.config(metrics))
        built = time.perf_counter()
        contexts, state = self.start(cluster)
        ready = time.perf_counter()
        return Staged(cluster, contexts, state, built - began, ready - began)

    def finish(self, staged: Staged) -> Rep:
        cluster = staged.cluster
        failed, words, observed = self.check(cluster, staged.state)
        injector = cluster.injector
        faults = dict(injector.counts) if injector is not None else {}
        outcome = {
            "events": cluster.sim.events_executed,
            "now_ns": cluster.now,
            "digest": digest(words, observed),
            "faults": faults,
        }
        quiescent = not any(n.hib.outstanding.count for n in cluster.nodes)
        return Rep(staged.build_s, staged.setup_s, staged.run_s, outcome,
                   failed, quiescent, layer_counters(cluster))


def layer_counters(cluster) -> Dict[str, float]:
    """The per-layer counts the public attributes expose after a run."""
    nodes = cluster.nodes
    fabric = cluster.fabric
    pool = fabric.pool
    links = fabric.link_stats().values()
    torus = [sw for plane in fabric.torus_switches.values()
             for sw in plane.values()]
    tree = [sw for plane in fabric.switches.values() for sw in plane.values()]
    injector = cluster.injector
    handed_out = pool.acquired + pool.recycled

    def hib(key: str) -> int:
        return sum(n.hib.stats[key] for n in nodes)

    return {
        "sim.events": cluster.sim.events_executed,
        "network.packets_routed": fabric.total_packets_routed,
        "network.link_bytes": sum(link["bytes"] for link in links),
        "network.link_busy_ns": sum(link["busy_ns"] for link in links),
        "network.pool_recycle_ratio":
            pool.recycled / handed_out if handed_out else 0.0,
        "network.adaptive_hops": sum(sw.adaptive_hops for sw in torus),
        "network.escape_fallbacks": sum(sw.escape_fallbacks for sw in torus),
        "network.buffer_stalls": sum(sw.buffer_stalls for sw in tree),
        "hib.remote_writes": hib("remote_writes"),
        "hib.remote_reads": hib("remote_reads"),
        "hib.atomics": hib("atomics"),
        "machine.cpu_ops": sum(n.cpu.ops_executed for n in nodes),
        "machine.io_stall_ns": sum(n.cpu.io_stall_ns for n in nodes),
        "machine.bus_wait_ns": sum(n.membus.wait_ns + n.tc_bus.wait_ns
                                   for n in nodes),
        "faults.injected": 0 if injector is None else sum(
            count for kind, count in injector.counts.items()
            if kind != "forced_drop"),
        "faults.node_failures":
            0 if injector is None else len(injector.node_failures),
    }


def registry_counters(cluster) -> Dict[str, float]:
    """Retransmission counts, which only the metrics registry keeps
    (needs ``ClusterConfig(metrics=True)``)."""
    snapshot = cluster.metrics.snapshot()

    def total(name: str) -> int:
        value = snapshot.get(name, 0)
        return sum(value.values()) if isinstance(value, dict) else value

    injected = sum(link["packets"] for name, link in
                   cluster.fabric.link_stats().items()
                   if name.startswith("host"))
    retransmits = total("hib.retransmits")
    return {
        "hib.retransmits": retransmits,
        "hib.timeouts": total("hib.timeouts"),
        "hib.nacks_sent": total("hib.nacks_sent"),
        "hib.retransmit_share": retransmits / injected if injected else 0.0,
    }


def torus_distance(a, b, dims) -> int:
    return sum(min((x - y) % size, (y - x) % size)
               for x, y, size in zip(a, b, dims))


class TorusStream(ClusterWorkload):
    """Posted-store streams across a lossless adaptive-routed torus."""

    name = "torus_stream"
    planned_ops = TORUS_HOSTS * (TORUS_STORES + TORUS_STORES // TORUS_READ_EVERY)

    def __init__(self, seed: int):
        from repro.network.topology import by_name

        topo = by_name("torus", TORUS_HOSTS)
        where = topo.host_attachment
        rng = random.Random(seed)
        #: home[w]: the host holding writer w's word, drawn among the
        #: hosts within one hop of w's farthest distance.
        self.home: List[int] = []
        #: offset[w]: the word's byte offset in its home's segment.
        self.offset: List[int] = []
        words_at: Dict[int, int] = {}
        for writer in range(TORUS_HOSTS):
            dist = [torus_distance(where[writer], where[h], topo.dims)
                    for h in range(TORUS_HOSTS)]
            far = max(dist) - 1
            home = rng.choice([h for h in range(TORUS_HOSTS) if dist[h] >= far])
            self.home.append(home)
            self.offset.append(4 * words_at.get(home, 0))
            words_at[home] = words_at.get(home, 0) + 1

    def config(self, metrics: bool) -> ClusterConfig:
        return ClusterConfig(n_nodes=TORUS_HOSTS, topology="torus",
                             routing="adaptive", trace=False, metrics=metrics)

    def start(self, cluster):
        segments = {home: cluster.alloc_segment(home=home, pages=1,
                                                name=f"stream@{home}")
                    for home in sorted(set(self.home))}
        words = [(segments[home], offset)
                 for home, offset in zip(self.home, self.offset)]
        reads: List[List[Tuple[int, int]]] = [[] for _ in self.home]
        done = [0] * TORUS_HOSTS
        contexts = []
        for writer, (segment, offset) in enumerate(words):
            proc = cluster.create_process(node=writer, name=f"stream{writer}")
            contexts.append(cluster.start(proc, partial(
                _stream, addr=proc.map(segment) + offset,
                reads=reads[writer], done=done, writer=writer)))
        return contexts, (words, reads, done)

    def check(self, cluster, state):
        homes, reads, done = state
        words = [segment.peek(offset) for segment, offset in homes]
        failed = sum(self.planned_ops // TORUS_HOSTS - n for n in done)
        # A stream whose home word is not its last store lost that
        # store's effect to an older one overtaking it.
        failed += sum(1 for word in words if word != TORUS_STORES)
        # §2.1 per-pair order: the word has a single writer, and its
        # loads leave through the same HIB path as its posted stores, so
        # a read issued after store i returns exactly i.
        failed += sum(1 for stream in reads for issued, value in stream
                      if value != issued)
        return failed, words, reads


def _stream(p, addr, reads, done, writer):
    for i in range(1, TORUS_STORES + 1):
        yield p.store(addr, i)
        done[writer] += 1
        if i % TORUS_READ_EVERY == 0:
            value = yield p.load(addr)
            reads.append((i, value))
            done[writer] += 1


class LossyRpc(ClusterWorkload):
    """Blocking reads and atomics over the reliable transport."""

    name = "lossy_rpc"
    planned_ops = LOSSY_NODES * LOSSY_ITERS * (LOSSY_READS + 1)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.faults = {"seed": rng.randrange(1 << 31), **LOSSY_FAULT_RATES}
        self.table = [rng.randrange(1, 1 << 31)
                      for _ in range(LOSSY_TABLE_WORDS)]
        self.indices = [
            [rng.randrange(LOSSY_TABLE_WORDS)
             for _ in range(LOSSY_ITERS * LOSSY_READS)]
            for _ in range(LOSSY_NODES)]

    def config(self, metrics: bool) -> ClusterConfig:
        return ClusterConfig(n_nodes=LOSSY_NODES, topology="star", trace=False,
                             metrics=metrics, faults=self.faults)

    def start(self, cluster):
        hot = cluster.alloc_segment(home=0, pages=1, name="hot")
        tables = []
        for home in range(LOSSY_NODES):
            table = cluster.alloc_segment(home=home, pages=1,
                                          name=f"table@{home}")
            for index, value in enumerate(self.table):
                table.poke(4 * index, value)
            tables.append(table)
        reads: List[List[Tuple[int, int]]] = [[] for _ in range(LOSSY_NODES)]
        olds: List[int] = []
        contexts = []
        for node in range(LOSSY_NODES):
            proc = cluster.create_process(node=node, name=f"rpc{node}")
            contexts.append(cluster.start(proc, partial(
                _rpc, counter=proc.map(hot),
                table=proc.map(tables[(node + 1) % LOSSY_NODES]),
                indices=self.indices[node], reads=reads[node], olds=olds)))
        return contexts, (hot, reads, olds)

    def check(self, cluster, state):
        hot, reads, olds = state
        increments = LOSSY_NODES * LOSSY_ITERS
        failed = self.planned_ops - sum(map(len, reads)) - len(olds)
        failed += sum(1 for stream in reads for index, value in stream
                      if value != self.table[index])
        # Atomicity: the old values form a permutation of 0..n-1, and
        # the counter ends at n.  A lost increment shows in both, so
        # count it once.
        distinct = len(set(olds) & set(range(increments)))
        counter = hot.peek(0)
        failed += max(len(olds) - distinct, abs(counter - increments))
        failed += len(cluster.injector.node_failures)
        return failed, [counter], (reads, olds)


def _rpc(p, counter, table, indices, reads, olds):
    index = iter(indices)
    for _ in range(LOSSY_ITERS):
        for _ in range(LOSSY_READS):
            i = next(index)
            reads.append((i, (yield p.load(table + 4 * i))))
        olds.append((yield from p.fetch_and_add(counter, 1)))


CLUSTER_WORKLOADS = {cls.name: cls for cls in (TorusStream, LossyRpc)}


# -- sweep -------------------------------------------------------------------


@dataclass
class SweepPass:
    """One pass of the catalogue into a fresh results directory."""

    sweep_s: float
    render_s: float
    #: Experiment ids that raised or whose document differs from the
    #: committed one.
    failed: List[str]
    #: Rendered outputs (EXPERIMENTS.md, aggregates) that differ.
    render_mismatches: List[str]
    spec_s: List[float] = field(default_factory=list)
    #: ``run_s`` less the probe units, in reference seconds (hostspeed).
    scaled_s: float = 0.0

    @property
    def run_s(self) -> float:
        return self.sweep_s + self.render_s


def _render(results_dir: str, grids) -> Dict[str, bytes]:
    """EXPERIMENTS.md and every grid aggregate, as committed bytes."""
    from repro.analysis import aggregate_family, render_experiments_md
    from repro.exp import canonical_json_bytes

    out = {"EXPERIMENTS.md":
           render_experiments_md(results_dir=results_dir).encode("utf-8")}
    for grid in grids:
        out[f"results/aggregates/{grid.family}.json"] = canonical_json_bytes(
            aggregate_family(grid, results_dir))
    return out


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def differing_documents(specs, results_dir: str, reference_dir: str) -> List[str]:
    """Ids whose document in ``results_dir`` is missing or not
    byte-identical to the one in ``reference_dir``."""
    differing = []
    for spec in specs:
        name = f"{spec.exp_id}.json"
        produced = _read(os.path.join(results_dir, name))
        if produced is None or produced != _read(os.path.join(reference_dir, name)):
            differing.append(spec.exp_id)
    return differing


def _finish_pass(specs, grids, results_dir: str, root: str, failed: List[str],
                 sweep_s: float) -> SweepPass:
    from repro.analysis import AggregateError
    from repro.analysis.report import ResultsError

    began = time.perf_counter()
    try:
        rendered = _render(results_dir, grids)
    except (AggregateError, ResultsError) as exc:
        # A failed spec leaves a gap nothing can be rendered from.
        rendered = {"render": repr(exc).encode()}
    render_s = time.perf_counter() - began
    failed = sorted(set(failed) | set(
        differing_documents(specs, results_dir, os.path.join(root, "results"))))
    mismatches = [name for name, data in rendered.items()
                  if data != _read(os.path.join(root, name))]
    shutil.rmtree(results_dir)
    return SweepPass(sweep_s, render_s, failed, mismatches)


class SpecLog:
    """Spans around the ``ExperimentSpec.run`` calls ``run_sweep``
    makes, and with ``probe`` the host-speed probe units that ran in
    its worker.

    :meth:`wrap` returns copies of the specs whose ``run`` appends one
    line to a log file, so the figures survive the sweep's forked
    worker: the call's duration, then the probe units since the previous
    line.  With ``probe`` the first call arms a :class:`SpeedProbe` in
    the worker, which stays armed until the worker exits.  The cache key
    does not cover ``run``, so the wrapped specs write the same
    documents.
    """

    def __init__(self, work_dir: str, probe: bool):
        handle, self.path = tempfile.mkstemp(prefix="spans-", dir=work_dir)
        os.close(handle)
        self.probe = probe

    def wrap(self, specs) -> list:
        return [dataclasses.replace(
                    spec, run=partial(_logged, spec.run, self.path, self.probe))
                for spec in specs]

    def take(self) -> Tuple[List[float], List[float]]:
        """``(spans, probe units)`` logged since the last call, in
        seconds."""
        spans: List[float] = []
        units: List[float] = []
        with open(self.path, "r+", encoding="utf-8") as handle:
            for line in handle:
                span, *probed = map(float, line.split())
                spans.append(span)
                units.extend(probed)
            handle.truncate(0)
        return spans, units

    def close(self) -> None:
        os.remove(self.path)


#: The probe a sweep worker arms on its first spec (None elsewhere).
_worker_probe: Optional[SpeedProbe] = None


def _logged(run, log_path: str, probe: bool, **params):
    global _worker_probe
    if probe and _worker_probe is None:
        _worker_probe = SpeedProbe().__enter__()
    began = time.perf_counter()
    try:
        return run(**params)
    finally:
        line = [time.perf_counter() - began]
        if _worker_probe is not None:
            line += _worker_probe.units
            _worker_probe.units = []
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(" ".join(map(repr, line)) + "\n")


def sweep_pass(specs, grids, work_dir: str, root: str) -> SweepPass:
    """The forced serial sweep (one forked worker), then the render."""
    from repro.exp import ResultCache, run_sweep

    results_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
    began = time.perf_counter()
    outcome = run_sweep(specs, workers=1, cache=ResultCache(results_dir),
                        force=True)
    sweep_s = time.perf_counter() - began
    for failure in outcome.failures:
        print(f"sweep: {failure.experiment} failed:\n{failure.error}",
              file=sys.stderr)
    failed = [failure.experiment for failure in outcome.failures]
    return _finish_pass(specs, grids, results_dir, root, failed, sweep_s)


def traced_sweep_pass(specs, grids, work_dir: str, root: str) -> SweepPass:
    """The same catalogue run in-process, one span per
    ``ExperimentSpec.run``; the caller samples it (interval timers do
    not survive the sweep's fork)."""
    from repro.exp import ResultCache

    results_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
    cache = ResultCache(results_dir)
    failed: List[str] = []
    spec_s: List[float] = []
    began = time.perf_counter()
    for spec in specs:
        started = time.perf_counter()
        try:
            result = spec.run(**spec.params)
        except Exception:  # counted as a failed op; the sweep goes on
            print(f"sweep: {spec.exp_id} failed:", file=sys.stderr)
            traceback.print_exc()
            failed.append(spec.exp_id)
            continue
        finally:
            spec_s.append(time.perf_counter() - started)
        cache.store(spec, result)
    sweep = _finish_pass(specs, grids, results_dir, root, failed,
                         time.perf_counter() - began)
    sweep.spec_s = spec_s
    return sweep
