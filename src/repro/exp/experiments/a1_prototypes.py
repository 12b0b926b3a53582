"""[A1] Ablation — Telegraphos I vs Telegraphos II design choices.

§2.2.1 and §2.2.4 describe two axes on which the prototypes differ,
and the paper argues each way:

1. **Local shared data placement**: Tg I keeps it in the HIB's MPM
   ("better control over all Telegraphos operations"); Tg II keeps it
   in main memory ("cacheability and faster access to shared data").
   Measured: cost of a local shared-data read/write on each.

2. **Special-operation launching**: Tg I uses special mode + PAL (an
   uninterruptible multi-store sequence); Tg II uses contexts + shadow
   addressing + keys (more stores, but interruptible and per-process).
   Measured: end-to-end cost of a remote fetch&add launch on each.

Neither dominates — which is precisely why the paper built both.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import MarkdownTable
from repro.exp.spec import ExperimentSpec, unmet


def _local_shared_access_us(prototype: int) -> Dict[str, float]:
    from repro.analysis import measure_single_ops, us
    from repro.api import Cluster, ClusterConfig
    from repro.params import Params

    cluster = Cluster(ClusterConfig(
        n_nodes=2, params=Params(prototype=prototype), trace=False))
    seg = cluster.alloc_segment(home=0, pages=1, name="local")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    reads = measure_single_ops(
        cluster, proc, lambda i: proc.load(base + 4 * (i % 16)), count=40,
        fence_between=False,
    )
    writes = measure_single_ops(
        cluster, proc, lambda i: proc.store(base + 4 * (i % 16), i), count=40,
        fence_between=False,
    )
    return {"read_us": us(reads.mean), "write_us": us(writes.mean)}


def _atomic_launch_us(prototype: int) -> Dict[str, float]:
    """The launch-sequence overhead (argument-passing stores alone)
    and the end-to-end cost of a remote fetch&add, in µs."""
    from repro.analysis import us
    from repro.api import Cluster, ClusterConfig
    from repro.hib.registers import Reg
    from repro.hib.special import SpecialOpcode
    from repro.machine.ops import Load, PalSequence, Store
    from repro.params import Params

    cluster = Cluster(ClusterConfig(
        n_nodes=2, params=Params(prototype=prototype), trace=False))
    seg = cluster.alloc_segment(home=1, pages=1, name="sync")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    driver = proc.station.driver
    binding = proc.binding
    marks = {"stores": [], "total": []}

    def program(p):
        yield from p.fetch_and_add(base, 1)  # warm-up (TLB, mappings)
        for _ in range(20):
            start = cluster.now
            if prototype == 1:
                yield PalSequence([
                    Store(binding.hib_vaddr + Reg.SPECIAL_MODE,
                          SpecialOpcode.FETCH_AND_ADD.value),
                    Store(base, 1),
                ])
                marks["stores"].append(cluster.now - start)
                yield Load(binding.hib_vaddr + Reg.SPECIAL_RESULT)
            else:
                yield Store(binding.ctx_vaddr + Reg.CTX_OPCODE,
                            SpecialOpcode.FETCH_AND_ADD.value)
                yield Store(binding.ctx_vaddr + Reg.CTX_OPERAND0, 1)
                yield Store(driver.shadow_for(binding, base),
                            Reg.shadow_argument(binding.ctx_id, binding.key))
                marks["stores"].append(cluster.now - start)
                yield Load(binding.ctx_vaddr + Reg.CTX_GO)
            marks["total"].append(cluster.now - start)

    cluster.run(join=[cluster.start(proc, program)])
    assert seg.peek(0) == 21

    def mean(xs):
        return sum(xs) / len(xs)

    return {
        "launch_us": us(mean(marks["stores"])),
        "atomic_us": us(mean(marks["total"])),
    }


def run() -> Dict[str, Any]:
    out = {}
    for prototype in (1, 2):
        row = dict(_local_shared_access_us(prototype))
        row.update(_atomic_launch_us(prototype))
        out[f"tg{prototype}"] = row
    return out


def render(result: Dict[str, Any]) -> str:
    table = MarkdownTable([
        "prototype", "local shared read", "local shared write",
        "atomic launch stores", "remote fetch&add total",
    ])
    for key, label in (("tg1", "Telegraphos I (MPM + PAL)"),
                       ("tg2", "Telegraphos II (DRAM + contexts)")):
        r = result[key]
        table.add_row(
            label, f"{r['read_us']:.2f} µs", f"{r['write_us']:.2f} µs",
            f"{r['launch_us']:.2f} µs", f"{r['atomic_us']:.1f} µs",
        )
    read_gain = result["tg1"]["read_us"] / result["tg2"]["read_us"]
    return (
        f"{table.render()}\n\n"
        f"Tg II reads local shared data {read_gain:.1f}× faster (main "
        "memory vs\nMPM-across-the-TC — the paper's \"cacheability and "
        "faster access\"\nclaim); its launch sequences cost one more "
        "store than Tg I's PAL\nlaunch "
        f"({result['tg1']['launch_us']:.2f} → "
        f"{result['tg2']['launch_us']:.2f} µs of argument stores) but\n"
        "end-to-end atomics stay within 10%."
    )


def check(result: Dict[str, Any]) -> List[str]:
    """The trade-offs the paper argues for each prototype."""
    tg1, tg2 = result["tg1"], result["tg2"]
    read_gain = tg1["read_us"] / tg2["read_us"]
    write_gain = tg1["write_us"] / tg2["write_us"]
    atomic_ratio = tg2["atomic_us"] / tg1["atomic_us"]
    return unmet(
        # §2.2.1's "faster access to shared data": both prototypes
        # cross the TurboChannel to the HIB, but Tg II's HIB reads
        # main memory over the memory bus, not the slower MPM...
        (read_gain > 2,
         f"Tg II reads local shared data only {read_gain:.2f}× faster "
         "than Tg I"),
        # ...while its writes, latched by the HIB, gain far less.
        (read_gain > 1.4 * write_gain,
         f"Tg II's read gain {read_gain:.2f}× is not 1.4× its write gain "
         f"{write_gain:.2f}×"),
        # Contexts + shadow store + GO is one store more than the PAL
        # pair...
        (tg2["launch_us"] > tg1["launch_us"],
         f"Tg II's launch ({tg2['launch_us']:.2f} µs) is not dearer than "
         f"Tg I's ({tg1['launch_us']:.2f} µs)"),
        # ...but both atomics are dominated by the network round trip.
        (0.75 < atomic_ratio < 1.25,
         f"the atomics differ by {atomic_ratio:.2f}×, beyond 25%"),
    )


SPEC = ExperimentSpec(
    exp_id="A1",
    title="Ablation: Telegraphos I vs II prototypes (§2.2.1, §2.2.4)",
    bench="benchmarks/bench_ablation_prototypes.py",
    run=run,
    render=render,
    check=check,
    provenance="emergent",
    caveat="Launch sequences use the documented register interfaces of "
           "both prototypes; neither dominates, which is why the paper "
           "built both.",
    version=1,
    cost=0.1,
)
