"""Command-line entry points:
``python -m repro [check|stats|trace|sweep|report]``.

- ``check`` (default) — one-second installation self-check: builds a
  small cluster, exercises every §2.2 primitive, measures the §3.2
  headline latencies and Table 1 with their experiment specs, and
  judges them with the specs' checks.
- ``stats`` — runs a demo workload on an N-node cluster and prints
  the full observability report: per-node HIB/CPU/bus tables, the
  metrics-registry snapshot, and the event-loop profile.
- ``trace`` — the same demo with activity lanes on, exported as
  Chrome trace-event JSON (open in ``chrome://tracing`` or Perfetto).
- ``sweep`` — the full reproduction (:mod:`repro.exp`): every
  registered experiment across a worker pool, one machine-readable
  ``results/<id>.json`` each, EXPERIMENTS.md regenerated from them.
- ``report`` — the evaluation pipeline (:mod:`repro.analysis.results`):
  folds every grid family's cached points into one plot-ready
  ``results/aggregates/<family>.json`` and prints the summary tables;
  ``--check`` is the CI drift gate over the committed aggregates.

``--profile`` wraps any command in :mod:`cProfile` and prints the top
twenty entries by cumulative time.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import comparison_table
from repro.api import Cluster, ClusterConfig
from repro.api.config import COLLECTIVES
from repro.network.fabric import ROUTING_MODES

#: Operations per §3.2 stream in the self-check: T2's methodology at a
#: tenth of its 10000 operations, which keeps the check near a second.
SELF_CHECK_OPS = 1000


def self_check() -> int:
    print("Telegraphos reproduction — self-check")
    print("=" * 60)

    # 1. Functional pass over every primitive.
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="check")
    proc = cluster.create_process(node=0, name="check")
    base = proc.map(seg)
    observed = {}

    def program(p):
        yield p.store(base, 7)
        yield p.fence()
        observed["read"] = yield p.load(base)
        observed["fadd"] = yield from p.fetch_and_add(base + 4, 3)
        observed["cas"] = yield from p.compare_and_swap(base + 4, 3, 9)
        yield from p.remote_copy(base, base + 8)
        yield p.fence()

    cluster.run(join=[cluster.start(proc, program)])
    functional = (
        observed == {"read": 7, "fadd": 0, "cas": 3}
        and seg.peek(4) == 9
        and seg.peek(8) == 7
    )
    print(f"primitives (write/read/fence/atomics/copy): "
          f"{'OK' if functional else 'FAILED'}")

    # 2. The §3.2 headline latencies and Table 1, measured and judged
    # by their experiment specs.
    from repro.exp.experiments import t1_gatecount, t2_latency

    latency = t2_latency.run(ops=SELF_CHECK_OPS)
    print()
    print(comparison_table(
        "S3.2 latencies",
        [("Remote Read (us)", t2_latency.PAPER_READ_US, latency["read_us"]),
         ("Remote Write (us)", t2_latency.PAPER_WRITE_US,
          latency["write_us"])],
    ).render())
    gates = t1_gatecount.run()
    problems = t2_latency.check(latency) + t1_gatecount.check(gates)
    print()
    print(f"Table 1: shared-memory support = "
          f"{gates['shared_memory_gates']} gates "
          f"(paper: {t1_gatecount.PAPER_SHARED_GATES})")
    for problem in problems:
        print(f"  FAILED: {problem}")

    ok = functional and not problems
    print()
    print("self-check:", "PASS" if ok else "FAIL")
    print("next: pytest tests/  |  python -m repro sweep --force")
    return 0 if ok else 1


def build_faults(args) -> "dict | None":
    """Translate the ``--fault-*`` CLI options into a ``faults=`` dict
    (``None`` when every rate is zero: the lossless fabric)."""
    faults = {
        "seed": args.fault_seed,
        "drop_rate": args.drop_rate,
        "corrupt_rate": args.corrupt_rate,
        "duplicate_rate": args.duplicate_rate,
        "stall_rate": args.stall_rate,
    }
    if not any(v for k, v in faults.items() if k != "seed"):
        return None
    return faults


def demo_run(n_nodes: int, protocol: str, topology: str,
             trace_lanes: bool = False,
             profile_kernel: bool = True,
             faults=None, collectives: str = "host",
             routing: str = "tree") -> Cluster:
    """A small all-to-all workload that lights up every subsystem:
    each node streams writes into a shared segment on node 0, reads a
    neighbour's slot, bumps a shared total with a remote atomic, and
    finishes at a cluster-wide collective barrier (``--collectives``
    selects the host counter path or the NIC combining tree;
    ``--routing`` the fabric routing mode)."""
    config = ClusterConfig(
        n_nodes=n_nodes, protocol=protocol, topology=topology,
        trace_lanes=trace_lanes, profile_kernel=profile_kernel,
        faults=faults, collectives=collectives, routing=routing,
    )
    with Cluster(config) as cluster:
        seg = cluster.alloc_segment(home=0, pages=1, name="demo")
        group = cluster.collective_group("demo")
        contexts = []
        for node in range(n_nodes):
            proc = cluster.create_process(node=node, name=f"demo{node}")
            base = proc.map(seg)
            collective = group.join(proc)

            def program(p, base=base, node=node, collective=collective):
                for i in range(8):
                    yield p.store(base + 4 * node, node * 1000 + i)
                    yield p.think(500)
                yield p.fence()
                neighbour = (node + 1) % n_nodes
                yield p.load(base + 4 * neighbour)
                yield from p.fetch_and_add(base + 4 * n_nodes, 1)
                yield from collective.barrier()

            contexts.append(cluster.start(proc, program))
        cluster.run(join=contexts)
        return cluster


def cmd_stats(args) -> int:
    cluster = demo_run(args.nodes, args.protocol, args.topology,
                       faults=build_faults(args),
                       collectives=args.collectives,
                       routing=args.routing)
    print(cluster.report().render())
    stats = cluster.stats()
    print()
    print(f"quiescent: {stats['quiescent']}   "
          f"instruments registered: {len(cluster.metrics)}")
    if "faults" in stats:
        injected = stats["faults"]["injected"]
        failures = stats["faults"]["node_failures"]
        print()
        print("faults injected:",
              ", ".join(f"{k}={v}" for k, v in sorted(injected.items())))
        print(f"node failures: {len(failures)}")
    if cluster.profiler is not None:
        print()
        print(cluster.profiler.render())
    return 0


def cmd_trace(args) -> int:
    from repro.obs import export_chrome_trace

    cluster = demo_run(args.nodes, args.protocol, args.topology,
                       trace_lanes=True, profile_kernel=False,
                       faults=build_faults(args),
                       collectives=args.collectives,
                       routing=args.routing)
    doc = export_chrome_trace(cluster, path=args.out)
    lanes = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
             if e.get("ph") == "X"}
    print(f"wrote {args.out}: {len(doc['traceEvents'])} events, "
          f"{len(lanes)} activity lanes, "
          f"t final {cluster.now / 1000.0:.1f} us")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def cmd_sweep(args) -> int:
    from repro.analysis.report import render_experiments_md
    from repro.exp import ResultCache, default_registry, run_sweep, select

    if args.workers < 1:
        print(f"sweep: --workers must be at least 1, got {args.workers}",
              file=sys.stderr)
        return 2

    specs = default_registry()
    if args.only:
        wanted = [part for chunk in args.only for part in chunk.split(",")]
        try:
            specs = select(specs, wanted)
        except KeyError as exc:
            print(f"sweep: {exc.args[0]}", file=sys.stderr)
            return 2
        if not specs:
            # --only was given but matched nothing (e.g. empty or
            # whitespace-only ids); sweeping nothing silently would
            # read as success.
            known = sorted(s.exp_id for s in default_registry())
            print(f"sweep: --only selected no experiments; known ids: "
                  f"{known}", file=sys.stderr)
            return 2

    cache = ResultCache(args.results_dir)

    if args.list:
        from repro.analysis.tables import MarkdownTable
        from repro.exp import default_grids

        flat = [spec for spec in specs if not spec.is_grid_point]
        if flat:
            table = MarkdownTable(
                ["id", "title", "provenance", "cost", "cached"])
            for spec in flat:
                table.add_row(spec.exp_id, spec.title, spec.provenance,
                              spec.cost,
                              "yes" if cache.lookup(spec) else "no")
            print(table.render())
        selected = {spec.exp_id for spec in specs}
        families = []
        for grid in default_grids():
            points = [p for p in grid.expand() if p.exp_id in selected]
            if points:
                families.append((grid, points))
        if families:
            if flat:
                print()
            table = MarkdownTable(
                ["family", "title", "axes", "points", "cached"])
            for grid, points in families:
                axes = ", ".join(
                    f"{axis}[{len(values)}]"
                    for axis, values in grid.axes.items())
                cached = sum(1 for p in points if cache.lookup(p))
                table.add_row(f"{grid.family}/*", grid.title, axes,
                              len(points), f"{cached}/{len(points)}")
            print(table.render())
        return 0

    if not args.render_only:
        outcome = run_sweep(
            specs, workers=args.workers, cache=cache, force=args.force,
            progress=print,
        )
        print(f"sweep: {len(outcome.ran)} ran, {len(outcome.cached)} cached, "
              f"{len(outcome.failures)} failed "
              f"({args.workers} worker{'s' if args.workers != 1 else ''})")
        families = outcome.family_counts()
        if families:
            print("per family:")
            for family, tally in families.items():
                counts = ", ".join(f"{count} {bucket}"
                                   for bucket, count in tally.items() if count)
                print(f"  {family}: {counts}")
        for failure in outcome.failures:
            print(f"  FAILED {failure.experiment} "
                  f"(shard {failure.shard}, {failure.attempts} attempts)",
                  file=sys.stderr)
            print("    " + failure.error.strip().replace("\n", "\n    "),
                  file=sys.stderr)
        if not outcome.ok:
            return 1

    # Regenerating the document needs every experiment's results on
    # disk, not just the selected subset — the committed cache provides
    # the rest, or we report which ids are missing.
    try:
        document = render_experiments_md(results_dir=args.results_dir)
    except Exception as exc:
        print(f"sweep: cannot render {args.out}: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {args.out} from {args.results_dir}/")
    return 0


def cmd_report(args) -> int:
    """Fold the committed grid-point results into plot-ready
    aggregates (``results/aggregates/<family>.json``) and print the
    family summary tables; ``--check`` verifies the committed
    aggregates instead of rewriting them (the CI drift gate)."""
    from repro.analysis.results import (
        AggregateError,
        aggregate_family,
        check_aggregate,
        render_grid_summary,
        write_aggregate,
    )
    from repro.exp import default_grids

    grids = default_grids()
    if args.only:
        wanted = {part.strip().upper().rstrip("/*")
                  for chunk in args.only for part in chunk.split(",")
                  if part.strip()}
        known = {grid.family.upper() for grid in grids}
        unknown = sorted(wanted - known)
        if unknown:
            print(f"report: unknown grid families {unknown}; known: "
                  f"{sorted(grid.family for grid in grids)}",
                  file=sys.stderr)
            return 2
        grids = [g for g in grids if g.family.upper() in wanted]

    stale = []
    for grid in grids:
        try:
            aggregate = aggregate_family(grid, args.results_dir)
        except AggregateError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 1
        if args.check:
            problem = check_aggregate(aggregate, args.results_dir)
            if problem:
                stale.append(problem)
                continue
        else:
            write_aggregate(aggregate, args.results_dir)
        print(render_grid_summary(aggregate, grid.caveat, grid.preamble))
        print()
    if args.check:
        for problem in stale:
            print(f"report: {problem}", file=sys.stderr)
        if stale:
            return 1
        print(f"report: {len(grids)} aggregates up to date "
              f"({args.results_dir}/aggregates/)")
    else:
        print(f"report: wrote {len(grids)} aggregates to "
              f"{args.results_dir}/aggregates/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Telegraphos reproduction command line",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print the top 20 "
             "entries by cumulative time",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("check", help="installation self-check (default)")

    def add_cluster_args(p):
        p.add_argument("--nodes", type=int, default=4,
                       help="cluster size (default: 4)")
        p.add_argument("--protocol", default="telegraphos",
                       help="coherence protocol (default: telegraphos)")
        p.add_argument("--topology", default="star",
                       help="fabric topology: star, chain, ring, mesh, "
                            "torus, torus3d (default: star)")
        p.add_argument("--routing", choices=ROUTING_MODES,
                       default="tree",
                       help="fabric routing mode: up*/down* spanning "
                            "tree (tree, any topology), dimension-order "
                            "(dor) or minimal-adaptive (adaptive); dor/"
                            "adaptive require --topology torus|torus3d "
                            "(default: tree)")
        p.add_argument("--collectives", choices=COLLECTIVES,
                       default="host",
                       help="collective-operation backend: software "
                            "counter barrier (host) or NIC-resident "
                            "combining tree (nic) (default: host)")
        p.add_argument("--fault-seed", type=int, default=0,
                       help="fault-injection seed (default: 0)")
        p.add_argument("--drop-rate", type=float, default=0.0,
                       help="per-traversal packet drop probability")
        p.add_argument("--corrupt-rate", type=float, default=0.0,
                       help="per-traversal packet corruption probability")
        p.add_argument("--duplicate-rate", type=float, default=0.0,
                       help="per-traversal packet duplication probability")
        p.add_argument("--stall-rate", type=float, default=0.0,
                       help="per-traversal packet stall probability")

    p_stats = sub.add_parser(
        "stats", help="demo run + per-node/per-link metrics report"
    )
    add_cluster_args(p_stats)
    p_trace = sub.add_parser(
        "trace", help="demo run exported as Chrome trace-event JSON"
    )
    add_cluster_args(p_trace)
    p_trace.add_argument("--out", default="trace.json",
                         help="output path (default: trace.json)")

    p_sweep = sub.add_parser(
        "sweep",
        help="run every registered experiment and regenerate "
             "EXPERIMENTS.md from results/*.json",
    )
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes (default: 1)")
    p_sweep.add_argument("--only", action="append", default=[],
                         metavar="IDS",
                         help="run only these experiment ids "
                              "(comma-separated, repeatable)")
    p_sweep.add_argument("--force", action="store_true",
                         help="recompute even when the cached result "
                              "matches the spec version")
    p_sweep.add_argument("--results-dir", default="results",
                         help="results cache directory (default: results)")
    p_sweep.add_argument("--out", default="EXPERIMENTS.md",
                         help="rendered document path "
                              "(default: EXPERIMENTS.md)")
    p_sweep.add_argument("--render-only", action="store_true",
                         help="skip the sweep; just regenerate the "
                              "document from the on-disk results")
    p_sweep.add_argument("--list", action="store_true",
                         help="list registered experiments and their "
                              "cache status, then exit")

    p_report = sub.add_parser(
        "report",
        help="aggregate the grid-point results into plot-ready "
             "results/aggregates/<family>.json and print the family "
             "summary tables",
    )
    p_report.add_argument("--results-dir", default="results",
                          help="results cache directory "
                               "(default: results)")
    p_report.add_argument("--only", action="append", default=[],
                          metavar="FAMILIES",
                          help="aggregate only these grid families "
                               "(comma-separated, repeatable; 'T2' and "
                               "'T2/*' both mean the T2 family)")
    p_report.add_argument("--check", action="store_true",
                          help="verify the committed aggregates are "
                               "byte-identical to the recomputed ones "
                               "instead of rewriting them (exit 1 on "
                               "drift)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    def dispatch() -> int:
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "report":
            return cmd_report(args)
        return self_check()

    if not args.profile:
        return dispatch()

    import cProfile
    import pstats

    profiler = cProfile.Profile()
    code = profiler.runcall(dispatch)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative")
    print()
    stats.print_stats(20)
    return code


if __name__ == "__main__":
    sys.exit(main())
