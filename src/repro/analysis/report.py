"""Cluster-wide statistics reports.

§2.2.6 positions the page access counters as input for "profiling,
performance monitoring and visualization tools"; this module is that
tooling layer: one call renders what every HIB, coherence engine,
switch, and link did during a run — the observability a downstream
user needs to understand an experiment.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.tables import MarkdownTable, Table


class ClusterReport:
    """Snapshot + renderer of a cluster's counters."""

    def __init__(self, cluster):
        self.cluster = cluster

    # -- sections -------------------------------------------------------

    def node_table(self) -> Table:
        table = Table(
            ["node", "remote writes", "remote reads", "atomics", "copies",
             "multicasts", "pkts served", "outstanding"],
            title="HIB activity",
        )
        for station in self.cluster.nodes:
            stats = station.hib.stats
            table.add_row(
                station.node_id,
                stats["remote_writes"],
                stats["remote_reads"],
                stats["atomics"],
                stats["copies"],
                stats["multicast_updates"],
                stats["packets_served"],
                station.hib.outstanding.count,
            )
        return table

    def engine_table(self) -> Table:
        table = Table(
            ["node", "protocol", "local stores", "updates sent",
             "received", "ignored", "cache peak", "stalls"],
            title="Coherence engines",
        )
        for node_id, engine in sorted(self.cluster.engines.items()):
            cache = getattr(engine, "counters", None)
            table.add_row(
                node_id,
                engine.protocol_name,
                engine.stats["local_stores"],
                engine.stats["updates_sent"],
                engine.stats["updates_received"],
                engine.stats["updates_ignored"],
                cache.max_used if cache else "-",
                cache.stalls if cache else "-",
            )
        return table

    def hot_pages_table(self, top: int = 5) -> Table:
        table = Table(
            ["node", "remote page (home, #)", "accesses"],
            title=f"Hottest remote pages (top {top} per node)",
        )
        for station in self.cluster.nodes:
            for key, count in station.hib.page_counters.hottest_pages(top):
                table.add_row(station.node_id, key, count)
        return table

    def link_table(self, top: int = 8) -> Table:
        table = Table(
            ["link", "packets", "bytes", "busy (us)", "util %"],
            title=f"Busiest links (top {top})",
        )
        now = self.cluster.now
        stats = self.cluster.fabric.link_stats()
        ranked = sorted(stats.items(), key=lambda kv: -kv[1]["busy_ns"])
        for name, s in ranked[:top]:
            if s["packets"] == 0:
                continue
            table.add_row(name, s["packets"], s["bytes"],
                          s["busy_ns"] / 1000.0,
                          round(100.0 * s["busy_ns"] / now, 2) if now
                          else 0.0)
        return table

    def switch_table(self) -> Table:
        """Tree fabrics report shared-buffer pressure; torus fabrics
        (``routing="dor"``/``"adaptive"``) report routing-decision
        counters and the queue depths the adaptive router saw."""
        fabric = self.cluster.fabric
        if any(plane for plane in fabric.torus_switches.values()):
            table = Table(
                ["switch", "plane", "packets routed", "adaptive",
                 "escape", "datelines", "queue depth (mean/p99)"],
                title="Switches",
            )
            for vc, plane in sorted(fabric.torus_switches.items()):
                for switch_id, switch in sorted(
                        plane.items(), key=lambda kv: repr(kv[0])):
                    depths = switch.queue_depth
                    depth_cell = (
                        f"{depths.summary()['mean']:.2f}/"
                        f"{depths.summary()['p99']:.0f}"
                        if depths.count else "-"
                    )
                    table.add_row(str(switch_id), vc,
                                  switch.packets_routed,
                                  switch.adaptive_hops,
                                  switch.escape_hops,
                                  switch.datelines_crossed,
                                  depth_cell)
            return table
        table = Table(
            ["switch", "plane", "packets routed", "peak buffer"],
            title="Switches",
        )
        for vc, plane in sorted(fabric.switches.items()):
            for switch_id, switch in sorted(plane.items(), key=lambda kv: repr(kv[0])):
                table.add_row(str(switch_id), vc, switch.packets_routed,
                              switch.peak_buffer_use)
        return table

    def metrics_table(self, include_zero: bool = False) -> Table:
        """Flat view of the cluster's metrics-registry snapshot.

        Scalar instruments render as-is; gauges as ``value (peak p)``;
        histograms as ``count/mean/p99``.  All-zero scalars are elided
        unless ``include_zero`` — with a couple of hundred instruments
        per cluster, the silent ones are noise.
        """
        table = Table(["metric", "tags", "value"],
                      title="Metrics registry")
        for name, series in self.cluster.metrics.snapshot().items():
            for tags, value in series.items():
                if isinstance(value, dict):
                    if "peak" in value:
                        cell = f"{value['value']} (peak {value['peak']})"
                    elif not value.get("count"):
                        continue
                    else:
                        cell = (f"n={value['count']} "
                                f"mean={value['mean']:.0f} "
                                f"p99={value['p99']:.0f}")
                elif value or include_zero:
                    cell = value
                else:
                    continue
                table.add_row(name, tags, cell)
        return table

    # -- whole report -----------------------------------------------------

    def sections(self) -> List[Table]:
        sections = [
            self.node_table(),
            self.engine_table(),
            self.hot_pages_table(),
            self.link_table(),
            self.switch_table(),
        ]
        if getattr(self.cluster, "metrics", None) is not None \
                and self.cluster.metrics.enabled:
            sections.append(self.metrics_table())
        return sections

    def render(self) -> str:
        header = (
            f"Cluster report @ t={self.cluster.now / 1000.0:.1f} us  "
            f"({len(self.cluster)} nodes, protocol "
            f"{self.cluster.protocol!r})"
        )
        body = "\n\n".join(section.render() for section in self.sections())
        return f"{header}\n\n{body}"


# ---------------------------------------------------------------------------
# EXPERIMENTS.md generation.
#
# The document is a pure function of the committed ``results/*.json``
# (the numbers) and the experiment registry (section order, renderers,
# provenance vocabulary).  ``repro sweep`` calls this after every run;
# the CI docs-drift job calls it with ``--render-only`` and fails on
# ``git diff``, so the published tables can never silently diverge
# from the machine-readable results.
# ---------------------------------------------------------------------------


class ResultsError(RuntimeError):
    """A results document is missing or stale relative to its spec."""


_EXPERIMENTS_HEADER = """\
# EXPERIMENTS — paper vs. measured

<!-- GENERATED FILE — do not edit by hand.
     Regenerated by `python -m repro sweep` from the machine-readable
     results under `results/` (docs-drift is CI-gated). -->

Every table, figure, and quantified in-text claim of the paper's
evaluation, reproduced from one machine-readable `results/<id>.json`
per experiment (emitted by `repro sweep`, specs in
`src/repro/exp/experiments/`).  Absolute times come from a calibrated
behavioural simulator (see "Calibration" in DESIGN.md); **shape
claims** (who wins, by what factor, where crossovers fall) are each
spec's `check`, which the sweep applies to every fresh result and the
test suite to every committed one, so a green sweep *is* the
reproduction.  (The grid families' source lines keep the historical
harness label that each aggregate carries.)

All numbers are deterministic: every experiment is a pure function of
its spec, so `repro sweep --workers N` regenerates byte-identical
results and this byte-identical document for any N.
"""

#: How each provenance class reads under a section (and in the summary
#: table at the bottom).  Keys match ``repro.exp.spec.PROVENANCES``.
PROVENANCE_NOTES = {
    "fit": "fit-by-construction — this number was used to calibrate "
           "the simulator, so the match is asserted, not discovered",
    "emergent": "emergent — no calibration targets these numbers; "
                "they fall out of the fitted model",
    "model": "parametric model — recomputed from the paper's own cost "
             "inventory, not timed",
}

#: Caveats that belong to the testbed as a whole rather than any one
#: table (the per-table ones live on the specs and render inline).
GLOBAL_CAVEATS = [
    "The testbed is a calibrated simulator: three §3.2 numbers (T2's "
    "two latencies and C1's sustained write rate) were used to fit "
    "three internal latencies (TC synchronizer, HIB decode depth, "
    "blocked-read completion); everything else is emergent.",
    "The network model adds two behaviours the paper only references "
    "via its switch papers [16, 17]: a shared-buffer switch (no "
    "head-of-line blocking) and request/response virtual networks.  "
    "Both are needed for S4's path-speed asymmetry to be physically "
    "possible.",
]


def load_result_document(results_dir: str, spec) -> Dict[str, Any]:
    """Load and validate ``results/<id>.json`` for one spec.

    Raises :class:`ResultsError` when the file is missing or was
    computed under a different cache key (stale relative to the spec's
    current params/version) — the docs-drift failure mode.
    """
    from repro.exp.cache import ResultCache

    document = ResultCache(results_dir).load_document(spec.exp_id)
    if document is None:
        raise ResultsError(
            f"{spec.exp_id}: no results document in {results_dir!r}; "
            f"run `python -m repro sweep`"
        )
    if document.get("cache_key") != spec.cache_key():
        raise ResultsError(
            f"{spec.exp_id}: results document is stale (cache key "
            f"{document.get('cache_key')!r} != spec {spec.cache_key()!r}); "
            f"run `python -m repro sweep`"
        )
    return document


def render_experiment_section(spec, document: Dict[str, Any]) -> str:
    """One ``## <id> — <title>`` section: source pointers (the spec
    module, the results document), the rendered result, and the inline
    provenance caveat."""
    module = spec.render.__module__.replace(".", "/")
    lines = [
        f"## {spec.exp_id} — {spec.title}",
        f"`src/{module}.py` → [`results/{spec.exp_id}.json`]"
        f"(results/{spec.exp_id}.json)",
        "",
        spec.render(document["result"]).rstrip(),
        "",
        f"> **Provenance:** {PROVENANCE_NOTES[spec.provenance]}."
        + (f"  {spec.caveat}" if spec.caveat else ""),
    ]
    return "\n".join(lines)


def render_caveats_section(specs: Sequence[Any]) -> str:
    """The closing "Reproduction caveats" section: the per-table
    provenance summary plus the global testbed notes."""
    table = MarkdownTable(["experiment", "provenance"])
    for spec in specs:
        label = PROVENANCE_NOTES[spec.provenance].split(" — ")[0]
        table.add_row(spec.exp_id, label)
    lines = [
        "### Reproduction caveats",
        "",
        "Which numbers are fit-by-construction and which are emergent,",
        "per table (each section carries the same note inline):",
        "",
        table.render(),
        "",
    ]
    lines.extend(f"- {caveat}" for caveat in GLOBAL_CAVEATS)
    return "\n".join(lines)


_GRID_SECTION_INTRO = """\
## Grid families

Each family sweeps one claim along a parameter axis; every point is an
ordinary cached experiment under `results/<family>/`, and
`python -m repro report` folds the family into one plot-ready aggregate
under `results/aggregates/` (regenerated here, CI drift-gated like the
sections above).  Grids are declared in
`src/repro/exp/experiments/grids.py`."""


def render_grid_sections(
    results_dir: str = "results",
    grids: Optional[Sequence[Any]] = None,
) -> List[str]:
    """The "Grid families" parts of EXPERIMENTS.md: the intro plus one
    summary-table subsection per declared family."""
    from repro.analysis.results import family_summaries

    summaries = family_summaries(grids, results_dir)
    return [_GRID_SECTION_INTRO] + [text for _, text in summaries]


def render_experiments_md(
    results_dir: str = "results",
    specs: Optional[Sequence[Any]] = None,
    grids: Optional[Sequence[Any]] = None,
) -> str:
    """The full EXPERIMENTS.md text, from the committed results.

    Flat per-claim sections come from ``specs`` (default: the flat
    registry, grid points excluded — points are data for the family
    summaries, not sections); the grid-family summary tables come from
    ``grids`` (default: every declared family).
    """
    if specs is None:
        from repro.exp.registry import flat_specs

        specs = flat_specs()
    parts = [_EXPERIMENTS_HEADER, "---"]
    parts.extend(
        render_experiment_section(spec, load_result_document(results_dir, spec))
        for spec in specs
    )
    parts.append("---")
    parts.extend(render_grid_sections(results_dir, grids))
    parts.append("---")
    parts.append(render_caveats_section(specs))
    return "\n\n".join(parts) + "\n"
