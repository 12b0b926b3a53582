"""Parameter grids: one declarative spec → a family of cached points.

A :class:`GridSpec` declares a *family* of experiments — one measurement
function swept over the cartesian product of its axes.  :meth:`expand`
turns the family into ordinary :class:`~repro.exp.spec.ExperimentSpec`
points, so everything downstream (blake2b cache keys, LPT sharding, the
worker pool, byte-identity checks) works on grid points without knowing
grids exist.

Point ids are ``family/axis=value,...`` with axes in declaration order
(``"T2/link_prop_ns=200"``), which doubles as the results path:
``results/T2/link_prop_ns=200.json``.  Expansion order is the cartesian
product in declared axis order — a pure function of the grid, so shard
assignment and results files are reproducible run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.exp.spec import ExperimentSpec, validate_exp_id


def format_axis_value(value: Any) -> str:
    """Render one axis value into a point id segment.

    Floats use ``repr`` (shortest round-tripping form on CPython ≥3.1);
    the id is a *label*, the cache key hashes the actual value through
    ``canonical_key_material``, so label collisions are impossible as
    long as the rendered forms differ — which :meth:`GridSpec.expand`
    verifies wholesale by checking point-id uniqueness.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


@dataclass(frozen=True)
class GridSpec:
    """One declared experiment family: a measurement × a parameter grid.

    The non-axis fields mirror :class:`~repro.exp.spec.ExperimentSpec`
    — every expanded point inherits them (same historical bench label,
    same provenance vocabulary, same version stamp participating in
    every point's cache key).  Points carry neither ``check`` nor
    ``render``: a family's claim, where it has one, is its flat spec's,
    and EXPERIMENTS.md shows a family through its aggregate
    (:mod:`repro.analysis.results`), not point by point.
    """

    #: Family id — the results subdirectory and the ``--only T2/*``
    #: selection prefix.
    family: str
    #: One-line family description for ``sweep --list`` and the grid
    #: summaries in EXPERIMENTS.md.
    title: str
    #: Historical label, as :attr:`ExperimentSpec.bench`; every point
    #: document and the family aggregate carry it as ``"bench"``.
    bench: str
    #: Called per point as ``run(**base, **axis_assignment)``.
    run: Callable[..., Dict[str, Any]]
    #: Swept axes, in declaration order: ``axis name -> values``.
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: Parameters shared by every point.
    base: Mapping[str, Any] = field(default_factory=dict)
    provenance: str = "emergent"
    caveat: str = ""
    #: Optional prose paragraph rendered above the family's summary
    #: table in EXPERIMENTS.md — what the sweep *shows*, not just what
    #: it varies.  Not part of the aggregate JSON (aggregates carry
    #: data; the narrative lives with the grid declaration).
    preamble: str = ""
    #: Bumping invalidates every point of the family at once.
    version: int = 1
    #: Per-point LPT cost hint.
    cost: float = 1.0
    #: Metrics (dotted paths into the flattened point result) shown in
    #: the EXPERIMENTS.md grid-summary table; the plot-ready aggregate
    #: always carries *every* numeric series regardless.
    summary_metrics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        validate_exp_id(self.family)
        if "/" in self.family:
            raise ValueError(
                f"grid family {self.family!r} may not contain '/'"
            )
        if not self.axes:
            raise ValueError(f"grid {self.family!r} declares no axes")
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(
                    f"grid {self.family!r} axis {axis!r} has no values"
                )
            if axis in self.base:
                raise ValueError(
                    f"grid {self.family!r} axis {axis!r} shadows a base "
                    "parameter"
                )

    @property
    def n_points(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def point_id(self, assignment: Mapping[str, Any]) -> str:
        suffix = ",".join(
            f"{axis}={format_axis_value(assignment[axis])}"
            for axis in self.axes
        )
        return f"{self.family}/{suffix}"

    def assignments(self) -> List[Dict[str, Any]]:
        """Every axis assignment, in deterministic cartesian-product
        order (last declared axis varies fastest)."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(
                *(self.axes[name] for name in names)
            )
        ]

    def expand(self) -> List[ExperimentSpec]:
        """The family as plain experiment specs, one per grid point."""
        points: List[ExperimentSpec] = []
        for assignment in self.assignments():
            label = ", ".join(
                f"{axis}={format_axis_value(value)}"
                for axis, value in assignment.items()
            )
            points.append(ExperimentSpec(
                exp_id=self.point_id(assignment),
                title=f"{self.title} — {label}",
                bench=self.bench,
                run=self.run,
                provenance=self.provenance,
                caveat=self.caveat,
                version=self.version,
                params={**self.base, **assignment},
                cost=self.cost,
            ))
        ids = [point.exp_id for point in points]
        if len(set(ids)) != len(ids):
            raise ValueError(
                f"grid {self.family!r} expands to colliding point ids: "
                f"{sorted(i for i in ids if ids.count(i) > 1)}"
            )
        return points


def expand_grids(grids: Sequence[GridSpec]) -> List[ExperimentSpec]:
    """Expand every family, preserving family order, and reject
    cross-family id collisions."""
    families = [grid.family for grid in grids]
    if len(set(families)) != len(families):
        raise ValueError(f"duplicate grid families: {families}")
    points: List[ExperimentSpec] = []
    for grid in grids:
        points.extend(grid.expand())
    return points


def family_points(
    specs: Sequence[ExperimentSpec], family: str
) -> List[ExperimentSpec]:
    """The grid points of one family, in expansion order."""
    return [
        spec for spec in specs
        if spec.is_grid_point and spec.family == family
    ]


def axis_assignment(spec: ExperimentSpec,
                    grid: GridSpec) -> Dict[str, Any]:
    """Recover a point's axis values from its params (the inverse of
    :meth:`GridSpec.expand`'s ``{**base, **assignment}``)."""
    return {axis: spec.params[axis] for axis in grid.axes}
