"""The experiment registry: lookup, selection, and validation over
the declarative specs in :mod:`repro.exp.experiments` and the grid
families in :mod:`repro.exp.experiments.grids`."""

from __future__ import annotations

import fnmatch
from typing import Dict, Iterable, List, Sequence

from repro.exp.grid import GridSpec, expand_grids
from repro.exp.spec import ExperimentSpec


def flat_specs() -> List[ExperimentSpec]:
    """The per-claim specs only, in EXPERIMENTS.md document order
    (no grid points) — what the per-section document renderer walks."""
    from repro.exp.experiments import SPECS

    return list(SPECS)


def default_grids() -> List[GridSpec]:
    """Every declared grid family, in EXPERIMENTS.md summary order."""
    from repro.exp.experiments.grids import GRIDS

    return list(GRIDS)


def default_registry() -> List[ExperimentSpec]:
    """Every runnable spec — flat claims first, then every grid
    family's points in expansion order.

    Grid points are ordinary specs by the time they leave here, so the
    cache, the LPT sharder, and the worker pool treat them exactly like
    the flat claims.
    """
    specs = flat_specs() + expand_grids(default_grids())
    ids = [spec.exp_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate experiment ids in registry: {ids}")
    return specs


def spec_map(specs: Sequence[ExperimentSpec]) -> Dict[str, ExperimentSpec]:
    return {spec.exp_id: spec for spec in specs}


def select(
    specs: Sequence[ExperimentSpec], only: Iterable[str]
) -> List[ExperimentSpec]:
    """Subset ``specs`` to the requested ids or glob patterns
    (case-insensitive), keeping registry order.

    A plain id selects one spec; a pattern with ``fnmatch`` wildcards
    (``T2/*``, ``W?/sharing=*``) selects every matching spec.  An id or
    pattern that selects nothing raises with the known ids — a typo
    should fail loudly, not silently run an empty sweep.
    """
    patterns = [token.strip() for token in only if token.strip()]
    chosen = set()
    unmatched = []
    for pattern in patterns:
        upper = pattern.upper()
        hits = {
            spec.exp_id for spec in specs
            if fnmatch.fnmatchcase(spec.exp_id.upper(), upper)
        }
        if not hits:
            unmatched.append(pattern)
        chosen |= hits
    if unmatched:
        raise KeyError(
            f"unknown experiment ids {sorted(unmatched)}; known: "
            f"{sorted(spec.exp_id for spec in specs)}"
        )
    return [spec for spec in specs if spec.exp_id in chosen]
