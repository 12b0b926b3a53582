"""Parallel experiment orchestration (``repro sweep``).

The paper's evaluation is a matrix of tables, figures, and in-text
claims; this package turns its reproduction into a pipeline rather
than a pile of scripts:

- :mod:`repro.exp.spec` — one declarative :class:`ExperimentSpec` per
  claim: a pure measurement function plus params, a version stamp, a
  provenance tag, the markdown renderer for its section, and the
  ``check`` that states the paper's claim about the result.
- :mod:`repro.exp.experiments` — the specs themselves, one module per
  claim.
- :mod:`repro.exp.cache` — the on-disk result cache: the committed
  ``results/*.json``, addressed by a stable hash of
  ``(experiment, params, spec version, schema version)``.
- :mod:`repro.exp.runner` — the ``multiprocessing`` orchestrator:
  deterministic LPT shard assignment, retry-on-worker-crash, and
  structured :class:`ExperimentFailure` degradation in the style of
  :class:`repro.faults.NodeFailure`.

``repro sweep --workers N`` runs everything, writes one
machine-readable ``results/<id>.json`` per table/figure, and
regenerates EXPERIMENTS.md from those JSONs
(:func:`repro.analysis.render_experiments_md`) — byte-identical for
any worker count.
"""

from repro.exp.cache import DEFAULT_RESULTS_DIR, ResultCache
from repro.exp.grid import GridSpec, expand_grids
from repro.exp.registry import (
    default_grids,
    default_registry,
    flat_specs,
    select,
    spec_map,
)
from repro.exp.runner import (
    DEFAULT_RETRIES,
    ExperimentFailure,
    SweepOutcome,
    run_sweep,
    shard_assignment,
)
from repro.exp.spec import (
    PROVENANCES,
    SCHEMA_VERSION,
    ExperimentSpec,
    canonical_json_bytes,
)

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "DEFAULT_RETRIES",
    "ExperimentFailure",
    "ExperimentSpec",
    "GridSpec",
    "PROVENANCES",
    "ResultCache",
    "SCHEMA_VERSION",
    "SweepOutcome",
    "canonical_json_bytes",
    "default_grids",
    "default_registry",
    "expand_grids",
    "flat_specs",
    "run_sweep",
    "select",
    "shard_assignment",
    "spec_map",
]
