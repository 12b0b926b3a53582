"""Declarative experiment specifications.

One :class:`ExperimentSpec` per paper table / figure / quantified
claim.  A spec is *data about a pure function*: the measurement
callable, the parameters it is called with, a version stamp that must
be bumped whenever the measurement code changes meaning, the renderer
that turns the machine-readable result into its EXPERIMENTS.md
section, and the check that states the paper's claim about that
result.  Grid points (:mod:`repro.exp.grid`) carry neither renderer
nor check.

The spec's :meth:`~ExperimentSpec.cache_key` is a stable BLAKE2b hash
of ``(experiment id, params, spec version, schema version)`` — the
"(config, code-relevant params version)" key the on-disk result cache
is addressed by.  It deliberately does **not** hash wall-clock, host,
or process identity: the same spec always produces the same key, so a
result computed by any worker on any machine is interchangeable.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Version of the results-document envelope written to ``results/*.json``.
#: Bump when the envelope layout (not an individual experiment) changes;
#: it participates in every cache key, so bumping it invalidates all
#: cached results at once.
SCHEMA_VERSION = 1

#: Provenance vocabulary for the "Reproduction caveats" machinery:
#: ``fit`` — the number was used to calibrate the simulator, so the
#: match is by construction; ``emergent`` — the number falls out of the
#: calibrated model; ``model`` — a parametric (non-timing) model such as
#: the gate-count inventory.
PROVENANCES = ("fit", "emergent", "model")


#: Experiment ids are file paths under ``results/`` (grid points use a
#: ``family/axis=value`` segment), so the alphabet is pinned to what is
#: safe in a path segment on every platform we care about.
_EXP_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._=,+-]*(/[A-Za-z0-9._=,+-]+)*$")


def validate_exp_id(exp_id: str) -> str:
    """Check that ``exp_id`` is usable as a relative results path.

    ``/`` separates a grid family from its point suffix and maps to a
    results subdirectory; anything that could escape the results tree
    (absolute paths, ``..`` segments, empty segments) is rejected here,
    once, instead of at every path join.
    """
    if not _EXP_ID_RE.match(exp_id):
        raise ValueError(
            f"experiment id {exp_id!r} is not path-safe; expected "
            "[A-Za-z0-9._=,+-] segments separated by '/'"
        )
    if any(segment == ".." for segment in exp_id.split("/")):
        raise ValueError(f"experiment id {exp_id!r} contains '..'")
    return exp_id


def canonical_key_material(value: Any) -> Any:
    """Normalise a params tree for cache-key hashing.

    ``json.dumps`` alone is not a stable identity for params:

    - floats round-trip through ``repr``, which is stable on one
      CPython but a documented non-guarantee across implementations —
      and ``0.1`` vs ``0.1000000000000000055511151231257827`` *must*
      hash identically (same double) while ``1`` vs ``1.0`` must not
      alias the int.  Floats are therefore replaced by a tagged IEEE-754
      hex form (``float.hex`` is exact and implementation-independent).
    - non-string dict keys silently coerce (``{1: x}`` collides with
      ``{"1": x}``) or make ``sort_keys`` raise on mixed types; they
      are rejected outright.
    - tuples and lists serialise identically, so tuples are normalised
      to lists (a spec author writing ``nodes=(2, 4)`` vs ``[2, 4]``
      means the same experiment).

    NaN and infinities have no canonical JSON form and are rejected.
    The transform is identity for the int/str/bool/None trees every
    pre-grid spec uses, so historical cache keys are unchanged.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                f"non-finite float {value!r} cannot enter a cache key"
            )
        return {"__float__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [canonical_key_material(item) for item in value]
    if isinstance(value, Mapping):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise ValueError(
                    f"cache-key dict keys must be str, got {key!r} "
                    f"({type(key).__name__}); non-string keys alias "
                    "their str() form under JSON"
                )
            out[key] = canonical_key_material(value[key])
        return out
    raise ValueError(
        f"value {value!r} ({type(value).__name__}) is not JSON-safe "
        "cache-key material"
    )


def canonical_json_bytes(document: Mapping[str, Any]) -> bytes:
    """The one serialization used for cache keys and results files.

    ``sort_keys`` pins dict ordering, ``indent=2`` keeps the committed
    files diffable, and the trailing newline keeps POSIX tools quiet.
    Byte-identical output for equal documents is the determinism
    contract (serial vs ``--workers N``) — nothing time- or
    host-dependent may enter a document.
    """
    return (
        json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False)
        + "\n"
    ).encode("utf-8")


def unmet(*claims: Tuple[bool, str]) -> List[str]:
    """The messages of the ``(holds, message)`` pairs that do not hold.

    The body of a spec's ``check``: one pair per asserted claim, so a
    failed check names every broken claim at once.  (Plain ``assert``
    would stop at the first, and ``python -O`` strips it.)
    """
    return [message for holds, message in claims if not holds]


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper claim as a pure, cacheable, renderable computation."""

    #: Short stable identifier; names the section and the results file
    #: (``results/<exp_id>.json``).
    exp_id: str
    #: Section heading in EXPERIMENTS.md.
    title: str
    #: Historical label: the harness file that asserted this claim
    #: before ``check`` did.  Every results envelope carries it as
    #: ``"bench"``, so it stays until the next :data:`SCHEMA_VERSION`
    #: bump rather than move every committed document.
    bench: str
    #: The measurement: called as ``run(**params)``, must return a
    #: JSON-serializable dict and be a pure function of its arguments.
    run: Callable[..., Dict[str, Any]]
    #: Renders the result dict into the markdown section body.
    #: ``None`` only for grid points, which EXPERIMENTS.md shows
    #: through their family's aggregate.
    render: Optional[Callable[[Dict[str, Any]], str]] = None
    #: The paper's claim about the result: one message per way the
    #: result breaks it, ``[]`` when it holds.  The sweep rejects a
    #: fresh result that fails it, and the test suite runs it on every
    #: committed document.  ``None`` only for grid points, which carry
    #: no claim of their own.  Not part of the cache key.
    check: Optional[Callable[[Dict[str, Any]], List[str]]] = None
    #: ``fit`` | ``emergent`` | ``model`` (see :data:`PROVENANCES`).
    provenance: str = "emergent"
    #: One-line per-table reproduction caveat emitted under the section.
    caveat: str = ""
    #: Bump whenever the measurement code or its calibration changes —
    #: this is what invalidates the on-disk cache.
    version: int = 1
    #: Parameters passed to ``run`` (part of the cache key).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Static wall-clock weight (seconds-ish) used only for
    #: deterministic longest-processing-time shard assignment.
    cost: float = 1.0

    def __post_init__(self) -> None:
        validate_exp_id(self.exp_id)
        if self.render is None and not self.is_grid_point:
            raise ValueError(
                f"{self.exp_id}: a flat spec needs a render function for "
                "its EXPERIMENTS.md section"
            )
        if self.provenance not in PROVENANCES:
            raise ValueError(
                f"{self.exp_id}: provenance {self.provenance!r} not in "
                f"{PROVENANCES}"
            )

    @property
    def family(self) -> str:
        """Grid family prefix for point specs (``"T2"`` for
        ``"T2/link_prop_ns=200"``); the full id for flat specs."""
        return self.exp_id.split("/", 1)[0]

    @property
    def is_grid_point(self) -> bool:
        return "/" in self.exp_id

    def cache_key(self) -> str:
        material = {
            "experiment": self.exp_id,
            "params": canonical_key_material(self.params),
            "schema": SCHEMA_VERSION,
            "spec_version": self.version,
        }
        return hashlib.blake2b(
            canonical_json_bytes(material), digest_size=16
        ).hexdigest()

    def execute(self) -> Dict[str, Any]:
        """Run the measurement and wrap it in the results envelope."""
        return self.document(self.run(**self.params))

    def document(self, result: Dict[str, Any]) -> Dict[str, Any]:
        """The envelope written to ``results/<exp_id>.json``."""
        return {
            "bench": self.bench,
            "cache_key": self.cache_key(),
            "experiment": self.exp_id,
            "params": self.params,
            "provenance": self.provenance,
            "result": result,
            "schema": SCHEMA_VERSION,
            "spec_version": self.version,
            "title": self.title,
        }
