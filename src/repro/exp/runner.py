"""The parameter-sweep orchestrator.

Runs a list of :class:`~repro.exp.spec.ExperimentSpec` across a
``multiprocessing`` worker pool:

- **Deterministic shard assignment** — specs are packed onto shards by
  longest-processing-time (LPT) greedy on their static ``cost`` hints,
  with ties broken by experiment id.  The assignment is a pure function
  of ``(specs, workers)``: no work stealing, no timing feedback, so a
  sweep is reproducible down to which worker ran what.
- **Byte-identical results** — workers only *compute*; the parent
  process writes every ``results/*.json`` through the one canonical
  serializer, in registry order.  Since each measurement is a pure
  function of its spec, ``--workers 1`` and ``--workers N`` produce the
  same bytes.
- **Retry, then degrade** — a worker that raises reports the traceback;
  a worker that dies outright (``os._exit``, segfault, OOM-kill) simply
  stops reporting.  Either way the unresolved experiments are retried
  in fresh single-experiment processes, and only after the retry budget
  (:data:`DEFAULT_RETRIES`) is exhausted does the sweep degrade into a
  structured :class:`ExperimentFailure` — the sweep-level analogue of
  :class:`repro.faults.NodeFailure` (same vocabulary: bounded retries,
  then a machine-readable report instead of a hang or a crash).
- **Check before store** — the parent runs each fresh result through
  its spec's ``check`` (the paper's claim) before writing it; a result
  that breaks its claim is a failure, not a document.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import queue as queue_module
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exp.cache import ResultCache
from repro.exp.spec import ExperimentSpec, canonical_json_bytes

#: Extra attempts after the first failed one, mirroring the bounded
#: retransmit budget of the reliable HIB transport.
DEFAULT_RETRIES = 1


@dataclass
class ExperimentFailure:
    """Structured report of one experiment the pool gave up on
    (cf. :class:`repro.faults.NodeFailure`)."""

    #: The experiment that never produced a result.
    experiment: str
    #: Shard the experiment was originally assigned to.
    shard: int
    #: Total attempts made (first run + retries).
    attempts: int
    #: Last traceback, or the worker's death notice (with exit code)
    #: when it never reported back.
    error: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "shard": self.shard,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class SweepOutcome:
    """What a sweep did: one document per completed experiment, plus
    the bookkeeping the CLI reports."""

    #: ``exp_id -> results document`` for every completed experiment.
    documents: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Experiments actually (re)computed this sweep.
    ran: List[str] = field(default_factory=list)
    #: Experiments served from the on-disk cache.
    cached: List[str] = field(default_factory=list)
    #: Experiments that exhausted their retry budget.
    failures: List[ExperimentFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def family_counts(self) -> Dict[str, Dict[str, int]]:
        """``family -> {"ran": n, "cached": n, "failed": n}``, sorted by
        family.  A grid point (``T2/link_prop_ns=200``) counts under its
        family (``T2``), a flat spec as its own family, and every
        experiment once, under its final outcome."""
        counts: Dict[str, Dict[str, int]] = {}
        failed = [failure.experiment for failure in self.failures]
        for bucket, exp_ids in (("ran", self.ran), ("cached", self.cached),
                                ("failed", failed)):
            for exp_id in exp_ids:
                family = exp_id.split("/", 1)[0]
                tally = counts.setdefault(
                    family, {"ran": 0, "cached": 0, "failed": 0})
                tally[bucket] += 1
        return dict(sorted(counts.items()))


def shard_assignment(
    specs: Sequence[ExperimentSpec], workers: int
) -> List[List[ExperimentSpec]]:
    """LPT-pack ``specs`` onto ``workers`` shards, deterministically.

    Heaviest specs are placed first, each onto the currently-lightest
    shard (lowest index on ties), so the heavy experiments spread
    across workers instead of queueing behind each other — that spread
    is what makes a cold parallel sweep approach the
    longest-single-experiment bound.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards: List[List[ExperimentSpec]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for spec in sorted(specs, key=lambda s: (-s.cost, s.exp_id)):
        target = min(range(workers), key=lambda i: (loads[i], i))
        shards[target].append(spec)
        loads[target] += spec.cost
    return shards


def _worker_main(shard: Sequence[ExperimentSpec], out_queue: Any) -> None:
    """Run one shard sequentially, reporting each result as it lands
    (so a later crash does not discard earlier work).

    Each experiment's cluster is freed before the next one builds: a
    simulation is full of reference cycles, and the cyclic collector
    alone may not reach them until the next large build has grown the
    worker's peak memory.  The heap the worker starts with (the
    imported modules, the shard) is frozen first, so those full
    collections walk only what the experiments made; it is unfrozen on
    the way out, so an in-process call leaves the collector as it
    found it."""
    gc.freeze()
    try:
        for spec in shard:
            try:
                result = spec.run(**spec.params)
            except BaseException:
                out_queue.put((spec.exp_id, "error", traceback.format_exc()))
            else:
                out_queue.put((spec.exp_id, "ok", result))
                del result
            gc.collect()
    finally:
        gc.unfreeze()


def _run_sharded(
    shards: Sequence[Sequence[ExperimentSpec]],
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]:
    """Execute the shards in parallel worker processes.

    Returns ``(results, errors)`` keyed by experiment id; an experiment
    in neither map means its worker died before reporting.
    """
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    out_queue = context.Queue()
    populated = [shard for shard in shards if shard]
    workers = [
        context.Process(target=_worker_main, args=(shard, out_queue), daemon=True)
        for shard in populated
    ]
    for worker in workers:
        worker.start()

    expected = sum(len(shard) for shard in shards)
    results: Dict[str, Dict[str, Any]] = {}
    errors: Dict[str, str] = {}
    # Drain while the workers run (joining first could deadlock on a
    # full queue); stop once everyone reported or every worker died.
    while len(results) + len(errors) < expected:
        try:
            exp_id, status, payload = out_queue.get(timeout=0.2)
        except queue_module.Empty:
            if not any(worker.is_alive() for worker in workers):
                break
            continue
        if status == "ok":
            results[exp_id] = payload
            if progress is not None:
                progress(f"[{exp_id}] done")
        else:
            errors[exp_id] = payload
            if progress is not None:
                progress(f"[{exp_id}] FAILED in worker")
    for worker in workers:
        worker.join()
    # A worker that died without reporting leaves its unresolved
    # experiments with no traceback at all; synthesize a death notice
    # carrying what the parent *can* know, the exit code (or signal),
    # so the failure that eventually surfaces is more than "something
    # stopped answering".
    for shard, worker in zip(populated, workers):
        if worker.exitcode == 0:
            continue
        for spec in shard:
            if spec.exp_id in results or spec.exp_id in errors:
                continue
            errors[spec.exp_id] = (
                f"worker process died before reporting a result "
                f"(exitcode {worker.exitcode})"
            )
    return results, errors


def _failed_claims(spec: ExperimentSpec, result: Dict[str, Any]) -> List[str]:
    """``spec.check`` on ``result`` as it will be committed (through
    JSON, as the test suite sees it); a check that raises fails with
    its traceback."""
    if spec.check is None:
        return []
    try:
        return list(spec.check(json.loads(canonical_json_bytes(result))))
    except Exception:
        return [traceback.format_exc()]


def run_sweep(
    specs: Sequence[ExperimentSpec],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """Run every spec (cache permitting) and persist its results
    document; the orchestrator behind ``repro sweep``."""
    cache = cache if cache is not None else ResultCache()
    outcome = SweepOutcome()

    pending: List[ExperimentSpec] = []
    for spec in specs:
        document = None if force else cache.lookup(spec)
        if document is not None:
            outcome.documents[spec.exp_id] = document
            outcome.cached.append(spec.exp_id)
            if progress is not None:
                progress(f"[{spec.exp_id}] cached")
        else:
            pending.append(spec)
    if not pending:
        return outcome

    shards = shard_assignment(pending, workers)
    home_shard = {
        spec.exp_id: index
        for index, shard in enumerate(shards)
        for spec in shard
    }
    attempts = {spec.exp_id: 1 for spec in pending}
    results, errors = _run_sharded(shards, progress=progress)

    unresolved = [spec for spec in pending if spec.exp_id not in results]
    for _ in range(DEFAULT_RETRIES):
        if not unresolved:
            break
        for spec in unresolved:
            attempts[spec.exp_id] += 1
            if progress is not None:
                progress(f"[{spec.exp_id}] retrying "
                         f"(attempt {attempts[spec.exp_id]})")
        # Isolate each survivor in its own process so one crasher
        # cannot take down a retry batch.
        retry_results, retry_errors = _run_sharded(
            [[spec] for spec in unresolved], progress=progress
        )
        results.update(retry_results)
        errors.update(retry_errors)
        unresolved = [
            spec for spec in unresolved if spec.exp_id not in results
        ]

    # A result that breaks its claim is a failure, not a document.
    # The check is deterministic, so it is not retried.
    for spec in pending:
        if spec.exp_id not in results:
            continue
        problems = _failed_claims(spec, results[spec.exp_id])
        if problems:
            del results[spec.exp_id]
            errors[spec.exp_id] = "claim check failed:\n" + "\n".join(
                problems)
            if progress is not None:
                progress(f"[{spec.exp_id}] FAILED its claim check")

    # Persist in registry order from the parent: one writer, one
    # serializer, deterministic bytes.
    for spec in pending:
        if spec.exp_id in results:
            outcome.documents[spec.exp_id] = cache.store(
                spec, results[spec.exp_id]
            )
            outcome.ran.append(spec.exp_id)
        else:
            outcome.failures.append(ExperimentFailure(
                experiment=spec.exp_id,
                shard=home_shard[spec.exp_id],
                attempts=attempts[spec.exp_id],
                error=errors.get(
                    spec.exp_id,
                    "worker process died before reporting a result",
                ),
            ))
    return outcome
