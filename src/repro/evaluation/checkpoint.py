"""The matrix engine of Figures 6–10: one run path, resumable.

A fig6–10 matrix run is a deterministic list of value-keyed units, each a
pure function of its store key.  :func:`run_matrix` is the one path every
``measure_*`` driver takes: ``jobs=1`` runs the units in-process, ``jobs>1``
fans them across the fail-fast pool (:mod:`repro.evaluation.executor`),
and the caller reduces the results in unit order — so a serial and a
parallel run agree by construction.

Whenever a store is attached (``REPRO_STORE_DIR``), no finished unit is
computed twice — not after an interrupted or failed run (a ``kill -9``, a
power loss, a unit that raised), and not by a later run of another matrix
that contains the unit:

* each unit's finished result is persisted in the shared
  :class:`~repro.store.artifact_store.ArtifactStore` under kind
  :data:`~repro.store.artifact_store.KIND_SHARD`, keyed by the unit's
  value-based identity (variant keys × labels × tool configs), the moment
  it lands;
* on start, :func:`run_checkpointed` revives every unit whose result
  object exists under its key (``normalize`` rewrites its counters so
  revived units report as store reads, not fresh work) and hands only the
  remainder to :func:`~repro.evaluation.executor.run_tasks`.

These unit rows are all a run stores: a unit holds the variants it builds
only while it runs (:mod:`repro.core.variant_cache`), so a unit that did
not finish builds them again on the rerun.  The store reads and writes
only the generation of the code that runs, so a unit is never revived
from rows other code computed.  Without ``REPRO_STORE_DIR``
checkpointing is a transparent pass-through, and so is an unusable tree,
with a ``WARNING`` and the ``checkpoint.store_attach_failures`` counter.
A result object that was lost or quarantined is simply re-executed: the
store is the truth.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable, List, Optional, Sequence, TypeVar

from ..core.variant_cache import VariantCache
from ..obs import metrics as obs_metrics
from ..store.artifact_store import KIND_SHARD, store_dir_from_env, store_from_env
from .executor import ExecutorTaskError, resolve_jobs, run_tasks

Task = TypeVar("Task")
Result = TypeVar("Result")

logger = logging.getLogger(__name__)


class _Sentinel:
    __slots__ = ()


_ABSENT = _Sentinel()


def run_matrix(unit_fn: Callable[..., Result], units: Sequence[Task],
               unit_keys: Sequence[object], jobs: Optional[int],
               cache: Optional[VariantCache] = None,
               normalize: Optional[Callable[[Result], Result]] = None
               ) -> List[Result]:
    """Run one figure's unit list; results come back in unit order.

    A unit builds its variants directly and drops each one once it is done
    with it.  Only a caller's explicit ``cache`` memo outlives a unit: at
    ``jobs=1`` every unit runs in this process as ``unit_fn(unit,
    cache=cache)``.  An explicit ``cache`` is never overridden by the
    ambient ``REPRO_JOBS`` (only an explicit ``jobs`` argument engages the
    pool then, and the workers build without it).  Either way every
    finished unit is stored whenever a store is attached
    (:func:`run_checkpointed`).
    """
    if cache is not None:
        if jobs is None:
            jobs = 1
        if resolve_jobs(jobs) == 1:
            unit_fn = partial(unit_fn, cache=cache)
    return run_checkpointed(unit_fn, units, unit_keys, jobs=jobs,
                            normalize=normalize)


def run_checkpointed(task_fn: Callable[[Task], Result], tasks: Sequence[Task],
                     task_keys: Sequence[object], jobs: Optional[int] = None,
                     normalize: Optional[Callable[[Result], Result]] = None
                     ) -> List[Result]:
    """:func:`run_tasks` with persisted, revivable unit results.

    ``task_keys[i]`` is the value-based store key of ``tasks[i]``'s result.
    Results come back in task order, exactly like :func:`run_tasks`: units
    whose result is in the store are revived (and passed through
    ``normalize``, so their counters report as store reads), the remainder
    execute through the scheduler and are stored the moment each
    completes — an abort mid-run keeps everything already finished.  An
    :class:`~repro.evaluation.executor.ExecutorTaskError` names the failed
    unit by its position in ``tasks``.  The ``checkpoint.*`` registry
    counters record the run's planned, resumed, executed and stored units.
    """
    tasks = list(tasks)
    keys = list(task_keys)
    if len(tasks) != len(keys):
        raise ValueError(
            f"run_checkpointed: {len(tasks)} tasks but {len(keys)} keys")
    try:
        store = store_from_env()
    except OSError as error:
        # units are deterministic, so an unusable tree must not stop the
        # run — but it must not silently make it un-resumable either
        obs_metrics.counter("checkpoint.store_attach_failures")
        logger.warning(
            "checkpoint: cannot attach store %s (%s: %s); running storeless",
            store_dir_from_env(), type(error).__name__, error)
        store = None
    if store is None:
        return run_tasks(task_fn, tasks, jobs=jobs)
    obs_metrics.counter("checkpoint.planned", len(tasks))

    results: List[object] = [_ABSENT] * len(tasks)
    pending: List[int] = []
    for index, key in enumerate(keys):
        payload = store.get(KIND_SHARD, key, _ABSENT)
        if payload is _ABSENT:
            pending.append(index)
            continue
        results[index] = normalize(payload) if normalize else payload
        obs_metrics.counter("checkpoint.resumed")

    if pending:
        def persist(position: int, value: Result) -> None:
            index = pending[position]
            results[index] = value
            store.put(KIND_SHARD, keys[index], value)
            obs_metrics.counter("checkpoint.stored")

        try:
            run_tasks(task_fn, [tasks[index] for index in pending],
                      jobs=jobs, on_result=persist)
        except ExecutorTaskError as error:
            raise error.renumbered(pending) from error.__cause__
        obs_metrics.counter("checkpoint.executed", len(pending))
    return results  # type: ignore[return-value]
