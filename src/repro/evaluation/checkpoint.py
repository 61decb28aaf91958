"""The matrix engine of Figures 6–10: one run path, journaled and resumable.

A fig6–10 matrix run is a deterministic list of value-keyed units, each a
pure function of its store key.  :func:`run_matrix` is the one path every
``measure_*`` driver takes: ``jobs=1`` runs the units in-process through a
cache of the caller's size, ``jobs>1`` fans them across the supervised pool
(:mod:`repro.evaluation.executor`), and the caller reduces the results in
unit order — so a serial and a parallel run agree by construction.

Whenever a store is attached, an *interrupted* run (a ``kill -9``, a power
loss, an aborted chaos test) never throws completed work away:

* each unit's finished result is persisted in the shared
  :class:`~repro.store.artifact_store.ArtifactStore` under kind
  :data:`~repro.store.artifact_store.KIND_SHARD`, keyed by the unit's
  value-based identity (tool config × variant keys × slice) — the same
  key discipline as every other store object, so two different runs that
  contain the same unit share its result;
* a :class:`RunManifest` under ``<store root>/runs/<run_id>.jsonl`` journals
  the digests of the units *this run* completed — one ``O_APPEND`` JSON
  line per unit, appended from :func:`run_checkpointed`'s ``on_result``
  hook as results arrive, so the journal is current the instant a unit
  finishes, not when the run ends.  ``run_id`` hashes the run's full unit
  key list: a restart with the same matrix resolves to the same manifest,
  while any change to the matrix (labels, tools, partitioning) starts a
  fresh journal;
* on start, :func:`run_checkpointed` loads the manifest, revives every
  journaled unit's result from the store (``normalize`` rewrites its
  counters so revived units report as store reads, not fresh scores) and
  hands only the remainder to
  :func:`~repro.evaluation.executor.run_tasks`.

Without ``REPRO_STORE_DIR`` (or with ``REPRO_CHECKPOINT=off``) journaling is
a transparent pass-through.  A journaled digest whose object was lost or
quarantined is simply re-executed: the manifest is advisory, the store is
the truth, exactly like the
:class:`~repro.store.generation_log.GenerationLog` ledger.
"""

from __future__ import annotations

import json
import os
from functools import partial
from typing import Callable, List, Optional, Sequence, Set, TypeVar

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.collect import open_run
from ..store.artifact_store import (KIND_SHARD, StoreError, store_digest,
                                    store_dir_from_env, store_from_env)
from .executor import call_cache, resolve_jobs, run_tasks

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Subdirectory of the store root holding one journal file per run identity.
RUNS_DIR = "runs"


def checkpoint_enabled(environ=os.environ) -> bool:
    """Checkpointing is on by default; ``REPRO_CHECKPOINT=off`` disables it.

    The off switch exists for measurements that must not short-circuit
    (e.g. the ``telemetry_overhead`` bench re-runs one matrix twice on one
    tree) and for tests that specifically exercise the executor rather than
    the resume path.
    """
    value = environ.get("REPRO_CHECKPOINT", "").strip().lower()
    if value in ("", "on", "1", "true"):
        return True
    if value in ("off", "0", "false"):
        return False
    raise ValueError(
        f"REPRO_CHECKPOINT must be 'on' or 'off', got {value!r}")


def run_id(run_parts: object) -> str:
    """The stable identity of one matrix run's unit list (hex, 16 chars)."""
    return store_digest("run", run_parts)[:16]


def _parse_journal(text: str) -> Set[str]:
    """The completed-unit digests of one journal's lines — tolerant of
    torn trailing lines (``scripts/gc_store.py`` marks its roots with it)."""
    done: Set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn trailing line from a killed writer
        digest = entry.get("digest") if isinstance(entry, dict) else None
        if isinstance(digest, str):
            done.add(digest)
    return done


class RunManifest:
    """The append-only journal of one run's completed unit digests.

    Lives at ``<root>/runs/<run_id>.jsonl``; one JSON line per completed
    unit, appended with a single ``O_APPEND`` write (atomic under POSIX),
    so concurrent runs of one matrix may share a journal and a torn
    trailing line from a killed process at worst under-reports one unit —
    which is then re-executed, never mis-resumed.
    """

    def __init__(self, root: str, identity: str):
        self.root = root
        self.identity = identity
        self.path = os.path.join(root, RUNS_DIR, f"{identity}.jsonl")
        self.done: Set[str] = set()
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return
        self.done |= _parse_journal(text)

    def mark_done(self, digest: str) -> None:
        """Journal one completed unit — O(1), durable before returning."""
        self.done.add(digest)
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        line = json.dumps({"digest": digest}) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, line.encode("utf-8"))
            # the journal line is the promise "this unit will not re-run";
            # fsync before returning so a crash cannot retract it
            os.fsync(fd)
        finally:
            os.close(fd)


class _Sentinel:
    __slots__ = ()


_ABSENT = _Sentinel()


def run_matrix(unit_fn: Callable[..., Result], units: Sequence[Task],
               unit_keys: Sequence[object], run_parts: object,
               jobs: Optional[int], cache, cache_entries: int,
               normalize: Optional[Callable[[Result], Result]] = None
               ) -> List[Result]:
    """Run one figure's unit list; results come back in unit order.

    ``unit_fn(unit, cache=None)`` builds through ``cache`` when it is given
    and through the process-wide
    :func:`~repro.evaluation.executor.worker_cache` otherwise.  At
    ``jobs=1`` every unit runs in this process through the caller's
    ``cache`` or, without one, through a fresh
    :func:`~repro.evaluation.executor.call_cache` of ``cache_entries`` —
    the working set the units share, released when the run returns.  At
    ``jobs>1`` the units fan out across the supervised pool, each worker
    building through its own cache.  An explicit ``cache`` is never
    overridden by the ambient ``REPRO_JOBS`` (only an explicit ``jobs``
    argument engages the pool then).  Either way the run is journaled
    whenever a store is attached (:func:`run_checkpointed`).
    """
    if cache is not None and jobs is None:
        jobs = 1
    if resolve_jobs(jobs) == 1:
        unit_fn = partial(unit_fn, cache=cache if cache is not None
                          else call_cache(cache_entries))
    return run_checkpointed(unit_fn, units, unit_keys, run_parts, jobs=jobs,
                            normalize=normalize)


def run_checkpointed(task_fn: Callable[[Task], Result], tasks: Sequence[Task],
                     task_keys: Sequence[object], run_parts: object,
                     jobs: Optional[int] = None,
                     normalize: Optional[Callable[[Result], Result]] = None
                     ) -> List[Result]:
    """:func:`run_tasks` with journaled, resumable unit results.

    ``task_keys[i]`` is the value-based store key of ``tasks[i]``'s result;
    ``run_parts`` identifies the run (normally the full key tuple).  Results
    come back in task order, exactly like :func:`run_tasks`: journaled
    units are revived from the store (and passed through ``normalize``, so
    their counters report as store reads), the remainder execute through the
    scheduler and are persisted + journaled the moment each completes — an
    abort mid-run keeps everything already finished.  The ``checkpoint.*``
    registry counters record the run's planned, resumed, executed and
    journaled units.
    """
    tasks = list(tasks)
    keys = list(task_keys)
    if len(tasks) != len(keys):
        raise ValueError(
            f"run_checkpointed: {len(tasks)} tasks but {len(keys)} keys")
    root = store_dir_from_env()
    identity = run_id(run_parts)
    # the telemetry run wraps even the checkpoint-off paths: the bench's
    # REPRO_CHECKPOINT=off arms still produce a merged trace.  open_run is
    # a no-op without a store tree or with tracing off, and nested
    # opens defer to the outermost run.
    with open_run(root, identity):
        with obs_tracing.span("run", cat="coordinate", run_id=identity,
                              tasks=len(tasks)):
            return _run_checkpointed(task_fn, tasks, keys, identity, jobs,
                                     normalize)


def _run_checkpointed(task_fn, tasks, keys, identity, jobs,
                      normalize) -> List[Result]:
    if not checkpoint_enabled():
        return run_tasks(task_fn, tasks, jobs=jobs)
    try:
        store = store_from_env(max_memory_entries=8)
    except (StoreError, OSError):
        # an unusable tree degrades to a plain (un-resumable) run, same as
        # the worker cache's storeless degradation
        store = None
    if store is None:
        return run_tasks(task_fn, tasks, jobs=jobs)
    manifest = RunManifest(store.root, identity)
    obs_metrics.counter("checkpoint.planned", len(tasks))

    results: List[object] = [_ABSENT] * len(tasks)
    digests = [store_digest(KIND_SHARD, key) for key in keys]
    pending: List[int] = []
    for index, digest in enumerate(digests):
        if digest in manifest.done:
            payload = store.get(KIND_SHARD, keys[index], _ABSENT)
            if payload is not _ABSENT:
                results[index] = normalize(payload) if normalize else payload
                obs_metrics.counter("checkpoint.resumed")
                continue
            # journaled but lost/quarantined: the store is the truth
        pending.append(index)
    if len(pending) < len(tasks):
        obs_tracing.event("checkpoint.resume", cat="coordinate",
                          run_id=identity,
                          resumed=len(tasks) - len(pending),
                          pending=len(pending))

    if pending:
        def journal(position: int, value: Result) -> None:
            index = pending[position]
            results[index] = value
            store.put(KIND_SHARD, keys[index], value)
            manifest.mark_done(digests[index])
            obs_metrics.counter("checkpoint.journaled")
            obs_tracing.event("checkpoint.journal", cat="coordinate",
                              shard=digests[index][:12])

        run_tasks(task_fn, [tasks[index] for index in pending], jobs=jobs,
                  on_result=journal)
        obs_metrics.counter("checkpoint.executed", len(pending))
    return results  # type: ignore[return-value]
