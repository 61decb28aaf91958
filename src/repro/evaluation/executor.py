"""Process-parallel execution of the evaluation experiment matrices.

The experiment matrices (Figures 6–10) are lists of units in which every
unit is a pure function of its inputs: workload synthesis, the obfuscators
and the optimizer are all seeded, so a unit computes the same result no
matter where or when it runs.  :func:`run_tasks` runs such a list in one of
two ways, and the results are bit-identical either way:

* ``jobs=1`` (the default) is a plain in-process loop — no pickling, no
  supervision, no fault injection;
* ``jobs>1`` is the **supervised executor**.  Every task is an individual
  future carrying a configurable timeout (``REPRO_TASK_TIMEOUT``, seconds;
  unset/0 disables) and a bounded retry budget (``REPRO_TASK_RETRIES``,
  default 2); a failed attempt is resubmitted at once, because a task fails
  either deterministically or by injection and no remote resource needs
  time to recover.  A hung worker — one whose task exceeds the timeout — is
  killed together with its pool, the pool is respawned, the hung task
  retried and the innocent in-flight tasks resubmitted without burning a
  retry.  A crashed worker (``BrokenProcessPool``: segfault, OOM kill,
  injected ``worker_crash``) likewise respawns the pool; after
  :data:`MAX_POOL_FAILURES` consecutive pool deaths with no completed task
  in between the run degrades to serial in-process execution instead of
  thrashing.  Results are collected **by submission index**, and a task
  that fails every attempt aborts the run with :class:`ExecutorTaskError`
  carrying the task's identity.  The worker-side task wrapper is where
  seeded chaos (:mod:`repro.faults`, ``REPRO_FAULTS``) injects crashes,
  hangs and task errors, and it returns each result with the counters
  the worker recorded since its previous one, which the parent keeps
  apart from its own (:mod:`repro.obs.layers`).

Each worker process builds through one process-wide
:class:`~repro.core.variant_cache.VariantCache` (:func:`worker_cache`); an
in-process run builds through a cache of its own (:func:`call_cache`),
sized by the caller and dropped when the run returns.  With
``REPRO_STORE_DIR`` set, both attach to the one shared on-disk
:class:`~repro.store.artifact_store.ArtifactStore` tree — artifacts built by
any process are read (not rebuilt) by all the others.  ``jobs`` defaults to
``REPRO_JOBS`` and, absent that, to 1.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from ..core.variant_cache import VariantCache
from ..faults import active_injector
from ..obs import layer
from ..obs import layers as obs_layers
from ..obs import metrics as obs_metrics
from ..store.artifact_store import (ArtifactStore, StoreError,
                                    store_dir_from_env)

Task = TypeVar("Task")
Result = TypeVar("Result")

logger = logging.getLogger(__name__)

#: Consecutive pool deaths (no task completed in between) before the
#: supervisor stops respawning pools and finishes the run serially
#: in-process.  Pool deaths separated by progress reset the count.
#: Override with ``REPRO_MAX_POOL_FAILURES`` (chaos runs raise it to keep
#: the pool path exercised under high crash rates).
MAX_POOL_FAILURES = 3

#: Default retry budget per task (attempts = retries + 1).
DEFAULT_TASK_RETRIES = 2


def _max_pool_failures() -> int:
    """``REPRO_MAX_POOL_FAILURES``, else :data:`MAX_POOL_FAILURES`.

    Anything but a positive integer raises :class:`ValueError`.
    """
    raw = os.environ.get("REPRO_MAX_POOL_FAILURES", "").strip()
    if not raw:
        return MAX_POOL_FAILURES
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(
            f"REPRO_MAX_POOL_FAILURES must be a positive integer, got {raw!r}")
    return value


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-process count: explicit ``jobs``, else ``REPRO_JOBS``, else 1.

    ``1`` runs the tasks serially in-process.  Anything that is not a
    positive integer — ``0``, a negative count, a float, ``"many"`` in the
    environment — raises :class:`ValueError` here, at entry, rather than
    surfacing later as an opaque pool failure.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            jobs = 0
        if jobs <= 0:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {raw!r}")
        return jobs
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs <= 0:
        raise ValueError(
            f"jobs must be a positive integer, got {jobs!r} "
            f"(use jobs=os.cpu_count() for one worker per core)")
    return jobs


def resolve_task_retries(retries: Optional[int] = None) -> int:
    """Retry budget per task: explicit, else ``REPRO_TASK_RETRIES``, else 2.

    ``0`` is valid (fail fast on the first error); negatives and
    non-integers raise :class:`ValueError` at entry.
    """
    if retries is None:
        raw = os.environ.get("REPRO_TASK_RETRIES", "").strip()
        if not raw:
            return DEFAULT_TASK_RETRIES
        try:
            retries = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_TASK_RETRIES must be a non-negative integer, "
                f"got {raw!r}")
        if retries < 0:
            raise ValueError(
                f"REPRO_TASK_RETRIES must be a non-negative integer, "
                f"got {raw!r}")
        return retries
    if (isinstance(retries, bool) or not isinstance(retries, int)
            or retries < 0):
        raise ValueError(
            f"retries must be a non-negative integer, got {retries!r}")
    return retries


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-task timeout in seconds: explicit, else ``REPRO_TASK_TIMEOUT``.

    ``None`` (and an env value of ``0``) disables timeout supervision — a
    hung worker then stalls the run, exactly like the pre-supervision
    executor.  Negative or unparsable values raise :class:`ValueError`.
    """
    if timeout is None:
        raw = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
        if not raw:
            return None
        try:
            timeout = float(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_TASK_TIMEOUT must be a number of seconds, got {raw!r}")
        if timeout < 0:
            raise ValueError(
                f"REPRO_TASK_TIMEOUT must be non-negative, got {raw!r}")
        return timeout or None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) \
            or timeout <= 0:
        raise ValueError(
            f"timeout must be a positive number of seconds, got {timeout!r}")
    return float(timeout)


class ExecutorTaskError(RuntimeError):
    """A task failed every attempt; carries the task's identity.

    ``index`` is the task's submission position, ``task`` a truncated
    ``repr`` of the task payload — enough to re-run the failing cell by
    hand — and ``attempts`` how many times it was tried.
    """

    def __init__(self, index: int, task: object, attempts: int,
                 cause: str):
        text = repr(task)
        if len(text) > 200:
            text = text[:197] + "..."
        self.index = index
        self.task_repr = text
        self.attempts = attempts
        super().__init__(
            f"task {index} failed after {attempts} attempt(s): {cause} "
            f"[task: {text}]")


# -- per-worker variant cache ---------------------------------------------------------

_WORKER_CACHE: Optional[VariantCache] = None

#: Operator-facing counters of worker-cache startup degradations: an
#: unusable store tree is survivable (builds are deterministic) but must be
#: *visible*, not silent — a worker that starts storeless because the tree
#: was unusable looks identical to one that never had a tree, unless these
#: counters say otherwise.
#: They live in the process-global metrics registry under this prefix;
#: :func:`worker_cache_events` is a façade over it.
_CACHE_EVENTS_PREFIX = "executor.cache"

#: LRU bound of each worker's in-memory layer: the most any unit needs at
#: once (a fig 6/7 unit's baseline and the label it measures; figs 8–10
#: units hold their baseline themselves).  Units are whole workloads and
#: share no variant, so a larger bound would only pin finished units'
#: variants — and their features — in memory.  With a shared store
#: attached, evicted artifacts remain one disk read away.
WORKER_CACHE_ENTRIES = 2


def worker_cache() -> VariantCache:
    """The process-local :class:`VariantCache` used by executor tasks.

    Created on first use in each worker.  With ``REPRO_STORE_DIR`` the
    cache attaches to the shared on-disk artifact store.  A corrupt or
    incompatible tree is logged and counted (:func:`worker_cache_events`),
    never fatal — builds are deterministic, so starting cold only costs
    time.
    """
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = VariantCache(
            max_entries=WORKER_CACHE_ENTRIES,
            store=_attach_store(WORKER_CACHE_ENTRIES))
    return _WORKER_CACHE


def call_cache(entries: int) -> VariantCache:
    """The cache of one in-process matrix run: at most ``entries`` variants
    in memory.

    The caller sizes it to the variants its units share and drops it when
    the run returns, so an in-process run never pins artifacts in the
    process-wide :func:`worker_cache`.  It attaches to the shared store
    exactly like a worker's cache does.
    """
    return VariantCache(max_entries=entries, store=_attach_store(entries))


def worker_cache_events() -> Dict[str, int]:
    """Counters of best-effort worker-cache startups that degraded.

    ``store_attach_failures`` — shared store trees that could not be
    attached.  Each also emits one ``WARNING`` log line with the cause, so
    an operator can tell an unusable tree from a cold start.  (A façade
    over the :mod:`repro.obs` metrics registry; the dict shape predates
    it.)
    """
    registry = obs_metrics.REGISTRY
    return {"store_attach_failures":
            int(registry.get(f"{_CACHE_EVENTS_PREFIX}.store_attach_failures"))}


def _attach_store(bound: int) -> Optional[ArtifactStore]:
    """The store the environment names, or ``None`` (also when unusable)."""
    target = store_dir_from_env()
    if not target:
        return None
    try:
        return ArtifactStore.attach(target, max_memory_entries=bound)
    except (StoreError, OSError) as error:
        # an unusable shared tree must never kill a worker — but it must
        # not silently cost a full rebuild either
        obs_metrics.counter(f"{_CACHE_EVENTS_PREFIX}.store_attach_failures")
        logger.warning(
            "variant cache: cannot attach store %s (%s: %s); "
            "building storeless", target, type(error).__name__, error)
        return None


def reset_worker_cache() -> None:
    """Drop the process-local cache (tests use this to isolate scenarios)."""
    global _WORKER_CACHE
    _WORKER_CACHE = None
    obs_metrics.REGISTRY.reset(_CACHE_EVENTS_PREFIX)


# -- the supervised map primitive -----------------------------------------------------


def _supervised_entry(payload: Tuple) -> Tuple[object, Dict[str, float]]:
    """Worker-side task wrapper: the chaos injection point.

    Runs in the worker process.  With ``REPRO_FAULTS`` set (workers inherit
    the environment) the injector may crash the process, stall the task or
    raise before the real task function runs; the firing decision is a pure
    function of (seed, task index, attempt), so chaos runs are reproducible.

    Returns the task's result together with the counters the worker
    recorded since its previous result (:func:`repro.obs.layers.hand_back`),
    so the parent's totals cover its workers with no file or environment
    variable between them.
    """
    return _run_task(*payload), obs_layers.hand_back()


@layer(obs_layers.TASK)
def _run_task(task_fn: Callable[[Task], Result], task: Task, index: int,
              attempt: int) -> Result:
    injector = active_injector()
    if injector is not None:
        token = f"task:{index}"
        injector.maybe_crash(token, attempt)
        injector.maybe_hang(token, attempt)
        injector.maybe_error(token, attempt)
    result = task_fn(task)
    obs_metrics.counter("executor.tasks_completed")
    return result


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, killing workers that will never finish."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, AttributeError):  # already gone
            pass
    pool.shutdown(wait=False, cancel_futures=True)


@layer(obs_layers.WAIT)
def _run_supervised(task_fn: Callable[[Task], Result], tasks: List[Task],
                    workers: int, timeout: Optional[float], retries: int,
                    on_result: Optional[Callable[[int, Result], None]]
                    ) -> List[Result]:
    """The supervision loop: per-task futures, retry, kill, respawn.

    In-flight futures are capped at the worker count, so every in-flight
    task is actually *running* and its submission timestamp approximates its
    start — which is what makes the timeout meaningful without any
    cooperation from the task function.
    """
    total = len(tasks)
    results: Dict[int, Result] = {}
    pending = deque((index, 0) for index in range(total))
    inflight: Dict[object, Tuple[int, int, float]] = {}
    pool: Optional[ProcessPoolExecutor] = None
    pool_failures = 0
    failure_limit = _max_pool_failures()

    def record(index: int, value: Result) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    def recycle_pool() -> None:
        nonlocal pool
        if pool is not None:
            obs_metrics.counter("executor.pool_respawns")
            _kill_pool(pool)
            pool = None

    def requeue(index: int, attempt: int, burn_retry: bool,
                cause: str) -> None:
        """Put a task back on the queue, aborting if its budget is spent."""
        next_attempt = attempt + 1 if burn_retry else attempt
        if burn_retry:
            obs_metrics.counter("executor.retries")
        if next_attempt > retries:
            recycle_pool()
            raise ExecutorTaskError(index, tasks[index], attempt + 1, cause)
        pending.append((index, next_attempt))

    def run_serially() -> None:
        """Graceful degradation: finish the remaining tasks in-process."""
        obs_metrics.counter("executor.serial_degradations")
        logger.warning(
            "executor: %d consecutive pool failures; finishing %d task(s) "
            "serially in-process", pool_failures,
            len(pending) + len(inflight))
        for future, (index, _attempt, _started) in list(inflight.items()):
            pending.append((index, 0))
        inflight.clear()
        for index, _attempt in sorted(pending):
            if index not in results:
                record(index, task_fn(tasks[index]))
        pending.clear()

    try:
        while pending or inflight:
            if pool_failures >= failure_limit:
                recycle_pool()
                run_serially()
                break
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            # keep at most one running task per worker, so submission time
            # approximates start time for the timeout below
            broken = False
            while pending and len(inflight) < workers:
                index, attempt = pending.popleft()
                if index in results:  # already satisfied by a racing retry
                    continue
                try:
                    future = pool.submit(
                        _supervised_entry, (task_fn, tasks[index], index,
                                            attempt))
                except (BrokenProcessPool, RuntimeError):
                    pending.appendleft((index, attempt))
                    broken = True
                    break
                inflight[future] = (index, attempt, time.monotonic())
            if broken:
                pool_failures += 1
                recycle_pool()
                for future, (index, attempt, _started) in inflight.items():
                    requeue(index, attempt, burn_retry=True,
                            cause="process pool broke")
                inflight.clear()
                continue
            if not inflight:
                continue

            tick = None
            if timeout is not None:
                now = time.monotonic()
                tick = max(0.0,
                           min(started + timeout for (_i, _a, started)
                               in inflight.values()) - now)
            done, _not_done = wait(set(inflight), timeout=tick,
                                   return_when=FIRST_COMPLETED)

            pool_broke = False
            broken_tasks: List[Tuple[int, int]] = []
            for future in done:
                index, attempt, _started = inflight.pop(future)
                error = future.exception()
                if error is None:
                    value, counters = future.result()
                    obs_layers.absorb(counters)
                    record(index, value)
                    pool_failures = 0
                elif isinstance(error, BrokenProcessPool):
                    # the worker died (crash, OOM, kill); which in-flight
                    # task was the culprit is unknowable, so all of them
                    # burn a retry below — and every requeue advances the
                    # attempt, so a crash decision keyed on (task, attempt)
                    # re-rolls instead of firing forever
                    pool_broke = True
                    broken_tasks.append((index, attempt))
                else:
                    requeue(index, attempt, burn_retry=True,
                            cause=f"{type(error).__name__}: {error}")
            if pool_broke:
                pool_failures += 1
                recycle_pool()
                for index, attempt in broken_tasks:
                    requeue(index, attempt, burn_retry=True,
                            cause="process pool broke")
                for future, (index, attempt, _started) in inflight.items():
                    requeue(index, attempt, burn_retry=True,
                            cause="process pool broke")
                inflight.clear()
                continue

            if timeout is not None and inflight:
                now = time.monotonic()
                hung = {future: entry for future, entry in inflight.items()
                        if now - entry[2] > timeout}
                if hung:
                    # a hung worker can only be stopped by killing it, and
                    # killing it takes the pool down: respawn, retry the hung
                    # task(s), resubmit the innocent in-flight ones for free
                    recycle_pool()
                    for future, (index, attempt, _started) in inflight.items():
                        if future in hung:
                            obs_metrics.counter("executor.timeouts")
                            logger.warning(
                                "executor: task %d exceeded %.3gs timeout "
                                "(attempt %d); killing worker and retrying",
                                index, timeout, attempt + 1)
                            requeue(index, attempt, burn_retry=True,
                                    cause=f"timed out after {timeout}s")
                        else:
                            requeue(index, attempt, burn_retry=False,
                                    cause="")
                    inflight.clear()
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return [results[index] for index in range(total)]


def run_tasks(task_fn: Callable[[Task], Result], tasks: Iterable[Task],
              jobs: Optional[int] = None, timeout: Optional[float] = None,
              retries: Optional[int] = None,
              on_result: Optional[Callable[[int, Result], None]] = None
              ) -> List[Result]:
    """Apply ``task_fn`` to every task, preserving task order in the results.

    With ``jobs <= 1`` (or a single task) this is a plain in-process loop:
    no pickling, no supervision, no fault injection.  With more, tasks and
    results cross process boundaries, so both must be picklable and
    ``task_fn`` must be a module-level callable; the supervised scheduler
    adds per-task timeout, bounded retry, pool respawn and serial
    degradation (module docstring).

    ``on_result(index, result)`` is invoked in the *calling* process as each
    task's result is accepted (completion order, not submission order) —
    the checkpoint layer journals completed units through it.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    effective_timeout = resolve_task_timeout(timeout)
    effective_retries = resolve_task_retries(retries)
    if jobs <= 1 or len(tasks) <= 1:
        results = []
        for index, task in enumerate(tasks):
            value = task_fn(task)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results
    return _run_supervised(task_fn, tasks, min(jobs, len(tasks)),
                           effective_timeout, effective_retries, on_result)
