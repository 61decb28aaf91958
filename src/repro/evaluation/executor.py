"""Process-parallel execution of the evaluation experiment matrices.

The experiment matrices (Figures 6–10) are lists of units in which every
unit is a pure function of its inputs: workload synthesis, the obfuscators
and the optimizer are all seeded, so a unit computes the same result no
matter where or when it runs.  :func:`run_tasks` runs such a list in one of
two ways, and the results are bit-identical either way:

* ``jobs=1`` (the default) is a plain in-process loop — no pickling, and a
  task's exception propagates unchanged;
* ``jobs>1`` maps the tasks over one ``ProcessPoolExecutor`` and **fails
  fast**.  At most one task per worker is in flight, so a task's time since
  submission is its running time, which ``REPRO_TASK_TIMEOUT`` (seconds;
  unset/0 disables) bounds.  Results are collected by submission index.
  The first task exception, broken pool (a worker died: segfault, OOM kill,
  ``os._exit``) or timeout kills the pool's workers and raises
  :class:`ExecutorTaskError` naming the unit; every result that came back
  before it has already reached ``on_result``.

Nothing is retried: a unit that raised once raises again.  The rerun is
the retry — with a store attached, :mod:`~repro.evaluation.checkpoint` has
persisted every finished unit, and a rerun executes only the others.  Each
task returns its result with the counters its worker recorded since its
previous one, which the parent keeps apart from its own
(:mod:`repro.obs.layers`).

The executor keeps no cache, in a worker or in process: a figure unit
builds the variants it needs and drops them when it returns
(:mod:`repro.core.variant_cache`).  ``jobs`` defaults to ``REPRO_JOBS``
and, absent that, to 1.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from threading import TIMEOUT_MAX
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

from ..obs import layer
from ..obs import layers as obs_layers
from ..obs import metrics as obs_metrics

Task = TypeVar("Task")
Result = TypeVar("Result")


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


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-task timeout in seconds: explicit, else ``REPRO_TASK_TIMEOUT``.

    ``None`` (and an env value of ``0``) disables the timeout — a hung
    worker then stalls the run.  Negative, unparsable or ``nan`` values,
    and any above ``threading.TIMEOUT_MAX`` (``inf`` too), raise
    :class:`ValueError`: ``nan`` never expires, and the others overflow the
    pool's wait.
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
        if not 0 <= timeout <= TIMEOUT_MAX:  # also rejects nan
            raise ValueError(
                f"REPRO_TASK_TIMEOUT must be 0 to {TIMEOUT_MAX:g}, got {raw!r}")
        return timeout or None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) \
            or not 0 < timeout <= TIMEOUT_MAX:
        raise ValueError(
            f"timeout must be in (0, {TIMEOUT_MAX:g}] seconds, got {timeout!r}")
    return float(timeout)


class ExecutorTaskError(RuntimeError):
    """A task failed, so the run stopped; names the task.

    ``index`` is the task's submission position and ``task_repr`` a
    truncated ``repr`` of its payload — enough to rerun the unit by hand.
    A broken pool cannot tell which task killed its worker: ``index`` is
    then the first task in flight, and ``in_flight`` lists every one as
    ``(index, task)`` pairs, which the message names.
    """

    def __init__(self, index: int, task: object, cause: str,
                 in_flight: Sequence[Tuple[int, object]] = ()):
        self.index = index
        self.task = task
        self.task_repr = _brief(task)
        self.cause = cause
        self.in_flight = tuple(in_flight)
        named = "".join(f", {position} [task: {_brief(lost)}]"
                        for position, lost in self.in_flight)
        super().__init__(
            f"task {index} failed: {cause}{named} [task: {self.task_repr}]")

    def renumbered(self, positions: Sequence[int]) -> "ExecutorTaskError":
        """The same failure of a run over ``tasks[positions[i]]`` for each
        ``i``, naming each task by its position in ``tasks``."""
        return ExecutorTaskError(
            positions[self.index], self.task, self.cause,
            [(positions[index], task) for index, task in self.in_flight])


def _brief(task: object) -> str:
    text = repr(task)
    return text if len(text) <= 200 else text[:197] + "..."


# -- the fail-fast map ------------------------------------------------------------------


def _supervised_entry(payload: Tuple) -> Tuple[object, Dict[str, float]]:
    """Worker-side task wrapper: runs one ``(task_fn, task)`` payload.

    Returns the task's result together with the counters the worker
    recorded since its previous result (:func:`repro.obs.layers.hand_back`),
    so the parent's totals cover its workers with no file or environment
    variable between them.
    """
    return _run_task(*payload), obs_layers.hand_back()


@layer(obs_layers.TASK)
def _run_task(task_fn: Callable[[Task], Result], task: Task) -> Result:
    result = task_fn(task)
    obs_metrics.counter("executor.tasks_completed")
    return result


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: kill its workers and wait until they are
    reaped."""
    for process in list(pool._processes.values()):
        process.kill()  # a no-op on a worker already reaped
    pool.shutdown(wait=True, cancel_futures=True)


@layer(obs_layers.WAIT)
def _run_supervised(task_fn: Callable[[Task], Result], tasks: List[Task],
                    workers: int, timeout: Optional[float],
                    on_result: Optional[Callable[[int, Result], None]]
                    ) -> List[Result]:
    """The fail-fast map: one task per worker in flight, results by index.

    Keeping at most one task per worker in flight makes a task's time since
    its submission its running time, which is what ``timeout`` bounds with
    no help from the task.  The first failure kills the pool's workers and
    raises :class:`ExecutorTaskError`.  A ``task_fn`` that cannot be pickled
    fails the first task before any pool starts: inside the pool it would
    fail every submission in the pool's own threads.
    """
    try:
        pickle.dumps(task_fn)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        raise ExecutorTaskError(0, tasks[0],
                                f"{type(error).__name__}: {error}") from error
    results: List[Result] = [None] * len(tasks)  # type: ignore[list-item]
    upcoming = iter(range(len(tasks)))
    running: Dict[Future, Tuple[int, float]] = {}  # -> (index, submitted)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while True:
            for index in islice(upcoming, workers - len(running)):
                try:
                    future = pool.submit(_supervised_entry,
                                         (task_fn, tasks[index]))
                except BrokenProcessPool:
                    if not running:
                        raise ExecutorTaskError(
                            index, tasks[index],
                            "the process pool broke before it started")
                    break  # the tasks in flight fail with the pool below
                running[future] = (index, time.monotonic())
            if not running:
                break
            tick = None
            if timeout is not None:
                first = min(started for _index, started in running.values())
                tick = max(0.0, first + timeout - time.monotonic())
            done, _ = wait(running, timeout=tick, return_when=FIRST_COMPLETED)
            broken = False
            # results first, so that a failure loses no finished unit
            for future in sorted(done, key=lambda f: (
                    f.exception() is not None, running[f][0])):
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    broken = True
                    continue
                index, _started = running.pop(future)
                if error is not None:
                    raise ExecutorTaskError(
                        index, tasks[index],
                        f"{type(error).__name__}: {error}") from error
                value, counters = future.result()
                obs_layers.absorb(counters)
                results[index] = value
                if on_result is not None:
                    on_result(index, value)
            if broken:
                # no task in flight can succeed any more, and which one
                # killed its worker is unknowable: name them all
                lost = sorted(index for index, _started in running.values())
                raise ExecutorTaskError(
                    lost[0], tasks[lost[0]],
                    "the process pool broke: a worker died running one of "
                    "the tasks in flight",
                    [(index, tasks[index]) for index in lost])
            if timeout is not None:
                now = time.monotonic()
                for index, started in sorted(running.values()):
                    if now - started >= timeout:
                        raise ExecutorTaskError(
                            index, tasks[index],
                            f"timed out after {timeout:g}s")
    except BaseException:
        _kill_pool(pool)
        raise
    pool.shutdown(wait=False, cancel_futures=True)
    return results


def run_tasks(task_fn: Callable[[Task], Result], tasks: Iterable[Task],
              jobs: Optional[int] = None, timeout: Optional[float] = None,
              on_result: Optional[Callable[[int, Result], None]] = None
              ) -> List[Result]:
    """Apply ``task_fn`` to every task, preserving task order in the results.

    With ``jobs <= 1`` (or a single task) this is a plain in-process loop:
    no pickling, and a task's exception propagates unchanged.  With more,
    tasks and results cross process boundaries, so both must be picklable
    and ``task_fn`` must be a module-level callable; the first failure
    stops the run with :class:`ExecutorTaskError` (module docstring).

    ``on_result(index, result)`` is invoked in the *calling* process as each
    task's result is accepted (completion order, not submission order) —
    the checkpoint layer persists finished units through it, so a failed
    run keeps them.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    effective_timeout = resolve_task_timeout(timeout)
    if jobs <= 1 or len(tasks) <= 1:
        results = []
        for index, task in enumerate(tasks):
            value = task_fn(task)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results
    return _run_supervised(task_fn, tasks, min(jobs, len(tasks)),
                           effective_timeout, on_result)
