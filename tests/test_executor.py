"""The parallel experiment executor: jobs=1 vs jobs=2 bit-identity.

The (program × label × tool) matrices of figures 8, 9 and 10 are pure
functions of seeded inputs; fanning them across processes must reproduce the
in-process reports exactly (same rows, same order, same floats).  Also
covers ``REPRO_JOBS`` / ``REPRO_TASK_TIMEOUT`` resolution, the fail-fast
pool (a raising task, a crashed worker, a timeout, an unpicklable task or
result and a failing ``on_result`` each stop the run, name the unit and
leave no worker alive; an unpicklable task function fails before any pool
starts; a failed run keeps its finished units and its rerun is
bit-identical), the unusable-tree degradation, what a storeless run builds
and leaves alive, and the reworked ``escape_ratio`` signature.
"""

import gc
import logging
import math
import multiprocessing
import os
import re
import threading
import time
import weakref

import pytest

from repro.core.variant_cache import VariantCache
from repro.diffing import Asm2Vec, BinDiff, escape_ratio
from repro.evaluation import (executor, figure9, measure_bintuner,
                              measure_escape, measure_overhead,
                              measure_precision, resolve_jobs, run_tasks)
from repro.evaluation import bintuner_compare, diff_sharding, overhead
from repro.evaluation.checkpoint import run_checkpointed
from repro.evaluation.executor import ExecutorTaskError, resolve_task_timeout
from repro.obs import measure
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import counted
from repro.store import KIND_SHARD, ArtifactStore
from repro.toolchain import BuildArtifact
from repro.workloads.suites import embedded_programs, spec2006_programs
from tests import oracles

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


class TestResolveJobs:
    def test_explicit_jobs_win(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_garbage_env_var_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_zero_and_negative_raise(self):
        for bad in (0, -1, -8):
            with pytest.raises(ValueError, match="positive integer"):
                resolve_jobs(bad)

    def test_zero_and_negative_env_raise(self, monkeypatch):
        for bad in ("0", "-2"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                resolve_jobs()

    def test_non_integer_raises(self):
        for bad in (2.5, "4", True):
            with pytest.raises(ValueError, match="positive integer"):
                resolve_jobs(bad)

    def test_drivers_reject_bad_jobs_at_entry(self):
        """The ValueError must surface before any pool/build work starts."""
        with pytest.raises(ValueError, match="positive integer"):
            measure_precision(WORKLOADS[:1], labels=("fission",), jobs=0)
        from repro.evaluation import measure_overhead
        with pytest.raises(ValueError, match="positive integer"):
            measure_overhead(WORKLOADS[:1], labels=("fission",), jobs=-3)

    def test_empty_env_var_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs() == 1

    @pytest.mark.parametrize("bad", ["1.5", "2x", "0x2", "1e3", "3 workers"])
    def test_non_integer_env_var_raises(self, bad, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError,
                           match="REPRO_JOBS must be a positive integer"):
            resolve_jobs()


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        values = list(range(20))
        assert run_tasks(_square, values, jobs=2) == [v * v for v in values]

    def test_single_task_stays_in_process(self):
        marker = []
        assert run_tasks(lambda t: marker.append(t) or t, [42], jobs=8) == [42]
        assert marker == [42]  # closure ran here, not in a worker

    def test_on_result_fires_for_every_task(self):
        seen_serial = []
        run_tasks(_square, [1, 2, 3], jobs=1,
                  on_result=lambda i, r: seen_serial.append((i, r)))
        assert seen_serial == [(0, 1), (1, 4), (2, 9)]
        seen_parallel = []
        run_tasks(_square, [1, 2, 3, 4], jobs=2,
                  on_result=lambda i, r: seen_parallel.append((i, r)))
        assert sorted(seen_parallel) == [(0, 1), (1, 4), (2, 9), (3, 16)]

    def test_serial_raises_the_tasks_own_exception(self, tmp_path):
        seen = []
        tasks = [(value, str(tmp_path), 3) for value in range(6)]
        with pytest.raises(RuntimeError, match="poisoned input 3"):
            run_tasks(_square_unless_poisoned, tasks, jobs=1,
                      on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 0), (1, 1), (2, 4)]
        # nothing after the failed unit starts
        assert sorted(os.listdir(tmp_path)) == ["0", "1", "2", "3"]

    def test_a_single_task_raises_its_own_exception(self, tmp_path):
        with pytest.raises(RuntimeError, match="poisoned input 7"):
            run_tasks(_square_unless_poisoned, [(7, str(tmp_path), 7)],
                      jobs=4)

    def test_the_timeout_bounds_running_time_not_waiting_time(self):
        """Eight 0.3 s tasks on two workers take 1.2 s, past the 1 s
        timeout, but none runs for 1 s: with one task per worker in
        flight, none times out."""
        assert run_tasks(_nap, [0.3] * 8, jobs=2, timeout=1.0) == [0.3] * 8


def _square(value):
    return value * value


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _started(task):
    """Marks the start of ``(index, folder)`` in its folder; the index."""
    index, folder = task
    open(os.path.join(folder, str(index)), "w").close()
    return index


def _raise_on_one(task):
    """Unit 1 raises at once; the others outlast any scheduling delay and
    die with the failed run's pool."""
    if _started(task) == 1:
        raise ValueError("synthetic failure of unit 1")
    time.sleep(5)


def _exit_on_one(task):
    """Unit 1 kills its worker at once; the others as in _raise_on_one."""
    if _started(task) == 1:
        os._exit(3)
    time.sleep(5)


def _hang_on_one(task):
    if _started(task) == 1:
        time.sleep(60)


def _square_unless_poisoned(task):
    """Squares ``value`` of ``(value, folder, poison)``, marking its start."""
    value, folder, poison = task
    _started((value, folder))
    if value == poison:
        raise RuntimeError(f"poisoned input {value}")
    return value * value


def _square_unless_exiting(task):
    """_square_unless_poisoned, except that the poison kills the worker."""
    value, folder, poison = task
    _started((value, folder))
    if value == poison:
        os._exit(3)
    return value * value


def _unpicklable_on_two(task):
    """Unit 2's result cannot cross back to the parent."""
    if _started(task) == 2:
        return lambda: None
    return task[0]


FAILING_WORKLOADS = spec2006_programs()[:4]

#: matrix -> (the module of its unit function, the function's name, its
#: driver at a given ``jobs``, the storeless serial oracle, what must match)
RESUMABLE = {
    "fig67": (overhead, "_overhead_shard",
              lambda jobs: measure_overhead(FAILING_WORKLOADS,
                                            labels=LABELS[:1], jobs=jobs),
              lambda: oracles.overhead(FAILING_WORKLOADS, LABELS[:1]),
              lambda report: report.rows),
    "fig8": (diff_sharding, "_diff_unit",
             lambda jobs: measure_precision(FAILING_WORKLOADS,
                                            labels=LABELS[:1],
                                            differs=[BinDiff()], jobs=jobs),
             lambda: oracles.precision(FAILING_WORKLOADS, LABELS[:1],
                                       [BinDiff()]),
             lambda report: report.rows),
    "fig9": (bintuner_compare, "_bintuner_shard",
             lambda jobs: measure_bintuner(FAILING_WORKLOADS,
                                           tuner_iterations=1, jobs=jobs),
             lambda: oracles.bintuner(FAILING_WORKLOADS, tuner_iterations=1),
             lambda report: (report.rows, report.bintuner_overhead_percent)),
}
_REAL_UNITS = {matrix: getattr(module, name)
               for matrix, (module, name, *_rest) in RESUMABLE.items()}


class _FailOnLastWorkload:
    """A matrix's unit function, except that the last workload's unit
    raises (picklable, so forked workers run it too)."""

    def __init__(self, matrix):
        self.matrix = matrix

    def __call__(self, unit):
        workload = unit[0]
        if workload.name == FAILING_WORKLOADS[-1].name:
            raise RuntimeError(f"poisoned workload {workload.name}")
        return _REAL_UNITS[self.matrix](unit)


class TestSupervisorKnobs:
    def test_timeout_default_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert resolve_task_timeout() is None

    def test_timeout_env_and_zero_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert resolve_task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert resolve_task_timeout() is None

    def test_timeout_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            resolve_task_timeout()
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            resolve_task_timeout()
        with pytest.raises(ValueError, match="timeout"):
            resolve_task_timeout(0)

    @pytest.mark.parametrize("bad", ["2x", "nan", "inf", "-inf", "1e300"])
    def test_timeout_env_rejects_junk(self, bad, monkeypatch):
        """``nan`` would never expire, and ``inf`` or anything above
        ``threading.TIMEOUT_MAX`` overflows the pool's wait."""
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", bad)
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            resolve_task_timeout()

    @pytest.mark.parametrize("bad", [-1.5, True, "3", math.nan, math.inf,
                                     1e300])
    def test_explicit_timeout_rejects_junk(self, bad):
        with pytest.raises(ValueError, match="timeout must be"):
            resolve_task_timeout(bad)

    def test_the_largest_timeout_still_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", repr(threading.TIMEOUT_MAX))
        assert resolve_task_timeout() == threading.TIMEOUT_MAX
        assert run_tasks(_square, [1, 2, 3], jobs=2) == [1, 4, 9]

    def test_a_junk_timeout_is_rejected_before_any_task_starts(self,
                                                               tmp_path):
        tasks = [(index, str(tmp_path)) for index in range(4)]
        with pytest.raises(ValueError, match="timeout must be"):
            run_tasks(_started, tasks, jobs=2, timeout=math.inf)
        assert os.listdir(tmp_path) == []


class TestFailFast:
    """At jobs=2 the first failure stops the run, names the unit and leaves
    no worker alive; the units that finished before it are kept."""

    @pytest.fixture(autouse=True)
    def _no_workers_before(self):
        # earlier runs shut their pools down without waiting for them
        for child in multiprocessing.active_children():
            child.join(timeout=10)

    def _fail(self, task_fn, folder, **kwargs):
        tasks = [(index, str(folder)) for index in range(8)]
        with pytest.raises(ExecutorTaskError) as excinfo:
            run_tasks(task_fn, tasks, jobs=2, **kwargs)
        assert multiprocessing.active_children() == []
        return excinfo.value

    def test_a_raising_task_stops_the_run(self, tmp_path):
        error = self._fail(_raise_on_one, tmp_path)
        assert error.index == 1
        assert isinstance(error.__cause__, ValueError)
        assert "ValueError: synthetic failure of unit 1" in str(error)
        assert f"[task: {(1, str(tmp_path))!r}]" in str(error)
        # one task per worker in flight, and none starts after the failure
        assert len(os.listdir(tmp_path)) <= 2

    def test_a_crashed_worker_names_its_unit(self, tmp_path):
        error = self._fail(_exit_on_one, tmp_path)
        assert "process pool broke" in str(error)
        # the culprit is unknowable, so every unit in flight is named
        assert f"1 [task: {(1, str(tmp_path))!r}]" in str(error)

    def test_a_hung_task_times_out(self, tmp_path):
        start = time.monotonic()
        error = self._fail(_hang_on_one, tmp_path, timeout=1.0)
        assert time.monotonic() - start < 30  # nowhere near the 60 s hang
        assert error.index == 1
        assert "timed out after 1s" in str(error)

    def test_the_env_timeout_stops_a_hung_task(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1")
        error = self._fail(_hang_on_one, tmp_path)
        assert error.index == 1
        assert "timed out after 1s" in str(error)

    @pytest.mark.parametrize("poison", [0, 3, 7])
    def test_the_raising_unit_is_named_wherever_it_runs(self, poison,
                                                        tmp_path):
        seen = {}
        tasks = [(value, str(tmp_path), poison) for value in range(8)]
        with pytest.raises(ExecutorTaskError) as excinfo:
            run_tasks(_square_unless_poisoned, tasks, jobs=2,
                      on_result=seen.__setitem__)
        assert multiprocessing.active_children() == []
        assert excinfo.value.index == poison
        assert f"poisoned input {poison}" in str(excinfo.value)
        assert seen == {index: index * index for index in seen}
        assert poison not in seen
        # the failed unit was submitted with at most one earlier unit
        # still in flight: every other earlier result reached on_result
        assert len(set(range(poison)) - set(seen)) <= 1

    @pytest.mark.parametrize("poison", [0, 3, 7])
    def test_a_crashed_worker_is_named_wherever_it_runs(self, poison,
                                                        tmp_path):
        tasks = [(value, str(tmp_path), poison) for value in range(8)]
        with pytest.raises(ExecutorTaskError) as excinfo:
            run_tasks(_square_unless_exiting, tasks, jobs=2)
        assert multiprocessing.active_children() == []
        message = str(excinfo.value)
        assert f"{poison} [task: {tasks[poison]!r}]" in message
        named = [int(index) for index in re.findall(
            r"(\d+) \[task: ", message.split("in flight, ", 1)[1])]
        assert poison in named and len(named) <= 2  # one per worker
        assert excinfo.value.index == min(named)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_on_result_error_stops_the_pool(self, error):
        """A store write that fails in the parent, or a Ctrl-C, propagates
        unchanged and leaves no worker alive."""
        seen = []

        def on_result(index, value):
            seen.append(index)
            if len(seen) == 3:
                raise error("stop after three results")

        with pytest.raises(error, match="stop after three results"):
            run_tasks(_nap, [0.05] * 8, jobs=2, on_result=on_result)
        assert multiprocessing.active_children() == []
        assert len(seen) == 3

    def test_an_unpicklable_task_names_its_unit(self):
        tasks = [1, 2, lambda: 3, 4, 5]
        with pytest.raises(ExecutorTaskError,
                           match="task 2 failed: .*Can't pickle"):
            run_tasks(_square, tasks, jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_an_unpicklable_task_function_fails_before_any_pool(
            self, monkeypatch):
        """Inside a pool, every submission of a lambda fails in the pool's
        own threads, and killing the pool could leave its manager thread
        dying with an unhandled exception.  Pickled once up front, it fails
        the first task with no pool started, every time."""
        pools = []
        real = executor.ProcessPoolExecutor

        def recording(*args, **kwargs):
            pools.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", recording)
        for _ in range(20):
            with pytest.raises(ExecutorTaskError,
                               match="task 0 failed: .*pickle") as excinfo:
                run_tasks(lambda value: value, [1, 2, 3], jobs=2)
            assert excinfo.value.task == 1
        assert pools == []
        assert multiprocessing.active_children() == []

    def test_an_unpicklable_result_names_its_unit(self, tmp_path):
        error = self._fail(_unpicklable_on_two, tmp_path)
        assert error.index == 2
        assert "pickle" in str(error)

    @pytest.mark.parametrize("poison", [1, 3, 5])
    def test_a_failed_run_keeps_its_finished_units(self, poison, tmp_store,
                                                   tmp_path):
        """The jobs=2 twin of test_interrupted_run_resumes_only_unfinished:
        the rerun executes only the units the failed run did not finish."""
        values = [1, 2, 3, 4, 5]
        keys = [("fail-fast", value) for value in values]
        failed, rerun = tmp_path / "failed", tmp_path / "rerun"
        failed.mkdir()
        rerun.mkdir()
        with pytest.raises(ExecutorTaskError,
                           match=f"poisoned input {poison}"):
            run_checkpointed(_square_unless_poisoned,
                             [(v, str(failed), poison) for v in values],
                             keys, jobs=2)
        store = ArtifactStore.attach(tmp_store)
        kept = {value for value, key in zip(values, keys)
                if store.contains(KIND_SHARD, key)}
        # the poisoned unit is submitted only once all but one of the
        # units before it have come back
        earlier = set(range(1, poison))
        assert poison not in kept
        assert len(kept & earlier) >= len(earlier) - 1
        with counted("checkpoint") as stats:
            out = run_checkpointed(_square_unless_poisoned,
                                   [(v, str(rerun), None) for v in values],
                                   keys, jobs=2)
        assert out == [value * value for value in values]
        executed = {int(name) for name in os.listdir(rerun)}
        assert executed == set(values) - kept
        assert stats["resumed"] == len(kept)
        assert stats["executed"] == len(values) - len(kept)

    def test_workers_hand_back_their_counts(self):
        """The parent's totals cover every task its workers ran, and its
        own registry, which the paper benchmark sums with every worker's,
        gains none of them."""
        parent = obs_metrics.REGISTRY.get("executor.tasks_completed")
        with measure() as run:
            results = run_tasks(_square, list(range(8)), jobs=2)
        assert results == [value * value for value in range(8)]
        assert run.counters["executor.tasks_completed"] == 8
        assert obs_metrics.REGISTRY.get("executor.tasks_completed") == parent

    @pytest.mark.parametrize("matrix", sorted(RESUMABLE))
    def test_a_failed_run_resumes_bit_identical(self, matrix, tmp_store,
                                                monkeypatch):
        """A jobs=2 matrix run stopped by a raising unit keeps the units
        that finished; the rerun revives them, executes the others and
        equals the storeless serial oracle."""
        module, name, driver, oracle, compared = RESUMABLE[matrix]
        reference = oracle()
        # the pool forks after the patch, so its workers run the patched unit
        monkeypatch.setattr(module, name, _FailOnLastWorkload(matrix))
        with measure() as failed, \
                pytest.raises(ExecutorTaskError, match="poisoned workload"):
            driver(2)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(module, name, _REAL_UNITS[matrix])
        kept = failed.counters.get("checkpoint.stored", 0)
        # the last unit is submitted once two of the three before it are in
        assert 2 <= kept <= 3
        with measure() as run:
            resumed = driver(2)
        assert compared(resumed) == compared(reference)
        assert run.counters["checkpoint.resumed"] == kept
        assert (run.counters["checkpoint.executed"]
                == len(FAILING_WORKLOADS) - kept)


class TestUnusableStoreTree:
    """An unusable tree must warn and count, never stop the run or
    degrade silently."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unusable_store_tree_warns_and_counts(self, jobs, tmp_path,
                                                  monkeypatch, caplog):
        """Only the parent attaches the tree, so a run warns and counts
        once at any ``jobs``, and its report is the storeless one."""
        reference = oracles.overhead(WORKLOADS, LABELS[:1])
        # a regular file where the tree belongs: attaching raises OSError
        root = tmp_path / "badstore"
        root.write_text("not a directory")
        monkeypatch.setenv("REPRO_STORE_DIR", str(root))
        with caplog.at_level(logging.WARNING,
                             logger="repro.evaluation.checkpoint"), \
                measure() as run:
            report = measure_overhead(WORKLOADS, labels=LABELS[:1],
                                      jobs=jobs)
        assert report.rows == reference.rows
        assert run.counters["checkpoint.store_attach_failures"] == 1
        assert "checkpoint.planned" not in run.counters  # ran storeless
        warnings = [record.message for record in caplog.records
                    if "cannot attach store" in record.message]
        assert len(warnings) == 1 and str(root) in warnings[0]


class TestParallelExperimentsBitIdentical:
    def test_precision_matrix_jobs2_equals_serial(self):
        serial = measure_precision(WORKLOADS, labels=LABELS)
        parallel = measure_precision(WORKLOADS, labels=LABELS, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.matrix() == parallel.matrix()

    def test_precision_respects_repro_jobs_env(self, monkeypatch):
        serial = measure_precision(WORKLOADS[:1], labels=("fission",),
                                   differs=[BinDiff(), Asm2Vec()])
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = measure_precision(WORKLOADS[:1], labels=("fission",),
                                     differs=[BinDiff(), Asm2Vec()])
        assert serial.rows == parallel.rows

    def test_ambient_repro_jobs_never_overrides_explicit_cache(self, monkeypatch):
        """REPRO_JOBS in the environment must not bypass a passed cache=
        (the bench's fig8 hit-rate check depends on the cache being used)."""
        from repro.core.variant_cache import VariantCache
        monkeypatch.setenv("REPRO_JOBS", "2")
        cache = VariantCache()
        measure_precision(WORKLOADS[:1], labels=("fission",),
                          differs=[BinDiff()], cache=cache)
        assert cache.misses > 0          # the explicit cache was used
        hits_before = cache.hits
        measure_precision(WORKLOADS[:1], labels=("fission",),
                          differs=[BinDiff()], cache=cache)
        assert cache.hits > hits_before  # ...and hit on the rerun

    def test_escape_report_jobs2_equals_serial(self):
        workloads = embedded_programs()[:1]
        serial = measure_escape(workloads, labels=("sub", "fufi.all"))
        parallel = measure_escape(workloads, labels=("sub", "fufi.all"), jobs=2)
        assert serial.rows == parallel.rows
        for n in (1, 10, 50):
            assert serial.matrix(n) == parallel.matrix(n)

    def test_figure9_jobs2_equals_serial(self):
        serial = figure9(limit=2, tuner_iterations=1)
        parallel = figure9(limit=2, tuner_iterations=1, jobs=2)
        assert serial.rows == parallel.rows
        assert (serial.bintuner_overhead_percent
                == parallel.bintuner_overhead_percent)


class TestWarmStoreParallelDiffing:
    """Figures 9/10: units a serial run stored revive in a jobs=2 run.

    The unit keys do not depend on ``jobs``, so a parallel rerun over the
    tree a serial run filled revives every unit, starts no pool, builds
    nothing and stays row-identical to the storeless oracle.
    """

    def _warm_jobs2(self, driver):
        cold = driver(jobs=1)
        with measure() as warm_run:
            warm = driver(jobs=2)
        assert warm_run.counters.get("checkpoint.executed", 0) == 0
        assert warm_run.counters["checkpoint.resumed"] \
            == warm_run.counters["checkpoint.planned"] > 0
        assert "workloads.build" not in warm_run.calls
        assert "executor.tasks_completed" not in warm_run.counters
        return cold, warm

    def test_escape_jobs2_over_warm_store_equals_serial(self, tmp_store):
        workloads = embedded_programs()[:1]
        labels = ("sub", "fufi.all")
        reference = oracles.escape(workloads, labels)
        cold, warm = self._warm_jobs2(
            lambda jobs: measure_escape(workloads, labels=labels, jobs=jobs))
        assert cold.rows == reference.rows
        assert warm.rows == reference.rows
        for n in (1, 10, 50):
            assert warm.matrix(n) == reference.matrix(n)

    def test_bintuner_jobs2_over_warm_store_equals_serial(self, tmp_store):
        workloads = spec2006_programs()[:2]
        reference = oracles.bintuner(workloads, tuner_iterations=1)
        cold, warm = self._warm_jobs2(
            lambda jobs: measure_bintuner(workloads, tuner_iterations=1,
                                          jobs=jobs))
        assert cold.rows == reference.rows
        assert warm.rows == reference.rows
        assert (warm.bintuner_overhead_percent
                == reference.bintuner_overhead_percent
                == cold.bintuner_overhead_percent)


#: Each driver over two workloads, and the distinct variants it builds:
#: a baseline and every label per workload (figure 9: four opt-level
#: references, the O2 + LTO one its baseline, and the Khaos build).
STORELESS_RUNS = {
    "overhead": (lambda jobs: measure_overhead(WORKLOADS, labels=LABELS,
                                               jobs=jobs), 6),
    "precision": (lambda jobs: measure_precision(
        WORKLOADS, labels=LABELS[:1], differs=[BinDiff()], jobs=jobs), 4),
    "escape": (lambda jobs: measure_escape(
        embedded_programs()[:2], labels=("sub",), differs=[Asm2Vec()],
        jobs=jobs), 4),
    "bintuner": (lambda jobs: measure_bintuner(WORKLOADS, tuner_iterations=1,
                                               jobs=jobs), 10),
}


class TestStorelessRuns:
    """Without a store, a figure run touches no store and builds each
    distinct variant it needs exactly once, in process or in workers."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("driver", sorted(STORELESS_RUNS))
    def test_no_store_call_and_one_build_per_variant(self, driver, jobs,
                                                     monkeypatch):
        for name in ("REPRO_STORE_DIR", "REPRO_JOBS"):
            monkeypatch.delenv(name, raising=False)
        call, variants = STORELESS_RUNS[driver]
        with measure() as run:
            call(jobs)
        assert "store.read" not in run.calls
        assert "store.write" not in run.calls
        assert run.counters["build.variants"] == variants


class TestInProcessMemory:
    """An in-process run leaves no built variant alive once it returns."""

    @pytest.mark.parametrize("call", [
        lambda: measure_overhead(WORKLOADS[:1], labels=LABELS, jobs=1),
        lambda: measure_precision(WORKLOADS[:1], labels=LABELS,
                                  differs=[BinDiff()], jobs=1),
        lambda: measure_escape(embedded_programs()[:1], labels=("sub",),
                               differs=[Asm2Vec()], jobs=1),
        lambda: measure_bintuner(WORKLOADS[:1], tuner_iterations=1, jobs=1),
    ], ids=["overhead", "precision", "escape", "bintuner"])
    def test_jobs1_leaves_no_artifact(self, call, monkeypatch):
        for name in ("REPRO_STORE_DIR", "REPRO_JOBS"):
            monkeypatch.delenv(name, raising=False)
        built = []
        init = BuildArtifact.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(BuildArtifact, "__init__", tracked)
        call()
        gc.collect()
        assert built and all(ref() is None for ref in built)


#: Each figure's unit function on one workload, called in process, and the
#: distinct variants one call builds: the baseline and every label (figure
#: 9: four opt-level references and the Khaos build).  Figures 8 and 10
#: share ``_diff_unit``; figure 9's unit takes no cache.
UNIT_CALLS = {
    "overhead": (lambda cache=None: overhead._overhead_shard(
        (WORKLOADS[0], LABELS, None), cache), len(LABELS) + 1),
    "diff": (lambda cache=None: diff_sharding._diff_unit(
        (WORKLOADS[0], LABELS, [BinDiff()], None), cache), len(LABELS) + 1),
    "bintuner": (lambda: bintuner_compare._bintuner_shard((WORKLOADS[0], 1)),
                 5),
}

#: The most variants a unit keeps alive while it builds another: a fig 6/7
#: unit keeps only facts, a fig 8/10 unit the label it scored last (its
#: baseline only as a binary), a fig 9 unit the reference it built last.
UNIT_HELD = {"overhead": 0, "diff": 1, "bintuner": 1}


class TestUnitsHoldNoCache:
    """A unit builds the variants it needs on every call and drops them:
    no cache outlives it unless its caller passes one."""

    def test_the_executor_keeps_no_cache(self):
        import repro.evaluation
        for name in ("worker_cache", "call_cache", "reset_worker_cache",
                     "WORKER_CACHE_ENTRIES", "_WORKER_CACHE"):
            assert not hasattr(executor, name)
            assert not hasattr(repro.evaluation, name)

    @pytest.mark.parametrize("unit", sorted(UNIT_CALLS))
    def test_every_call_builds_its_variants(self, unit):
        call, variants = UNIT_CALLS[unit]
        first = call()
        overhead.clear_variant_facts()  # or fig 6/7 answers from its facts
        with counted("build") as builds:
            second = call()
        assert builds["variants"] == variants
        assert second == first

    @pytest.mark.parametrize("unit", sorted(UNIT_CALLS))
    def test_a_unit_holds_few_variants_while_it_builds(self, unit,
                                                       monkeypatch):
        built, held = [], []
        init = BuildArtifact.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            gc.collect()
            held.append(sum(ref() is not None for ref in built))
            built.append(weakref.ref(self))

        monkeypatch.setattr(BuildArtifact, "__init__", tracked)
        call, variants = UNIT_CALLS[unit]
        call()
        assert len(held) == variants
        assert max(held) <= UNIT_HELD[unit]

    @pytest.mark.parametrize("unit", ["diff", "overhead"])
    def test_an_explicit_memo_serves_a_second_call(self, unit):
        call, variants = UNIT_CALLS[unit]
        memo = VariantCache()
        first = call(memo)
        overhead.clear_variant_facts()
        with counted("build") as builds:
            second = call(memo)
        assert builds["variants"] == 0 and second == first
        assert memo.misses == memo.hits == len(memo) == variants


class TestEscapeRatioPairs:
    def test_escape_ratio_takes_result_provenance_pairs(self):
        from repro.toolchain import (build_baseline, build_obfuscated,
                                     obfuscator_for)
        workload = embedded_programs()[0]
        vulnerable = workload.vulnerable_functions
        baseline = build_baseline(workload.build())
        differ = Asm2Vec()
        pairs = []
        for label in ("sub", "fufi.all"):
            variant = build_obfuscated(workload.build(), obfuscator_for(label))
            pairs.append((differ.diff(baseline.binary, variant.binary),
                          variant.provenance))
        ratio_1 = escape_ratio(pairs, vulnerable, 1)
        ratio_50 = escape_ratio(pairs, vulnerable, 50)
        assert 0.0 <= ratio_50 <= ratio_1 <= 1.0

    def test_escape_ratio_empty(self):
        assert escape_ratio([], ["f"], 1) == 0.0
