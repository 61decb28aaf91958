"""The parallel experiment executor: jobs=1 vs jobs=2 bit-identity.

The (program × label × tool) matrices of figures 8, 9 and 10 are pure
functions of seeded inputs; fanning them across processes must reproduce the
in-process reports exactly (same rows, same order, same floats).  Also
covers ``resolve_jobs`` / ``REPRO_JOBS`` resolution, the supervised
scheduler's failure modes (crashed workers, exhausted retries, timeouts),
the worker-cache degradation counters, what an in-process run leaves alive,
and the reworked ``escape_ratio`` signature.
"""

import gc
import logging
import os
import time
import weakref

import pytest

from repro.diffing import Asm2Vec, BinDiff, escape_ratio
from repro.evaluation import (executor, figure9, measure_bintuner,
                              measure_escape, measure_overhead,
                              measure_precision, resolve_jobs, run_tasks)
from repro.evaluation import checkpoint
from repro.evaluation.executor import (ExecutorTaskError, reset_worker_cache,
                                       resolve_task_retries,
                                       resolve_task_timeout, worker_cache,
                                       worker_cache_events)
from repro.store import KIND_VARIANT, ArtifactStore
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

    def test_worker_cache_is_process_local_singleton(self):
        reset_worker_cache()
        assert worker_cache() is worker_cache()


class TestCallCache:
    def test_bounded_private_and_never_the_worker_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        reset_worker_cache()
        cache = executor.call_cache(2)
        assert cache is not executor.call_cache(2)     # one per run
        assert executor._WORKER_CACHE is None
        assert not cache.store.persistent
        for index in range(3):
            cache.get_or_build(("call-cache-test", index), object)
        assert cache.max_entries == 2 and len(cache) == 2

    def test_attaches_the_shared_store_under_the_same_bound(self, tmp_store):
        cache = executor.call_cache(3)
        store = cache.store
        assert store.persistent and store.root == os.path.abspath(tmp_store)
        assert cache.max_entries == store.max_memory_entries == 3
        assert executor._WORKER_CACHE is None


def _square(value):
    return value * value


def _crash_once_then_square(value):
    """Hard-exits the worker the first time it sees value 3 (marker-gated)."""
    marker = os.environ["REPRO_TEST_CRASH_MARKER"]
    if value == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value * value


def _raise_on_two(value):
    if value == 2:
        raise ValueError(f"synthetic failure for {value}")
    return value


def _hang_once_then_negate(value):
    """Sleeps far past the test timeout the first time it sees value 1."""
    marker = os.environ["REPRO_TEST_HANG_MARKER"]
    if value == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    return -value


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

    def test_retries_default_env_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert resolve_task_retries() == 2
        assert resolve_task_retries(0) == 0
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        assert resolve_task_retries() == 5
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_TASK_RETRIES"):
            resolve_task_retries()
        with pytest.raises(ValueError, match="retries"):
            resolve_task_retries(2.5)

    @pytest.mark.parametrize("value", ["many", "0", "-3", "1.5", "2x"])
    def test_max_pool_failures_rejects_junk(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_MAX_POOL_FAILURES", value)
        with pytest.raises(ValueError, match="REPRO_MAX_POOL_FAILURES"):
            run_tasks(_square, [1, 2], jobs=2)


class TestSupervisedFailureModes:
    """The failure modes the supervised scheduler exists for."""

    @pytest.fixture(autouse=True)
    def _no_faults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)

    def test_broken_pool_mid_matrix_recovers(self, tmp_path, monkeypatch):
        """A worker hard-exit (BrokenProcessPool) respawns the pool and the
        run still returns every result in submission order."""
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER",
                           str(tmp_path / "crashed"))
        values = list(range(6))
        results = run_tasks(_crash_once_then_square, values, jobs=2,
                            retries=2)
        assert results == [v * v for v in values]
        assert (tmp_path / "crashed").exists()  # the crash really happened

    def test_task_failing_every_retry_surfaces_identity(self):
        """A task that raises on every attempt aborts the run cleanly with
        an error naming the task and its attempt count."""
        with pytest.raises(ExecutorTaskError) as excinfo:
            run_tasks(_raise_on_two, list(range(4)), jobs=2, retries=1)
        error = excinfo.value
        assert error.index == 2
        assert error.attempts == 2  # 1 try + 1 retry
        assert "synthetic failure for 2" in str(error)
        assert "[task: 2]" in str(error)

    def test_timeout_retry_succeeds_on_second_attempt(self, tmp_path,
                                                      monkeypatch):
        """A hung worker is killed at the timeout and the retry completes."""
        monkeypatch.setenv("REPRO_TEST_HANG_MARKER", str(tmp_path / "hung"))
        start = time.monotonic()
        results = run_tasks(_hang_once_then_negate, [0, 1, 2], jobs=2,
                            timeout=1.0, retries=2)
        elapsed = time.monotonic() - start
        assert results == [0, -1, -2]
        assert (tmp_path / "hung").exists()
        assert elapsed < 30  # killed at ~1s, nowhere near the 60s sleep

    def test_on_result_fires_for_every_task(self):
        seen_serial = []
        run_tasks(_square, [1, 2, 3], jobs=1,
                  on_result=lambda i, r: seen_serial.append((i, r)))
        assert seen_serial == [(0, 1), (1, 4), (2, 9)]
        seen_parallel = []
        run_tasks(_square, [1, 2, 3, 4], jobs=2,
                  on_result=lambda i, r: seen_parallel.append((i, r)))
        assert sorted(seen_parallel) == [(0, 1), (1, 4), (2, 9), (3, 16)]


class TestWorkerCacheDegradationCounters:
    """Best-effort cache startup must warn + count, never die silently."""

    def test_unusable_store_tree_warns_and_counts(self, tmp_path,
                                                  monkeypatch, caplog):
        import json
        root = str(tmp_path / "badstore")
        os.makedirs(os.path.join(root, "objects"))
        with open(os.path.join(root, "generation.json"), "w") as fh:
            json.dump({"store_schema": 1, "key_schema": 1, "generation": 1},
                      fh)
        monkeypatch.setenv("REPRO_STORE_DIR", root)
        reset_worker_cache()
        try:
            with caplog.at_level(logging.WARNING,
                                 logger="repro.evaluation.executor"):
                cache = worker_cache()
            assert not cache.store.persistent  # storeless degradation
            events = worker_cache_events()
            assert events["store_attach_failures"] == 1
            assert any("attach" in record.message
                       for record in caplog.records)
        finally:
            reset_worker_cache()

    def test_counters_start_at_zero(self):
        reset_worker_cache()
        assert worker_cache_events() == {"store_attach_failures": 0}


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
    """Figures 9/10 at jobs=2 over a warm shared store vs the oracle.

    A parallel run whose workers adopt persisted artifacts (variants,
    feature payloads, per-function diff payloads) must stay row-identical
    to the storeless oracle.  The journal is switched off for the warm run,
    so the workers really execute over the warm tree.
    """

    def test_escape_jobs2_over_warm_store_equals_serial(self, tmp_store,
                                                        monkeypatch):
        workloads = embedded_programs()[:1]
        labels = ("sub", "fufi.all")
        reference = oracles.escape(workloads, labels)
        # populate the tree (in-process pass through the store)...
        cold = measure_escape(workloads, labels=labels, jobs=1)
        reset_worker_cache()
        # ...then fan out over the warm tree
        monkeypatch.setenv("REPRO_CHECKPOINT", "off")
        warm = measure_escape(workloads, labels=labels, jobs=2)
        assert cold.rows == reference.rows
        assert warm.rows == reference.rows
        for n in (1, 10, 50):
            assert warm.matrix(n) == reference.matrix(n)

    def test_bintuner_jobs2_over_warm_store_equals_serial(self, tmp_store,
                                                          monkeypatch):
        workloads = spec2006_programs()[:2]
        reference = oracles.bintuner(workloads, tuner_iterations=1)
        cold = measure_bintuner(workloads, tuner_iterations=1, jobs=1)
        reset_worker_cache()
        monkeypatch.setenv("REPRO_CHECKPOINT", "off")
        warm = measure_bintuner(workloads, tuner_iterations=1, jobs=2)
        assert cold.rows == reference.rows
        assert warm.rows == reference.rows
        assert (warm.bintuner_overhead_percent
                == reference.bintuner_overhead_percent
                == cold.bintuner_overhead_percent)


#: (driver call at jobs=1, its call cache size, the variants it builds).
#: A fig 8/9/10 unit holds its baseline (fig 9: its opt-level references)
#: itself and needs every other variant once, so one entry is enough.
SIZED_CALLS = [
    (lambda: measure_overhead(WORKLOADS[:1], labels=LABELS, jobs=1),
     2, len(LABELS) + 1),
    (lambda: measure_precision(WORKLOADS[:1], labels=LABELS,
                               differs=[BinDiff()], jobs=1),
     1, len(LABELS) + 1),
    (lambda: measure_escape(embedded_programs()[:1], labels=("sub",),
                            differs=[Asm2Vec()], jobs=1), 1, 2),
    (lambda: measure_bintuner(WORKLOADS[:1], tuner_iterations=1, jobs=1),
     1, 6),
]
SIZED_IDS = ["overhead", "precision", "escape", "bintuner"]


def _record_call_caches(monkeypatch):
    """Collect every call cache the engine makes from here on."""
    made = []

    def recording(size):
        made.append(executor.call_cache(size))
        return made[-1]

    monkeypatch.setattr(checkpoint, "call_cache", recording)
    return made


class TestInProcessMemory:
    """An in-process run builds through a cache of its own, released when
    the call returns: it never fills the process-wide worker cache and
    leaves no built variant alive."""

    @pytest.mark.parametrize("call", [
        lambda: measure_overhead(WORKLOADS[:1], labels=LABELS, jobs=1),
        lambda: measure_precision(WORKLOADS[:1], labels=LABELS,
                                  differs=[BinDiff()], jobs=1),
        lambda: measure_escape(embedded_programs()[:1], labels=("sub",),
                               differs=[Asm2Vec()], jobs=1),
        lambda: measure_bintuner(WORKLOADS[:1], tuner_iterations=1, jobs=1),
    ], ids=["overhead", "precision", "escape", "bintuner"])
    def test_jobs1_leaves_no_worker_cache_and_no_artifact(self, call,
                                                          monkeypatch):
        for name in ("REPRO_STORE_DIR", "REPRO_JOBS"):
            monkeypatch.delenv(name, raising=False)
        built = []
        init = BuildArtifact.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(BuildArtifact, "__init__", tracked)
        reset_worker_cache()
        call()
        gc.collect()
        assert executor._WORKER_CACHE is None
        assert built and all(ref() is None for ref in built)

    @pytest.mark.parametrize("call, entries, variants", SIZED_CALLS,
                             ids=SIZED_IDS)
    def test_jobs1_cache_is_sized_to_one_workloads_variants(
            self, call, entries, variants, monkeypatch):
        """The run's one cache holds exactly the variants a workload's
        units share, and no more is needed: no variant is built twice."""
        for name in ("REPRO_STORE_DIR", "REPRO_JOBS"):
            monkeypatch.delenv(name, raising=False)
        made = _record_call_caches(monkeypatch)
        call()
        assert [cache.max_entries for cache in made] == [entries]
        assert made[0].misses == variants
        assert len(made[0]) <= entries

    @pytest.mark.parametrize("call, entries, variants", SIZED_CALLS,
                             ids=SIZED_IDS)
    def test_store_backed_jobs1_reads_no_variant_back(
            self, call, entries, variants, tmp_store, monkeypatch):
        """With a store attached, a cold run looks each variant up in the
        tree once (the miss that builds it) and reads none back."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        made = _record_call_caches(monkeypatch)
        lookups = []
        read = ArtifactStore._read_object

        def recording_read(store, kind, digest, key):
            if kind == KIND_VARIANT:
                lookups.append(digest)
            return read(store, kind, digest, key)

        monkeypatch.setattr(ArtifactStore, "_read_object", recording_read)
        call()
        assert [cache.max_entries for cache in made] == [entries]
        assert made[0].misses == variants
        assert len(lookups) == len(set(lookups)) == variants
        assert len(made[0].store.keys(KIND_VARIANT)) <= entries


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
